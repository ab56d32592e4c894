"""Spectral gap, relaxation time, and distance-based lower bounds.

The generator Q is similar to the symmetric matrix S = D^{1/2} Q D^{-1/2}
(D the diagonal of the stationary law), whose off-diagonal entries are
1/sqrt(deg x * deg y) and diagonal is -1. Eigensolves run on S: dense for
moderate sizes (the chain's one cached eigendecomposition), otherwise a
Lanczos solve on S with the known stationary eigenvector sqrt(pi) deflated
analytically (shifted out of the spectrum), which keeps tiny gaps
resolvable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csgraph
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .caps import DENSE_CAP
from .chain import Chain
from .errors import DomainError, InequalityViolationError, NonConvergenceError

_DEFLATE_SHIFT = 3.0  # pushes the 0 eigenvalue below the [-2, 0] spectrum


@dataclass(frozen=True)
class SpectralResult:
    """Second eigenvalue data of the walk generator.

    ``gap`` is -lambda_2 (positive for a connected chain), ``tau2`` its
    reciprocal, ``vector`` the corresponding eigenvector of the symmetrized
    operator, and ``residual`` the achieved ||S v - lambda v||_2.
    """

    gap: float
    method: str
    residual: float
    vector: np.ndarray

    @property
    def tau2(self) -> float:
        return 1.0 / self.gap


def spectral_gap(chain: Chain, rtol: float = 1e-10,
                 dense_cap: int = DENSE_CAP) -> SpectralResult:
    """Spectral gap -lambda_2 of the generator, with the achieved residual.

    The dense path reads the chain's cached eigensystem, which the mixing
    kernels share.
    """
    s = chain.symmetrized
    if chain.m <= dense_cap:
        w, v = chain.eigensystem
        lam2 = w[-2]
        vec = v[:, -2].copy()
        method = "dense"
    else:
        sqrt_pi = np.sqrt(chain.pi)
        sqrt_pi /= np.linalg.norm(sqrt_pi)

        def matvec(x):
            return s @ x - _DEFLATE_SHIFT * sqrt_pi * (sqrt_pi @ x)

        op = LinearOperator((chain.m, chain.m), matvec=matvec, dtype=float)
        # deterministic start vector, orthogonal to the deflated direction
        v0 = np.arange(1, chain.m + 1, dtype=float)
        v0 -= sqrt_pi * (sqrt_pi @ v0)
        v0 /= np.linalg.norm(v0)
        try:
            w, v = eigsh(op, k=1, which="LA", tol=rtol, v0=v0, maxiter=50 * chain.m)
        except ArpackNoConvergence as exc:
            best = float(exc.eigenvalues[0]) if len(exc.eigenvalues) else None
            raise NonConvergenceError(
                "Lanczos did not converge for the second eigenvalue",
                best=None if best is None else -best,
                residual=rtol,
            ) from exc
        lam2 = float(w[0])
        vec = v[:, 0]
        method = "iterative"

    gap = -float(lam2)
    if not 0.0 < gap <= 2.0 + 1e-9:
        raise DomainError(f"spectral gap {gap} outside (0, 2]; chain invalid?")
    residual = float(np.linalg.norm(s @ vec - lam2 * vec))
    if vec[np.nonzero(vec)[0][0]] < 0:
        vec = -vec
    vec.setflags(write=False)
    return SpectralResult(gap=gap, method=method, residual=residual, vector=vec)


def sweep_ordering(chain: Chain, spec: SpectralResult) -> np.ndarray:
    """Vertex order by the second eigenvector in walk coordinates (v / sqrt(pi))."""
    scores = spec.vector / np.sqrt(chain.pi)
    return np.lexsort((np.arange(chain.m), -scores))


@dataclass(frozen=True)
class DistanceVarianceBound:
    """max_v Var_pi(distance-to-v), a lower bound on the relaxation time."""

    value: float
    exhaustive: bool
    source: int  # local index of the maximizing source vertex


def distance_variance_lower_bound(chain: Chain, exhaustive_cap: int = 10_000,
                                  batch: int = 512) -> DistanceVarianceBound:
    """Largest stationary variance of a single-source graph distance.

    Any graph distance changes by at most 1 per transition, so its Dirichlet
    form is at most one and its stationary variance lower-bounds the
    relaxation time. Exhaustive over all sources up to ``exhaustive_cap``;
    above it only high-degree and coordinate-extremal sources are tried and
    the result is a lower bound on the exhaustive value.
    """
    m = chain.m
    if m <= exhaustive_cap:
        sources = np.arange(m)
        exhaustive = True
    else:
        by_degree = np.argsort(-chain.degrees, kind="stable")[:16]
        picks = [by_degree]
        coords = chain.graph.coords
        if coords is not None:
            for a in range(coords.shape[1]):
                picks.append([int(np.argmin(coords[:, a])), int(np.argmax(coords[:, a]))])
        sources = np.unique(np.concatenate([np.asarray(p) for p in picks]))
        exhaustive = False

    pi = chain.pi
    best, best_src = -1.0, -1
    adj = chain.graph.adjacency
    for i in range(0, len(sources), batch):
        idx = sources[i:i + batch]
        dist = csgraph.dijkstra(adj, indices=idx, unweighted=True, directed=False)
        mean = dist @ pi
        second = (dist * dist) @ pi
        var = second - mean**2
        j = int(np.argmax(var))
        if var[j] > best:
            best, best_src = float(var[j]), int(idx[j])
    return DistanceVarianceBound(value=best, exhaustive=exhaustive, source=best_src)


@dataclass(frozen=True)
class SandwichReport:
    """Slack record for tau2 <= tau1 <= tau2 (1 + 0.5 log(1/pi_min))."""

    tau1: float
    tau2: float
    upper: float
    lower_slack: float
    upper_slack: float


def sandwich_check(tau1: float, spec: SpectralResult, pi_min: float,
                   atol: float = 0.0, rtol: float = 1e-9) -> SandwichReport:
    """Verify the two-sided relation between mixing and relaxation times.

    ``atol`` should cover the bracket resolution of the mixing time estimate.
    Raises on violation, naming the failing side.
    """
    if not 0.0 < pi_min <= 1.0:
        raise DomainError("pi_min must be in (0, 1]")
    tau2 = spec.tau2
    upper = tau2 * (1.0 + 0.5 * np.log(1.0 / pi_min))
    lower_slack = tau1 - tau2
    upper_slack = upper - tau1
    if tau1 < tau2 * (1.0 - rtol) - atol:
        raise InequalityViolationError("lower", tau1, tau2, lower_slack)
    if tau1 > upper * (1.0 + rtol) + atol:
        raise InequalityViolationError("upper", tau1, upper, upper_slack)
    return SandwichReport(tau1=tau1, tau2=tau2, upper=upper,
                          lower_slack=lower_slack, upper_slack=upper_slack)
