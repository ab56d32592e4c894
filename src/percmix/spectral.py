"""Spectral gap, relaxation time, and distance-based lower bounds.

The generator Q is similar to the symmetric matrix S = D^{1/2} Q D^{-1/2}
(D the diagonal of the stationary law), whose off-diagonal entries are
1/sqrt(deg x * deg y) and diagonal is -1. The gap needs only the top of the
spectrum of S: shift-invert Lanczos (Ericsson and Ruhe, Math. Comp. 1980)
computes its three largest eigenpairs, and up to ``dense_cap`` vertices the
inertia of S - theta I, with theta halfway between lambda_2 and lambda_3,
must count exactly two eigenvalues above theta (Sylvester's law of inertia);
otherwise the chain's dense eigendecomposition decides, as it does for small
chains. ``method`` names the size class: ``dense`` is that certified route
with its dense fallback, ``iterative`` the uncertified Lanczos answer above
``dense_cap``.

The distance-variance lower bound is exact at every size: a source search
pruned by |sigma_u - sigma_v| <= d(u, v), where sigma_v is the
pi-standard deviation of the graph distance from v, evaluates only the
sources whose bound can still reach the best variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csgraph
from scipy.sparse.linalg import ArpackNoConvergence

from .caps import DENSE_CAP, SPARSE_EIGEN_MIN
from .chain import Chain, count_above, top_eigenpairs
from .errors import DomainError, InequalityViolationError, NonConvergenceError


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

    ``rtol`` is the Lanczos tolerance; the shift-invert solve usually
    reaches machine precision well within it.
    """
    s = chain.symmetrized
    iterative = chain.m > dense_cap
    w = None
    if chain.m > 3 and (iterative or chain.m > SPARSE_EIGEN_MIN):
        try:
            w, v = top_eigenpairs(s, 3, tol=rtol)
        except ArpackNoConvergence as exc:
            if iterative:
                raise NonConvergenceError(
                    "Lanczos did not converge for the second eigenvalue",
                    best=None, residual=rtol,
                ) from exc
        else:
            theta = 0.5 * (w[0] + w[1])
            if not iterative and not (w[0] < theta < w[1] and count_above(s, theta) == 2):
                w = None
    if w is None:
        w, v = chain.eigensystem
    lam2 = w[-2]
    vec = v[:, -2].copy()
    method = "iterative" if iterative else "dense"

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
    source: int  # local index of the maximizing source vertex
    sources: int  # BFS sources evaluated before the bounds pruned the rest


_SOURCE_BATCH = 32  # BFS sources per batch; the bounds tighten between batches


def distance_variance_lower_bound(chain: Chain) -> DistanceVarianceBound:
    """Largest stationary variance of a single-source graph distance.

    Any graph distance changes by at most 1 per transition, so its Dirichlet
    form is at most one and its stationary variance lower-bounds the
    relaxation time. The maximum over all sources is exact, with ties to the
    smallest source index. The pi-standard deviation sigma_v of the distance
    from v is a seminorm of that distance function, and the distance
    functions of u and v differ by at most d(u, v) in sup norm, so
    sigma_v <= sigma_s + d(s, v) (the eccentricity bounding of Takes and
    Kosters, 2011, applied to the variance). Sources are evaluated in batches
    in decreasing order of that bound over the rows already computed, until
    no bound reaches sqrt(best) minus the rounding slack 2 sqrt(E), where
    E = 8 m eps diam^2 bounds the rounding error of a computed variance.
    Each variance is a row-wise reduction of its own distance row, so it does
    not depend on the batch the source lands in.
    """
    m, pi = chain.m, chain.pi
    adj = chain.graph.adjacency
    bound = np.full(m, np.inf)  # upper bound on sigma_v from the rows so far
    alive = np.arange(m)  # sources not yet evaluated
    best, best_src, slack = -1.0, -1, 0.0
    evaluated = 0
    while alive.size:
        order = np.argsort(-bound[alive], kind="stable")
        idx, alive = alive[order[:_SOURCE_BATCH]], alive[order[_SOURCE_BATCH:]]
        evaluated += idx.size
        dist = csgraph.dijkstra(adj, indices=idx, unweighted=True, directed=False)
        mean = (dist * pi).sum(axis=1)
        var = (dist * dist * pi).sum(axis=1) - mean**2
        top = var.max()
        src = int(idx[var == top].min())
        if top > best or (top == best and src < best_src):
            best, best_src = float(top), src
        if not slack:
            # every distance is at most twice the eccentricity of any source
            diam = 2.0 * float(dist[0].max())
            slack = 2.0 * diam * math.sqrt(8.0 * m * np.finfo(float).eps)
        sigma = np.sqrt(var)
        np.minimum(bound, (sigma[:, None] + dist).min(axis=0), out=bound)
        alive = alive[bound[alive] >= math.sqrt(best) - slack]
    return DistanceVarianceBound(value=best, source=best_src, sources=evaluated)


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
