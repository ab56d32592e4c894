"""Spectral gap, relaxation time, and distance-based lower bounds.

The generator Q is similar to the symmetric matrix S = D^{1/2} Q D^{-1/2}
(D the diagonal of the stationary law), whose off-diagonal entries are
1/sqrt(deg x * deg y) and diagonal is -1. The gap needs only the top of the
spectrum of S, and it is certified at every size by the chain's one
eigensolve route (`Chain.solve_above`: an inertia count, shift-invert
Lanczos, a separation check, the dense eigendecomposition as fallback), run
at a floor proven to lie below lambda_2. The floor comes from the
variational characterisation gap = min_f E(f, f) / Var_pi(f)
(Levin-Peres-Wilmer, Markov Chains and Mixing Times, Ch. 13) at one test
function f. The solve is not kept on the chain, so the gap is the same
whatever the chain solved before. ``dense_cap`` only labels ``method`` by
size: ``dense`` up to it, ``iterative`` above.

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

from .caps import DENSE_CAP
from .chain import Chain
from .errors import DomainError, InequalityViolationError


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


def _gap_floor(chain: Chain) -> float:
    """A floor strictly below lambda_2 of S: -(1 + 1e-9) E(f, f) / Var_pi(f).

    Every non-constant f bounds the gap by E(f, f) / Var_pi(f), so lambda_2 =
    -gap lies at or above -E(f, f) / Var_pi(f) (Courant-Fischer). f is the
    graph distance from vertex 0, which changes by at most one along an edge,
    so E(f, f) is the number of edges it changes along over the total degree.
    The relative margin covers rounding where f attains the minimum, as on
    the single edge, the 4-cycle and complete graphs.
    """
    # the adjacency is symmetric (a + a.T), so directed=True walks the same
    # edges and skips the transpose an undirected search makes
    f = csgraph.dijkstra(chain.graph.adjacency, indices=0, unweighted=True, directed=True)
    u, v = chain.graph.edges_local.T
    dirichlet = np.count_nonzero(f[u] != f[v]) / chain.total_degree
    dev = f - chain.pi @ f
    return -(1.0 + 1e-9) * dirichlet / float(chain.pi @ (dev * dev))


def spectral_gap(chain: Chain, dense_cap: int = DENSE_CAP) -> SpectralResult:
    """Spectral gap -lambda_2 of the generator, certified, with the achieved residual.

    A pure function of the chain: one `Chain.solve_above` at `_gap_floor`,
    not kept, reads lambda_2 and its eigenvector, which must lie above the
    floor. ``dense_cap`` sets only the ``method`` label.
    """
    s = chain.symmetrized
    floor = _gap_floor(chain)
    _, w, v = chain.solve_above(floor)
    lam2 = w[-2]
    vec = v[:, -2].copy()
    method = "iterative" if chain.m > dense_cap else "dense"

    gap = -float(lam2)
    if not 0.0 < gap < -floor:
        raise DomainError(f"spectral gap {gap} outside (0, {-floor}), the floor's bound")
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
        # exact on the symmetric adjacency, without an undirected search's transpose
        dist = csgraph.dijkstra(adj, indices=idx, unweighted=True, directed=True)
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
