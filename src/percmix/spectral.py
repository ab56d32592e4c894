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
function f. The chain keeps no solve, only the one factor of S - sigma I
that its solves share, so the gap is the same whatever the chain solved
before. ``dense_cap`` only labels ``method`` by size: ``dense`` up to it,
``iterative`` above.

The distance-variance lower bound is exact at every size: a source search
pruned by |sigma_u - sigma_v| <= d(u, v), where sigma_v is the
pi-standard deviation of the graph distance from v, evaluates only the
sources whose bound can still reach the best variance. Distance rows come
from one breadth-first search over rooted copies of the cluster: disjoint
copies of the graph, one per source, joined to a root whose row lists each
copy's source. The depth of a node, read off the level-sorted BFS order,
is its distance from its copy's source plus one. The gap's test function
is such a row too.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
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
    ``inertia`` counts the eigenvalues of S above the gap's floor, and
    ``dense`` says whether the solve read the dense eigensystem.
    """

    gap: float
    method: str
    residual: float
    vector: np.ndarray
    inertia: int = 0
    dense: bool = False

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
    f = _RootedCopies(chain.graph.adjacency, 1).rows(np.zeros(1, dtype=np.int64))[0]
    u, v = chain.graph.edges_local.T
    dirichlet = np.count_nonzero(f[u] != f[v]) / chain.total_degree
    dev = f - chain.pi @ f
    return -(1.0 + 1e-9) * dirichlet / float(chain.pi @ (dev * dev))


def spectral_gap(chain: Chain, dense_cap: int = DENSE_CAP) -> SpectralResult:
    """Spectral gap -lambda_2 of the generator, certified, with the achieved residual.

    A pure function of the chain: one `Chain.solve_above` at `_gap_floor`
    reads lambda_2 and its eigenvector, which must lie above the
    floor. ``dense_cap`` sets only the ``method`` label.
    """
    s = chain.symmetrized
    floor = _gap_floor(chain)
    solved_floor, w, v = chain.solve_above(floor)
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
    return SpectralResult(gap=gap, method=method, residual=residual, vector=vec,
                          inertia=int(np.count_nonzero(w > floor)),
                          dense=solved_floor == -math.inf)


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
# Bound on the entries (nodes and stored edges) of the rooted copies one
# breadth-first search runs over, so memory stays bounded at any cluster size.
_BATCH_ENTRIES = 1 << 18


class _RootedCopies:
    """Graph-distance rows from breadth-first searches over rooted copies of a graph.

    The search graph holds ``copies`` disjoint copies of the adjacency (node
    r m + x is vertex x of copy r) and one root node, the last, whose row
    lists source r in copy r. One `csgraph.breadth_first_order` from the root
    reaches every copy, and a node's distance from its copy's source is its
    depth minus one. BFS order is sorted by depth and its parents' positions
    never decrease, so each level ends where the parent positions reach the
    previous level's end: one binary search per level. A traversal whose
    parent positions decrease is refused. Only the root row changes between
    searches; fewer sources than copies use a prefix of the copies.
    """

    def __init__(self, adj, copies: int):
        m, nnz = adj.shape[0], adj.nnz
        shift = np.arange(copies, dtype=np.int32)[:, None]
        indices = np.empty(copies * (nnz + 1), dtype=np.int32)
        indices[:copies * nnz] = (adj.indices + m * shift).ravel()
        indptr = np.empty(copies * m + 2, dtype=np.int32)
        indptr[:-2] = (adj.indptr[:-1] + nnz * shift).ravel()
        indptr[-2:] = copies * nnz, indices.size
        size = copies * m + 1
        # the search reads no weights: one broadcast 1.0 stands for every entry
        ones = np.broadcast_to(np.float64(1.0), indices.shape)
        self.graph = sparse.csr_matrix((ones, indices, indptr), shape=(size, size))
        self.m, self.copies, self.root, self.edges = m, copies, copies * m, copies * nnz
        self.firsts = m * shift.ravel()  # node of vertex 0 in each copy
        # buffers reused by every search: fresh arrays of this size cost page faults
        self.pos = np.empty(size, dtype=np.int32)  # position of each node in the order
        self.ramp = np.arange(size, dtype=np.int32)
        self.parent = np.empty(size - 1, dtype=np.int32)
        self.depth = np.empty(size - 1)

    def rows(self, sources: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The distance rows of ``sources``, written into C-contiguous ``out``."""
        if out is None:
            out = np.empty((sources.size, self.m))
        for lo in range(0, sources.size, self.copies):
            self._search(sources[lo:lo + self.copies], out[lo:lo + self.copies])
        return out

    def _search(self, sources: np.ndarray, out: np.ndarray) -> None:
        g, b = self.graph, sources.size
        g.indices[self.edges:self.edges + b] = sources + self.firsts[:b]
        g.indptr[-1] = self.edges + b
        order, pred = csgraph.breadth_first_order(g, self.root, directed=True)
        n, nodes = order.size, order[1:]
        self.pos[order] = self.ramp[:n]
        parent = self.parent[:n - 1]  # position of the parent of positions 1..n-1
        np.take(self.pos, np.take(pred, nodes, out=parent), out=parent)
        ends = [1]  # level k ends at ends[k]: the root is level 0, the sources level 1
        ok = n == b * self.m + 1 and not (parent[1:] < parent[:-1]).any()
        view = memoryview(parent)  # bisect reads it as Python ints, with no numpy call
        while ok and ends[-1] < n:
            # the previous level's search result bounds this one from below
            ends.append(1 + bisect.bisect_left(view, ends[-1], ends[-1] - 1))
            ok = ends[-1] > ends[-2]
        if not ok:
            raise RuntimeError("the traversal is not a breadth-first search of the copies")
        depth = self.depth[:n - 1]
        for k in range(1, len(ends)):
            depth[ends[k - 1] - 1:ends[k] - 1] = k - 1
        out.reshape(-1)[nodes] = depth


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
    A batch's distance rows come from breadth-first searches over rooted
    copies of the cluster (`_RootedCopies`), as many copies per search as
    ``_BATCH_ENTRIES`` allows, up to the batch size. Each variance is a
    row-wise reduction of its own distance row, so it does not depend on the
    batch the source lands in.
    """
    m, pi = chain.m, chain.pi
    adj = chain.graph.adjacency
    search = _RootedCopies(adj, min(_SOURCE_BATCH, max(1, _BATCH_ENTRIES // (m + adj.nnz))))
    rows = np.empty((min(_SOURCE_BATCH, m), m))
    bound = np.full(m, np.inf)  # upper bound on sigma_v from the rows so far
    alive = np.arange(m)  # sources not yet evaluated
    best, best_src, slack = -1.0, -1, 0.0
    evaluated = 0
    while alive.size:
        order = np.argsort(-bound[alive], kind="stable")
        idx, alive = alive[order[:_SOURCE_BATCH]], alive[order[_SOURCE_BATCH:]]
        evaluated += idx.size
        dist = search.rows(idx, rows[:idx.size])
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
                   atol: float = 0.0) -> SandwichReport:
    """Verify the two-sided relation between mixing and relaxation times.

    ``atol`` should cover the bracket resolution of the mixing time estimate;
    each side also forgives a relative 1e-9.
    Raises on violation, naming the failing side.
    """
    if not 0.0 < pi_min <= 1.0:
        raise DomainError("pi_min must be in (0, 1]")
    tau2 = spec.tau2
    upper = tau2 * (1.0 + 0.5 * np.log(1.0 / pi_min))
    lower_slack = tau1 - tau2
    upper_slack = upper - tau1
    if tau1 < tau2 * (1.0 - 1e-9) - atol:
        raise InequalityViolationError("lower", tau1, tau2, lower_slack)
    if tau1 > upper * (1.0 + 1e-9) + atol:
        raise InequalityViolationError("upper", tau1, upper, upper_slack)
    return SandwichReport(tau1=tau1, tau2=tau2, upper=upper,
                          lower_slack=lower_slack, upper_slack=upper_slack)
