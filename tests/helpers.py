"""Test-only helpers shared by several test modules.

Closed-form graphs, oracles and accessors that tests compare the package
against; nothing in ``percmix`` calls them.
"""

import math
from dataclasses import fields
from functools import lru_cache

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph
from scipy.special import pdtr, pdtrc

from percmix.chain import MODE_TOL, Chain
from percmix.conductance import (EXHAUSTIVE_CAP, ConductanceProfile, CutValue, ProfilePoint,
                                 connected_subsets, set_conductance)
from percmix.errors import CapacityError, DomainError, NonConvergenceError
from percmix.experiments import SCHEMA_VERSION, ExperimentConfig
from percmix.fitting import FitResult
from percmix.geometry import DualFppField
from percmix.lattice import BoxGraph, BoxSpec
from percmix.percolation import ClusterGraph, largest_cluster, sample_bond_config


def fit_through_origin(x, y) -> FitResult:
    """Least squares y = slope * x (no intercept); R^2 is uncentered.

    The natural estimator for growth laws with no offset: if y >= x pointwise
    the fitted slope cannot drop below 1.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise DomainError("x and y must be 1-d arrays of equal length")
    sxx = float((x * x).sum())
    if sxx == 0.0:
        raise DomainError("all x values zero; slope undefined")
    slope = float((x * y).sum()) / sxx
    resid = y - slope * x
    ss_res = float((resid**2).sum())
    ss_tot = float((y * y).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return FitResult(slope=slope, intercept=0.0, r_squared=r2)


# ---------------------------------------------------------------------------
# small closed-form graphs, accepted anywhere a cluster is (no lattice data)


def cycle_graph(m: int) -> ClusterGraph:
    if m < 3:
        raise DomainError("cycle needs at least 3 vertices")
    edges = [(i, (i + 1) % m) for i in range(m)]
    return ClusterGraph(np.arange(m), np.array(edges))


def path_graph(m: int) -> ClusterGraph:
    if m < 2:
        raise DomainError("path needs at least 2 vertices")
    edges = [(i, i + 1) for i in range(m - 1)]
    return ClusterGraph(np.arange(m), np.array(edges))


def complete_graph(m: int) -> ClusterGraph:
    if m < 2:
        raise DomainError("complete graph needs at least 2 vertices")
    edges = [(i, j) for i in range(m) for j in range(i + 1, m)]
    return ClusterGraph(np.arange(m), np.array(edges))


def single_edge() -> ClusterGraph:
    return path_graph(2)


def full_box_cluster(d: int, n: int) -> ClusterGraph:
    """The whole box B_d(n) as the p=1 percolation cluster."""
    return largest_cluster(sample_bond_config(BoxSpec(d, n), 1.0, 0))


# ---------------------------------------------------------------------------
# distances and walk oracles


def tv_distance(mu: np.ndarray, nu: np.ndarray) -> float:
    """Total-variation distance, half the L1 distance between the vectors."""
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if mu.shape != nu.shape:
        raise DomainError(f"distribution supports differ: {mu.shape} vs {nu.shape}")
    return min(1.0, 0.5 * float(np.abs(mu - nu).sum()))


def local_index(cluster: ClusterGraph, vertex_id: int) -> int:
    """Local index of a global VertexId in the cluster."""
    i = int(np.searchsorted(cluster.vertex_ids, vertex_id))
    if i >= cluster.num_vertices or cluster.vertex_ids[i] != vertex_id:
        raise DomainError(f"vertex {vertex_id} is not in the cluster")
    return i


def chemical_distance(cluster: ClusterGraph, x: int, y: int) -> int:
    """Graph distance between two global VertexIds inside the cluster."""
    lx, ly = local_index(cluster, x), local_index(cluster, y)
    if lx == ly:
        return 0
    dist = csgraph.dijkstra(cluster.adjacency, indices=lx, unweighted=True, directed=False)
    return int(dist[ly])


def dual_distance(field: DualFppField, x_face, y_face) -> int:
    """0-1 weighted distance between two dual vertices (face coordinates)."""
    return int(field.distances([x_face], [y_face])[0])


def l1_diameter(points) -> int:
    """Max pairwise L1 distance over a nonempty set of lattice points.

    Uses the rotation trick: the L1 diameter equals the max over the 2^(d-1)
    sign patterns s (s_0 = +1) of max - min of the projections sum_i s_i x_i.
    """
    pts = np.asarray(list(points) if not isinstance(points, np.ndarray) else points)
    if pts.size == 0:
        raise DomainError("l1_diameter of an empty set")
    if pts.ndim == 1:
        pts = pts[None, :]
    d = pts.shape[1]
    best = 0
    for bits in range(2 ** (d - 1)):
        signs = np.ones(d, dtype=np.int64)
        for a in range(1, d):
            if bits >> (a - 1) & 1:
                signs[a] = -1
        proj = pts @ signs
        best = max(best, int(proj.max() - proj.min()))
    return best


# ---------------------------------------------------------------------------
# the uniformized walk: e^{tQ} as the Poisson(t) mixture of powers of the
# jump kernel P, the oracle the spectral kernels are compared against


def jump_kernel(chain: Chain) -> sparse.csr_matrix:
    """The discrete simple random walk kernel P: P[x, y] = 1/deg(x) for x ~ y."""
    return sparse.csr_matrix(chain.graph.adjacency.multiply(1.0 / chain.degrees[:, None]))


def poisson_weights(t: float, tol: float) -> np.ndarray:
    """Poisson(t) pmf values w_0..w_K, K the first with tail mass P(N > K) below tol.

    The tail comes from `pdtrc`, not from 1 - sum(w), whose rounding can stay
    above tol at every K. Bernstein's inequality for the Poisson law,
    P(N >= t + x) <= exp(-x^2 / (2 (t + x / 3))), proves that K is at most
    t + x with x solving x^2 / (2 (t + x / 3)) = log(1 / tol). Each weight is
    a difference of the distribution function on its small side, `pdtr` up
    to t and `pdtrc` above, so the weights sum to 1 - P(N > K) to rounding;
    exp(k log t - t - log k!) would carry an error of about eps * t each.
    """
    if not 0.0 <= t < math.inf:
        raise DomainError(f"time must be nonnegative and finite, got {t}")
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tolerance must be positive and finite, got {tol}")
    if t == 0.0:
        return np.ones(1)
    log_inv = math.log(1.0 / min(tol, 1.0))
    k_hi = math.ceil(t + log_inv / 3.0 + math.sqrt(log_inv**2 / 9.0 + 2.0 * t * log_inv))
    k = np.arange(k_hi + 1)
    tail = pdtrc(k, t)
    small = tail < tol
    if not small[-1]:
        raise NonConvergenceError(
            f"Poisson({t:.6g}) tail not below {tol:.3g} at its bound k={k_hi}",
            best=k_hi, residual=float(tail[-1]),
        )
    K = int(np.argmax(small))
    split = min(math.floor(t), K) + 1  # weights w_0..w_{split-1} have k <= t
    return np.concatenate([np.diff(pdtr(k[:split], t), prepend=0.0),
                           -np.diff(tail[split - 1:K + 1])])


def transient_distribution(chain: Chain, start: np.ndarray, t: float,
                           tol: float = MODE_TOL) -> np.ndarray:
    """Distribution of the walk at time t from a start distribution.

    Truncated Poisson mixture of kernel powers, renormalized to sum to one.
    ``t = 0`` returns the start distribution exactly.
    """
    start = np.asarray(start, dtype=float)
    if start.shape != (chain.m,):
        raise DomainError("start distribution has the wrong length")
    if t == 0.0:
        return start.copy()
    w = poisson_weights(t, tol)
    vec = start.copy()
    out = w[0] * vec
    pt = jump_kernel(chain).T.tocsr()
    for wk in w[1:]:
        vec = pt @ vec
        out += wk * vec
    return out / out.sum()


# ---------------------------------------------------------------------------
# conductance profiles


def cheeger_exact(chain: Chain) -> CutValue:
    """The Cheeger constant's minimizing cut, by enumeration: the oracle.

    The search runs over connected sets of mass at most 1/2 whose complement
    is connected too; the minimum over all subsets is attained there, so the
    restriction must agree with an all-subsets brute force and with the last
    point of `profile_exact`, which drops the complement condition. Among
    cuts of equal conductance the first enumerated is kept.
    """
    if chain.m > EXHAUSTIVE_CAP:
        raise CapacityError(f"{chain.m} vertices exceed the exhaustive cap {EXHAUSTIVE_CAP}")
    total = chain.total_degree
    full = (1 << chain.m) - 1
    best = None
    for mask, degsum, inner in connected_subsets(chain):
        if mask == full or 2 * degsum > total:
            continue
        crossing = degsum - 2 * inner
        if best is not None and (crossing * best.deg_a * (total - best.deg_a)
                                 >= best.crossing * degsum * (total - degsum)):
            continue
        members = [v for v in range(chain.m) if mask >> v & 1]
        rest = np.setdiff1d(np.arange(chain.m), members)
        sub = chain.graph.adjacency[rest][:, rest]
        if csgraph.connected_components(sub, directed=False)[0] == 1:
            best = set_conductance(chain, members)
    if best is None:
        raise DomainError("no admissible cut found")
    return best


def profile_value_at(profile: ConductanceProfile, x: float) -> float:
    """The step function's value at x: phi of the last point with x_i <= x."""
    points = profile.points
    if not points or x < points[0].x - 1e-15:
        raise DomainError(f"profile undefined below {points[0].x if points else 'empty'}")
    val = points[0].phi
    for p in points:
        if p.x <= x + 1e-15:
            val = p.phi
        else:
            break
    return val


def profile_is_non_increasing(profile: ConductanceProfile) -> bool:
    phis = [p.phi for p in profile.points]
    return all(a >= b - 1e-12 for a, b in zip(phis, phis[1:]))


def profile_scaled(profile: ConductanceProfile, c: float) -> ConductanceProfile:
    return ConductanceProfile([
        ProfilePoint(p.x, p.phi * c, p.certification, p.witness_size)
        for p in profile.points
    ])


# ---------------------------------------------------------------------------
# lattice graphs as sparse matrices


def coord_to_vertex(box: BoxGraph, coords) -> np.ndarray:
    """Vertex ids for an array of coordinates, shape (..., d)."""
    coords = np.asarray(coords, dtype=np.int64)
    n = box.spec.n
    if np.any(np.abs(coords) > n):
        raise DomainError("coordinate outside the box")
    return ((coords + n) * box.strides).sum(axis=-1)


def edge_id(box: BoxGraph, u: int, v: int) -> int:
    """EdgeId of the edge between two adjacent vertex ids."""
    lo, hi = (u, v) if u < v else (v, u)
    axes = np.nonzero(box.strides == hi - lo)[0]
    if axes.size != 1:
        raise DomainError(f"vertices {u} and {v} are not lattice neighbours")
    eid = box.edge_lookup[lo, axes[0]]
    if eid < 0 or box.edge_head[eid] != hi:
        raise DomainError(f"vertices {u} and {v} are not lattice neighbours")
    return int(eid)


def window_vertex_ids(box: BoxGraph, lo, hi) -> np.ndarray:
    """Vertex ids of the sub-box [lo, hi]^d, shaped like the window grid.

    ``lo`` and ``hi`` are per-axis inclusive coordinate bounds; both must
    lie inside the box.
    """
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    n = box.spec.n
    if np.any(lo < -n) or np.any(hi > n) or np.any(lo > hi):
        raise DomainError("window not contained in the box")
    axes = [np.arange(a, b + 1, dtype=np.int64) + n for a, b in zip(lo, hi)]
    grid = axes[0] * box.strides[0]
    for a in range(1, box.spec.d):
        grid = grid[..., None] + axes[a] * box.strides[a]
    return grid


def box_degrees(box) -> np.ndarray:
    deg = np.bincount(box.edge_tail, minlength=box.num_vertices)
    deg += np.bincount(box.edge_head, minlength=box.num_vertices)
    return deg


@lru_cache(maxsize=16)
def box_adjacency(box) -> sparse.csr_matrix:
    """Symmetric 0/1 adjacency of every box edge (cached per box)."""
    ones = np.ones(box.num_edges, dtype=np.int8)
    a = sparse.coo_matrix(
        (ones, (box.edge_tail, box.edge_head)),
        shape=(box.num_vertices, box.num_vertices),
    )
    return (a + a.T).tocsr()


def dual_adjacency(dual, include_outer: bool = True) -> sparse.csr_matrix:
    size = dual.num_inner_faces + (1 if include_outer else 0)
    u, v = dual.dual_u, dual.dual_v
    if not include_outer:
        keep = (u != dual.outer_face) & (v != dual.outer_face)
        u, v = u[keep], v[keep]
    a = sparse.coo_matrix((np.ones(u.size, dtype=np.int8), (u, v)), shape=(size, size))
    return (a + a.T).tocsr()


def config_to_file(cfg: ExperimentConfig, path) -> None:
    """Write a config as the ``key = value`` text that `ExperimentConfig.from_file` reads."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# percmix experiment config (schema={SCHEMA_VERSION})\n")
        for f in fields(cfg):
            v = getattr(cfg, f.name)
            if v is None:
                continue
            if isinstance(v, tuple):
                v = ",".join(str(x) for x in v)
            fh.write(f"{f.name} = {v}\n")
