"""Test-only helpers shared by several test modules.

Closed-form graphs, oracles and accessors that tests compare the package
against; nothing in ``percmix`` calls them.
"""

import itertools
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
from percmix.errors import (CapacityError, DomainError, NonConvergenceError,
                            UnsupportedDimensionError)
from percmix.experiments import SCHEMA_VERSION, ExperimentConfig
from percmix.fitting import FitResult
from percmix.geometry import DualFppField
from percmix.lattice import BoxGraph, BoxSpec, build_box
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


# ---------------------------------------------------------------------------
# the planar dual as an explicit graph: the oracle of the face-grid arithmetic
# in `DualFppField`, and the sorted-key search its bitmap search replaced


class DualGraph:
    """Planar dual of B_2(n): one vertex per unit face plus one merged outer face.

    Every primal edge crosses exactly one dual edge and the pairing is indexed
    by primal EdgeId, so dual edge k crosses primal edge k. The single outer
    face keeps boundary cut curves connected.
    """

    def __init__(self, box: BoxGraph):
        if box.spec.d != 2:
            raise UnsupportedDimensionError("dual lattice is defined for d=2 only")
        self.box = box
        n = box.spec.n
        self.n = n
        self.faces_per_side = 2 * n
        self.num_inner_faces = self.faces_per_side**2
        self.outer_face = self.num_inner_faces  # id of the merged outer face

        # Face (fx, fy) is the unit square [fx, fx+1] x [fy, fy+1],
        # fx, fy in {-n .. n-1}. Axis 0 of a primal edge changes x, axis 1 y.
        coords = box.vertex_coords(box.edge_tail)  # (E, 2)
        x, y = coords[:, 0], coords[:, 1]
        ax = box.edge_axis
        # axis-0 edge (x,y)-(x+1,y): separates faces (x, y-1) and (x, y)
        # axis-1 edge (x,y)-(x,y+1): separates faces (x-1, y) and (x, y)
        fu = np.where(ax == 0, self._face_id(x, y - 1), self._face_id(x - 1, y))
        fv = self._face_id(x, y)
        self.dual_u = fu
        self.dual_v = fv
        self.dual_u.setflags(write=False)
        self.dual_v.setflags(write=False)

    def _face_id(self, fx, fy) -> np.ndarray:
        n, side = self.n, self.faces_per_side
        inside = (fx >= -n) & (fx < n) & (fy >= -n) & (fy < n)
        ids = (fx + n) * side + (fy + n)
        return np.where(inside, ids, self.outer_face).astype(np.int64)

    def coord_to_face(self, coords) -> np.ndarray:
        coords = np.asarray(coords, dtype=np.int64)
        n, side = self.n, self.faces_per_side
        if np.any(coords < -n) or np.any(coords >= n):
            raise DomainError("face coordinate outside the box")
        return (coords[..., 0] + n) * side + (coords[..., 1] + n)


@lru_cache(maxsize=16)
def dual_lattice(box: BoxGraph) -> DualGraph:
    """Planar dual of a d=2 box (cached per box; its arrays are read-only).

    Errors on any other dimension.
    """
    return DualGraph(box)


def dual_graph_field(config):
    """Face classes (by face id) and quotient graph of a d=2 configuration, via `DualGraph`.

    Free dual edges cross closed primal edges; paid ones cross open edges.
    Only dual edges between two interior faces count.
    """
    dual = dual_lattice(build_box(config.box))
    u, v = dual.dual_u, dual.dual_v
    interior = (u != dual.outer_face) & (v != dual.outer_face)
    free = interior & ~config.open_mask
    size = dual.num_inner_faces
    num_classes, face_class = csgraph.connected_components(
        sparse.coo_matrix((np.ones(int(free.sum()), dtype=np.int8), (u[free], v[free])),
                          shape=(size, size)),
        directed=False,
    )
    paid = interior & config.open_mask
    cu, cv = face_class[u[paid]], face_class[v[paid]]
    cross = cu != cv
    cu, cv = cu[cross], cv[cross]
    quotient = sparse.coo_matrix(
        (np.ones(2 * cu.size), (np.concatenate([cu, cv]), np.concatenate([cv, cu]))),
        shape=(num_classes, num_classes),
    ).tocsr()
    return face_class, quotient


def face_classes(field: DualFppField, faces) -> np.ndarray:
    """The classes of an array of face coordinates, shape (..., 2)."""
    n = field._face_class.shape[0] // 2
    faces = np.asarray(faces, dtype=np.int64) + n
    return field._face_class[faces[..., 0], faces[..., 1]]


def sorted_key_meet(field: DualFppField, src, dst, bound) -> np.ndarray:
    """The bidirectional search over sorted int64 keys that the bitmap search replaced.

    Keys are ``pair * classes + class``, kept sorted; the sides grow one
    layer in turn, each keeping its last two layers to drop revisits, and a
    pair settles at la + lb the first time one side's new layer meets the
    other side's current layer.
    """
    classes = field._quotient.shape[0]
    indptr, indices = field._quotient.indptr, field._quotient.indices
    degree = np.diff(indptr)
    num = src.size
    base = np.arange(num, dtype=np.int64) * classes
    out = np.full(num, -1, dtype=np.int64)
    empty = base[:0]
    sides = [[base + src, empty], [base + dst, empty]]  # [current, previous]
    depth = 0
    for turn in itertools.cycle((0, 1)):
        cur, prev = sides[turn]
        other = sides[1 - turn][0]
        owner, node = np.divmod(cur, classes)
        deg = degree[node]
        ends = np.cumsum(deg)
        gather = np.arange(ends[-1]) - np.repeat(ends - deg - indptr[node], deg)
        nxt = np.sort(np.repeat(owner * classes, deg) + indices[gather])
        nxt = nxt[np.diff(nxt, prepend=-1) != 0]
        nxt = nxt[~(_sorted_member(cur, nxt) | _sorted_member(prev, nxt))]
        depth += 1
        met = np.zeros(num, dtype=bool)
        met[nxt[_sorted_member(other, nxt)] // classes] = True
        out[met] = depth
        live = np.zeros(num, dtype=bool)
        live[nxt // classes] = True
        waiting = out < 0
        if (waiting & (~live | (depth >= bound))).any():
            raise DomainError("dual vertices are not connected")
        if not waiting.any():
            return out
        sides[turn] = [nxt, cur]
        if met.any():
            for side in sides:
                side[:] = [keys[~met[keys // classes]] for keys in side]


def _sorted_member(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Which of ``keys`` occur in the sorted array ``sorted_keys``."""
    if sorted_keys.size == 0:
        return np.zeros(keys.size, dtype=bool)
    pos = np.minimum(np.searchsorted(sorted_keys, keys), sorted_keys.size - 1)
    return sorted_keys[pos] == keys


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
