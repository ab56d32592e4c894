"""Set conductance, Cheeger constant, and conductance profiles.

Tiny instances are handled exactly: cut values are integer triples
(crossing edges, degree sum of A, total degree), so inequality checks reduce
to integer cross-multiplication, and minimizers are found by enumerating
connected vertex subsets via canonical neighbour expansion (each connected
induced subgraph is generated exactly once). On percolation-scale instances
the exact oracle gives way to certified upper bounds: translated sub-box
windows and a spectral sweep cut, both optionally improved by reattaching all
but the largest complement component when a witness has a disconnected
complement (that surgery preserves the cut edge set while growing the mass).

The window bound works one tiling (a window radius and an axis offset) at a
time with whole-array calls. Every vertex gets a window index; one
connected-components pass over the edges whose ends share a window labels
all window pieces at once, and ``bincount`` gives their sizes, degree sums
and inner edge counts. Contracting each piece to a node gives the quotient
graph Q, multi-edges kept. Pieces are disjoint connected sets, so the
cluster minus a piece is connected iff Q minus the piece's node is; one
connected-components pass over a block-diagonal batch, copy j being Q without
node j, answers that for every recorded piece, and the same batch yields the
reattached cut: the complement component of largest degree sum, its size,
and its crossing, the Q-edges between it and the piece.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .chain import Chain
from .errors import CapacityError, DomainError
from .spectral import SpectralResult, spectral_gap, sweep_ordering

EXHAUSTIVE_CAP = 22
_ENUMERATION_BUDGET = 60_000_000


@dataclass(frozen=True)
class CutValue:
    """Exact conductance data of a vertex subset.

    All fields are integers: ``crossing`` edges leave the set, ``deg_a`` is
    the degree sum of the set, ``deg_total`` of the whole chain. The
    conductance crossing/(2|E|) / (pi(A) pi(A^c)) simplifies to
    crossing * deg_total / (deg_a * (deg_total - deg_a)).
    """

    members: frozenset
    crossing: int
    deg_a: int
    deg_total: int
    a_connected: bool
    ac_connected: bool

    @property
    def pi_a(self) -> float:
        return self.deg_a / self.deg_total

    @property
    def q_cross(self) -> float:
        return self.crossing / self.deg_total

    @property
    def phi(self) -> float:
        return self.crossing * self.deg_total / (self.deg_a * (self.deg_total - self.deg_a))

    @property
    def phi_fraction(self) -> Fraction:
        return Fraction(self.crossing * self.deg_total,
                        self.deg_a * (self.deg_total - self.deg_a))

    @property
    def pi_fraction(self) -> Fraction:
        return Fraction(self.deg_a, self.deg_total)


def _induced_connected(chain: Chain, idx: np.ndarray) -> bool:
    if idx.size <= 1:
        return idx.size == 1
    sub = chain.graph.adjacency[idx][:, idx]
    ncomp, _ = csgraph.connected_components(sub, directed=False)
    return ncomp == 1


def set_conductance(chain: Chain, members) -> CutValue:
    """Exact cut data for a proper nonempty vertex subset (local indices)."""
    idx = np.unique(np.fromiter((int(v) for v in members), dtype=np.int64))
    if idx.size == 0:
        raise DomainError("conductance of the empty set is undefined")
    if idx.size >= chain.m:
        raise DomainError("conductance of the full vertex set is undefined")
    if idx.min() < 0 or idx.max() >= chain.m:
        raise DomainError("subset contains out-of-range vertex indices")
    sub = chain.graph.adjacency[idx]
    deg_a = int(sub.sum())
    inner2 = int(sub[:, idx].sum())
    crossing = deg_a - inner2
    comp_idx = np.setdiff1d(np.arange(chain.m), idx, assume_unique=True)
    return CutValue(
        members=frozenset(int(v) for v in idx),
        crossing=crossing,
        deg_a=deg_a,
        deg_total=chain.total_degree,
        a_connected=_induced_connected(chain, idx),
        ac_connected=_induced_connected(chain, comp_idx),
    )


# ---------------------------------------------------------------------------
# exact enumeration


def _adjacency_bitmasks(chain: Chain) -> list[int]:
    adj = chain.graph.adjacency
    masks = []
    indptr, indices = adj.indptr, adj.indices
    for v in range(chain.m):
        mask = 0
        for u in indices[indptr[v]:indptr[v + 1]]:
            mask |= 1 << int(u)
        masks.append(mask)
    return masks


def _mask_is_connected(mask: int, adj: list[int]) -> bool:
    if mask == 0:
        return False
    start = mask & -mask
    seen = start
    frontier = start
    while frontier:
        nxt = 0
        f = frontier
        while f:
            bit = f & -f
            f ^= bit
            nxt |= adj[bit.bit_length() - 1]
        frontier = nxt & mask & ~seen
        seen |= frontier
    return seen == mask


def connected_subsets(chain: Chain):
    """Yield (bitmask, degree sum, inner edge count) for every connected subset.

    Canonical neighbour expansion: subsets are grouped by their minimum
    vertex, candidates excluded at one branch stay excluded in all later
    branches, so each connected set appears exactly once.
    """
    adj = _adjacency_bitmasks(chain)
    deg = chain.degrees.tolist()
    m = chain.m
    produced = 0

    def rec(smask, degsum, inner, frontier, banned, allowed):
        nonlocal produced
        yield smask, degsum, inner
        produced += 1
        if produced > _ENUMERATION_BUDGET:
            raise CapacityError("connected-subset enumeration budget exceeded")
        f = frontier & ~banned
        while f:
            bit = f & -f
            f ^= bit
            c = bit.bit_length() - 1
            smask2 = smask | bit
            frontier2 = (frontier | (adj[c] & allowed)) & ~smask2
            yield from rec(smask2, degsum + deg[c],
                           inner + (adj[c] & smask).bit_count(),
                           frontier2, banned, allowed)
            banned |= bit

    for s in range(m):
        allowed = ~((1 << (s + 1)) - 1)
        yield from rec(1 << s, deg[s], 0, adj[s] & allowed, 0, allowed)


def _mask_to_indices(mask: int) -> np.ndarray:
    out = []
    while mask:
        bit = mask & -mask
        mask ^= bit
        out.append(bit.bit_length() - 1)
    return np.asarray(out, dtype=np.int64)


@dataclass(frozen=True)
class CheegerResult:
    phi: float
    phi_fraction: Fraction
    witness: frozenset
    cut: CutValue


def cheeger_exact(chain: Chain, cap: int = EXHAUSTIVE_CAP) -> CheegerResult:
    """Exact Cheeger constant by enumeration over connected subsets.

    The search is restricted to connected sets with connected complement
    (mass at most 1/2); the minimum over all subsets is always attained there,
    so the restriction loses nothing while shrinking the search space.
    """
    if chain.m > cap:
        raise CapacityError(
            f"{chain.m} vertices exceed the exhaustive cap {cap}; use "
            "profile_upper_box or sweep_cut for certified upper bounds"
        )
    adj = _adjacency_bitmasks(chain)
    total = chain.total_degree
    full = (1 << chain.m) - 1
    best = None  # (crossing, deg_a, deg_ac, mask)
    for mask, degsum, inner in connected_subsets(chain):
        if mask == full or 2 * degsum > total:
            continue
        crossing = degsum - 2 * inner
        deg_ac = total - degsum
        if best is not None and crossing * best[1] * best[2] >= best[0] * degsum * deg_ac:
            continue
        if not _mask_is_connected(full & ~mask, adj):
            continue
        best = (crossing, degsum, deg_ac, mask)
    if best is None:
        raise DomainError("no admissible cut found")
    crossing, deg_a, deg_ac, mask = best
    cut = set_conductance(chain, _mask_to_indices(mask))
    return CheegerResult(
        phi=cut.phi, phi_fraction=cut.phi_fraction,
        witness=cut.members, cut=cut,
    )


def cheeger_unrestricted(chain: Chain, cap: int = 16) -> Fraction:
    """Brute-force Cheeger constant over all subsets (independent oracle)."""
    if chain.m > cap:
        raise CapacityError(f"{chain.m} vertices exceed the brute-force cap {cap}")
    adj = _adjacency_bitmasks(chain)
    deg = chain.degrees.tolist()
    total = chain.total_degree
    best = None
    for mask in range(1, (1 << chain.m) - 1):
        degsum = 0
        inner2 = 0
        mm = mask
        while mm:
            bit = mm & -mm
            mm ^= bit
            v = bit.bit_length() - 1
            degsum += deg[v]
            inner2 += (adj[v] & mask).bit_count()
        if 2 * degsum > total:
            continue
        val = Fraction((degsum - inner2) * total, degsum * (total - degsum))
        if best is None or val < best:
            best = val
    return best


# ---------------------------------------------------------------------------
# profiles


@dataclass(frozen=True)
class ProfilePoint:
    x: float
    phi: float
    certification: str
    witness_size: int
    x_fraction: Fraction | None = None
    phi_fraction: Fraction | None = None


@dataclass
class ConductanceProfile:
    """Step function x -> min conductance over sets of stationary mass <= x.

    Points are sorted by x and non-increasing in phi; the value on
    [x_i, x_{i+1}) is phi(x_i). ``exact`` points come from full enumeration,
    ``upper-bound`` points only dominate the true profile.
    """

    points: list

    def __post_init__(self):
        self.points = sorted(self.points, key=lambda p: p.x)

    @property
    def x_min(self) -> float:
        return self.points[0].x

    def value_at(self, x: float) -> float:
        if not self.points or x < self.points[0].x - 1e-15:
            raise DomainError(f"profile undefined below {self.points[0].x if self.points else 'empty'}")
        val = self.points[0].phi
        for p in self.points:
            if p.x <= x + 1e-15:
                val = p.phi
            else:
                break
        return val

    def is_non_increasing(self) -> bool:
        phis = [p.phi for p in self.points]
        return all(a >= b - 1e-12 for a, b in zip(phis, phis[1:]))

    def scaled(self, c: float) -> "ConductanceProfile":
        return ConductanceProfile([
            ProfilePoint(p.x, p.phi * c, p.certification, p.witness_size)
            for p in self.points
        ])

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("x,phi,certification,witness_size\n")
            for p in self.points:
                fh.write(f"{p.x!r},{p.phi!r},{p.certification},{p.witness_size}\n")

    @classmethod
    def lower_envelope(cls, cuts, total: int, certification: str) -> "ConductanceProfile":
        """Lower envelope (running minimum in mass order) of a bag of cuts.

        ``cuts`` holds one (crossing, degree sum, size) row per cut of a
        chain with total degree ``total``. Among cuts of equal degree sum the
        first one of least crossing is the witness.
        """
        cuts = np.asarray(cuts, dtype=np.int64).reshape(-1, 3)
        crossing, deg, size = cuts.T
        points = []
        running = None
        running_size = 0
        for i in _first_per_group(deg, crossing):
            key = int(deg[i])
            val = Fraction(int(crossing[i]) * total, key * (total - key))
            if running is None or val < running:
                running = val
                running_size = int(size[i])
            points.append(ProfilePoint(
                x=key / total,
                phi=float(running),
                certification=certification,
                witness_size=running_size,
                x_fraction=Fraction(key, total),
                phi_fraction=running,
            ))
        return cls(points)


def profile_exact(chain: Chain, cap: int = EXHAUSTIVE_CAP) -> ConductanceProfile:
    """Exact conductance profile at every achievable mass breakpoint.

    Minimizers over sets of mass <= x are always attained by connected sets,
    so enumeration over connected subsets suffices.
    """
    if chain.m > cap:
        raise CapacityError(
            f"{chain.m} vertices exceed the exhaustive cap {cap}"
        )
    total = chain.total_degree
    full = (1 << chain.m) - 1
    best_by_mass = {}  # degsum -> (crossing, deg_a, deg_ac, mask)
    for mask, degsum, inner in connected_subsets(chain):
        if mask == full or 2 * degsum > total:
            continue
        crossing = degsum - 2 * inner
        cur = best_by_mass.get(degsum)
        if cur is None or crossing * cur[1] * cur[2] < cur[0] * degsum * (total - degsum):
            best_by_mass[degsum] = (crossing, degsum, total - degsum, mask)
    points = []
    running = None
    running_size = 0
    for degsum in sorted(best_by_mass):
        crossing, deg_a, deg_ac, mask = best_by_mass[degsum]
        val = Fraction(crossing * total, deg_a * deg_ac)
        if running is None or val < running:
            running = val
            running_size = mask.bit_count()
        points.append(ProfilePoint(
            x=degsum / total,
            phi=float(running),
            certification="exact",
            witness_size=running_size,
            x_fraction=Fraction(degsum, total),
            phi_fraction=running,
        ))
    return ConductanceProfile(points)


def profile_unrestricted(chain: Chain, cap: int = 16) -> dict:
    """Brute-force profile over all subsets: degsum -> min conductance."""
    if chain.m > cap:
        raise CapacityError(f"{chain.m} vertices exceed the brute-force cap {cap}")
    adj = _adjacency_bitmasks(chain)
    deg = chain.degrees.tolist()
    total = chain.total_degree
    best = {}
    for mask in range(1, (1 << chain.m) - 1):
        degsum = 0
        inner2 = 0
        mm = mask
        while mm:
            bit = mm & -mm
            mm ^= bit
            v = bit.bit_length() - 1
            degsum += deg[v]
            inner2 += (adj[v] & mask).bit_count()
        if 2 * degsum > total:
            continue
        val = Fraction((degsum - inner2) * total, degsum * (total - degsum))
        if degsum not in best or val < best[degsum]:
            best[degsum] = val
    out = {}
    running = None
    for degsum in sorted(best):
        running = best[degsum] if running is None else min(running, best[degsum])
        out[degsum] = running
    return out


# ---------------------------------------------------------------------------
# certified upper bounds at scale


def reattach_complement(chain: Chain, cut: CutValue) -> list:
    """Witness surgery for a cut with disconnected complement.

    The complement splits into components that each attach only to the set;
    absorbing all but the heaviest component leaves the cut edges unchanged
    while concentrating the complement, which can only tighten the
    conductance. Returns the surgically improved cut(s); empty if the
    complement was already connected.
    """
    comp_idx = np.setdiff1d(np.arange(chain.m), np.fromiter(cut.members, dtype=np.int64))
    if comp_idx.size == 0:
        return []
    sub = chain.graph.adjacency[comp_idx][:, comp_idx]
    ncomp, labels = csgraph.connected_components(sub, directed=False)
    if ncomp <= 1:
        return []
    weights = np.zeros(ncomp, dtype=np.int64)
    np.add.at(weights, labels, chain.degrees[comp_idx])
    heavy = int(np.argmax(weights))
    heavy_idx = comp_idx[labels == heavy]
    if 2 * int(chain.degrees[heavy_idx].sum()) <= chain.total_degree:
        candidate = heavy_idx
    else:
        candidate = np.setdiff1d(np.arange(chain.m), heavy_idx, assume_unique=False)
    if candidate.size == 0 or candidate.size >= chain.m:
        return []
    return [set_conductance(chain, candidate)]


def _window_offsets(d: int, k: int) -> list:
    offs = [tuple(0 for _ in range(d))]
    for a in range(d):
        for step in {k, (k + 1) // 2}:
            if step == 0:
                continue
            off = [0] * d
            off[a] = step
            offs.append(tuple(off))
    seen = []
    for off in offs:
        if off not in seen:
            seen.append(off)
    return seen


# Bound on copies x (quotient nodes + quotient edges) per batched complement
# test, so memory stays bounded however many windows a tiling has.
_BATCH_ENTRIES = 1 << 21


def _window_ids(coords: np.ndarray, n: int, k: int, off: tuple) -> np.ndarray:
    """Row-major window index of each vertex in one tiling, -1 outside all.

    Windows of side 2k+1 start at -n + off[a] on axis a and end no later
    than n, so the index order is the ``product`` order of window centers.
    """
    stride = 2 * k + 1
    wid = np.zeros(coords.shape[0], dtype=np.int64)
    inside = np.ones(coords.shape[0], dtype=bool)
    for a, o in enumerate(off):
        count = len(range(-n + k + o, n - k + 1, stride))
        t = coords[:, a] + n - o
        idx = t // stride
        inside &= (t >= 0) & (idx < count)
        wid = wid * count + idx
    wid[~inside] = -1
    return wid


def _first_per_group(group: np.ndarray, *keys) -> np.ndarray:
    """Index of the first element of each group under ascending ``keys``.

    ``lexsort`` is stable, so elements equal in every key keep input order.
    """
    order = np.lexsort(keys[::-1] + (group,))
    g = group[order]
    lead = np.ones(order.size, dtype=bool)
    lead[1:] = g[1:] != g[:-1]
    return order[lead]


def _tiling_cuts(chain: Chain, wid: np.ndarray) -> np.ndarray:
    """(crossing, degree sum, size) rows of one tiling's cuts, in window order.

    Every window contributes its largest piece (ties to the piece holding
    the lowest vertex) when its mass is at most 1/2, followed by that
    piece's reattached cut when the piece's complement is disconnected.
    """
    m, total = chain.m, chain.total_degree
    eu, ev = chain.graph.edges_local.T
    intra = (wid[eu] == wid[ev]) & (wid[eu] >= 0)
    pieces = sparse.coo_matrix(
        (np.ones(int(intra.sum()), dtype=np.int8), (eu[intra], ev[intra])), shape=(m, m)
    )
    # csgraph numbers components in the order of their lowest vertex, so
    # piece labels and batch components below follow vertex order
    K, labels = csgraph.connected_components(pieces.tocsr(), directed=False)
    low = np.unique(labels, return_index=True)[1]  # lowest vertex of each piece
    size = np.bincount(labels, minlength=K)
    degsum = np.bincount(labels, weights=chain.degrees, minlength=K).astype(np.int64)
    crossing = degsum - 2 * np.bincount(labels[eu[intra]], minlength=K)

    in_window = np.nonzero(wid[low] >= 0)[0]
    if in_window.size == 0:
        return np.zeros((0, 3), dtype=np.int64)
    chosen = in_window[_first_per_group(wid[low[in_window]], -size[in_window],
                                        low[in_window])]
    chosen = chosen[2 * degsum[chosen] <= total]
    J = chosen.size
    out = np.zeros((J, 2, 3), dtype=np.int64)
    out[:, 0] = np.stack([crossing[chosen], degsum[chosen], size[chosen]], axis=1)
    has_reattached = np.zeros(J, dtype=bool)

    # Quotient graph Q: one node per piece, one edge per cluster edge between
    # pieces. Pieces are disjoint connected sets, so the cluster minus piece P
    # is connected iff Q minus node(P) is; each batch copy j is Q minus node j.
    lu, lv = labels[eu[~intra]], labels[ev[~intra]]
    q = sparse.coo_matrix((np.ones(lu.size, dtype=np.int64), (lu, lv)), shape=(K, K))
    q = (q + q.T).tocsr()
    qa, qb = sparse.triu(q).nonzero()
    per_copy = K + qa.size
    chunk = max(1, _BATCH_ENTRIES // per_copy)
    for lo in range(0, J, chunk):
        sel = np.arange(lo, min(lo + chunk, J))
        P = chosen[sel]
        c = sel.size
        keep = (qa[None, :] != P[:, None]) & (qb[None, :] != P[:, None])
        jj, ee = np.nonzero(keep)
        batch = sparse.coo_matrix(
            (np.ones(jj.size, dtype=np.int8), (jj * K + qa[ee], jj * K + qb[ee])),
            shape=(c * K, c * K),
        )
        nc, bl = csgraph.connected_components(batch.tocsr(), directed=False)
        comp_first = np.unique(bl, return_index=True)[1]
        comp_copy = comp_first // K
        # each copy holds its removed node's singleton plus the complement's parts
        split = np.bincount(comp_copy, minlength=c) > 2
        if not split.any():
            continue
        node_q = np.tile(np.arange(K), c)
        removed = bl[np.arange(c) * K + P]
        comp_deg = np.bincount(bl, weights=degsum[node_q], minlength=nc).astype(np.int64)
        comp_deg[removed] = -1
        comp_size = np.bincount(bl, weights=size[node_q], minlength=nc).astype(np.int64)
        starts = q.indptr[P]
        lens = q.indptr[P + 1] - starts
        pos = np.arange(lens.sum()) + np.repeat(starts - (np.cumsum(lens) - lens), lens)
        owner = np.repeat(np.arange(c), lens)
        comp_cross = np.bincount(bl[owner * K + q.indices[pos]], weights=q.data[pos],
                                 minlength=nc).astype(np.int64)
        # heaviest complement component, ties to the one holding the lowest vertex
        heavy = _first_per_group(comp_copy, -comp_deg, comp_first)
        heavy = heavy[split]
        rows = sel[split]
        h_deg, h_size = comp_deg[heavy], comp_size[heavy]
        small = 2 * h_deg <= total
        out[rows, 1, 0] = comp_cross[heavy]
        out[rows, 1, 1] = np.where(small, h_deg, total - h_deg)
        out[rows, 1, 2] = np.where(small, h_size, m - h_size)
        has_reattached[rows] = True
    emitted = np.stack([np.ones(J, dtype=bool), has_reattached], axis=1)
    return out[emitted]


def profile_upper_box(chain: Chain, config=None, k_values=None) -> ConductanceProfile:
    """Upper-bound conductance profile from translated sub-box windows.

    For each window radius k < n the box is tiled by disjoint translates
    (side 2k+1) at a few axis offsets. Each tiling costs a few whole-array
    calls: every vertex gets its window index, one connected-components pass
    over the edges inside windows labels every window piece, and ``bincount``
    gives the pieces' sizes, degree sums and crossing counts. The largest
    piece of each window is recorded. Contracting every piece to a node gives
    the quotient graph Q; a piece's complement in the cluster is connected iff
    Q without the piece's node is, which one connected-components pass over a
    block-diagonal batch of such copies decides for all recorded pieces at
    once. When it is not, the complement's heaviest component (or the set
    around it) is recorded too, with crossing equal to the Q-edges between
    it and the piece. Every recorded point dominates the true profile at its
    mass.
    """
    graph = chain.graph
    if graph.box is None or graph.coords is None:
        raise DomainError("chain was not built from a lattice cluster")
    if config is not None and config.box != graph.box:
        raise DomainError("configuration does not match the cluster's box")
    n, d = graph.box.n, graph.box.d
    ks = list(k_values) if k_values is not None else list(range(1, n))
    for k in ks:
        if not 1 <= k < n:
            raise DomainError(f"window radius {k} outside [1, n)")
    cuts = [np.zeros((0, 3), dtype=np.int64)]
    for k in ks:
        for off in _window_offsets(d, k):
            cuts.append(_tiling_cuts(chain, _window_ids(graph.coords, n, k, off)))
    return ConductanceProfile.lower_envelope(np.concatenate(cuts), chain.total_degree,
                                             "upper-bound")


def sweep_cut(chain: Chain, spectral: SpectralResult | None = None) -> CutValue:
    """Best prefix cut of the second-eigenvector ordering (upper bound on phi).

    Prefix crossing counts come from a difference array over edge rank spans,
    so the full sweep is linear in edges. The winning prefix is re-evaluated
    exactly; a disconnected complement triggers reattachment surgery and the
    tighter of the two cuts is returned.
    """
    spec = spectral if spectral is not None else spectral_gap(chain)
    order = sweep_ordering(chain, spec)
    rank = np.empty(chain.m, dtype=np.int64)
    rank[order] = np.arange(chain.m)
    edges = chain.graph.edges_local
    r_lo = np.minimum(rank[edges[:, 0]], rank[edges[:, 1]])
    r_hi = np.maximum(rank[edges[:, 0]], rank[edges[:, 1]])
    diff = np.zeros(chain.m + 1, dtype=np.int64)
    np.add.at(diff, r_lo + 1, 1)
    np.add.at(diff, r_hi + 1, -1)
    crossing = np.cumsum(diff)[1:chain.m]  # prefix sizes 1..m-1
    degsum = np.cumsum(chain.degrees[order])[: chain.m - 1]
    total = chain.total_degree
    phi = crossing * total / (degsum * (total - degsum))
    j = int(np.argmin(phi))
    cut = set_conductance(chain, order[: j + 1])
    best = cut
    if not cut.ac_connected:
        for other in reattach_complement(chain, cut):
            if other.phi_fraction < best.phi_fraction:
                best = other
    return best


def small_set_floor(chain: Chain, x: float) -> float:
    """Connectivity floor for the conductance of sets of mass at most x.

    Any proper subset of a connected chain has at least one crossing edge, so
    Q(A, A^c) >= 1/(2|E|) and phi_A >= 1/(2|E| x) whenever pi(A) <= x.
    """
    if x <= 0:
        raise DomainError("mass bound must be positive")
    return 1.0 / (chain.total_degree * x)


def lk_bound(profile: ConductanceProfile, pi_min: float) -> float:
    """Average-conductance upper bound on the mixing time.

    Integrates 32 / (x phi(x)^2) over [pi_min, 1/2] exactly piece by piece
    (each constant piece contributes a log term). The profile must cover
    pi_min; a degenerate domain (pi_min = 1/2, only possible for the
    two-vertex chain) integrates to zero.
    """
    if not profile.points:
        raise DomainError("empty profile")
    if pi_min <= 0:
        raise DomainError("pi_min must be positive")
    if pi_min >= 0.5:
        return 0.0
    if profile.points[0].x > pi_min * (1 + 1e-12):
        raise DomainError(
            f"profile starts at {profile.points[0].x}, above pi_min={pi_min}"
        )
    total = 0.0
    pts = profile.points
    for i, p in enumerate(pts):
        seg_start = max(p.x, pi_min)
        seg_end = pts[i + 1].x if i + 1 < len(pts) else 0.5
        seg_end = min(seg_end, 0.5)
        if seg_end > seg_start:
            total += math.log(seg_end / seg_start) / (p.phi * p.phi)
    return 32.0 * total
