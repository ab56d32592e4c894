"""Set conductance and conductance profiles.

Tiny instances are handled exactly: cut values are integer triples
(crossing edges, degree sum of A, total degree), so inequality checks reduce
to integer cross-multiplication, and the exact profile comes from one
enumeration of the connected vertex subsets by canonical neighbour
expansion (each connected induced subgraph is generated exactly once). Its
last running minimum, over every set of mass at most 1/2, is the Cheeger
constant. On percolation-scale instances the exact profile gives way to
certified upper bounds: translated sub-box windows and a spectral sweep
cut, both optionally improved by reattaching all but the largest complement
component when a witness has a disconnected complement (that surgery
preserves the cut edge set while growing the mass).

The window bound tiles the box at a few axis offsets per window radius.
All tilings of one radius cut the cluster along a common grid, so one
contraction serves them all: cutting every edge whose ends lie in different
windows of any tiling of the radius leaves the cell pieces, maximal
connected sets that share their window in every such tiling. One
connected-components pass over copies of the cluster, one per radius of a
chunk of radii, labels them by lowest vertex, with their sizes, degree
sums, inner edge counts and the multiplicities of the edges between them.
Each tiling then runs on its radius's cell pieces, a chunk of tilings at
once: one connected-components pass over the cell edges whose ends share a
window index labels all pieces of the chunk, the window pieces and each
connected region outside every window as one piece, and ``bincount`` gives
their sizes, degree sums and inner edge counts. Contracting each piece to a
node gives the quotient graph Q, multi-edges summed. Pieces are disjoint
connected sets, so the cluster minus a window piece falls apart exactly as
Q minus the piece's node does: one depth-first search of Q (Tarjan 1972)
finds, for every recorded piece at once, the subtrees no edge leads out of
above the piece, and with prefix sums over preorder their degree sums and
sizes. The reattached cut is the complement component of largest degree
sum, its size, and its crossing, the Q-edges between it and the piece.
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
from .lattice import concat_ranges
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

    @property
    def phi(self) -> float:
        return self.crossing * self.deg_total / (self.deg_a * (self.deg_total - self.deg_a))

    @property
    def phi_fraction(self) -> Fraction:
        return Fraction(self.crossing * self.deg_total,
                        self.deg_a * (self.deg_total - self.deg_a))


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
    return CutValue(
        members=frozenset(int(v) for v in idx),
        crossing=deg_a - inner2,
        deg_a=deg_a,
        deg_total=chain.total_degree,
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
    ``upper-bound`` points only dominate the true profile. ``cuts`` counts
    the window cuts a windowed profile was taken over (0 otherwise).
    """

    points: list
    cuts: int = 0

    def __post_init__(self):
        self.points = sorted(self.points, key=lambda p: p.x)

    @property
    def x_min(self) -> float:
        return self.points[0].x

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
        first one of least crossing is the witness. The running minimum
        compares phi = c/q, with c = crossing·total and q = key·(total − key),
        by Python-int cross-multiplication, which cannot overflow; the
        ``Fraction`` is built only when the record changes.
        """
        cuts = np.asarray(cuts, dtype=np.int64).reshape(-1, 3)
        crossing, deg, size = cuts.T
        first = _first_per_group(deg, crossing)
        points = []
        running = None
        for key, cross, sz in zip(deg[first].tolist(), crossing[first].tolist(),
                                  size[first].tolist()):
            c, q = cross * total, key * (total - key)
            if running is None or c * running.denominator < running.numerator * q:
                running = Fraction(c, q)
                running_phi = float(running)
                running_size = sz
            points.append(ProfilePoint(
                x=key / total,
                phi=running_phi,
                certification=certification,
                witness_size=running_size,
                x_fraction=Fraction(key, total),
                phi_fraction=running,
            ))
        return cls(points)


def profile_exact(chain: Chain) -> ConductanceProfile:
    """Exact conductance profile at every achievable mass breakpoint.

    Minimizers over sets of mass <= x are always attained by connected sets,
    so enumeration over connected subsets suffices. The last point's phi, the
    minimum over all sets of mass at most 1/2, is the Cheeger constant; the
    list is never empty, since a vertex of least degree has mass <= 1/2.
    """
    if chain.m > EXHAUSTIVE_CAP:
        raise CapacityError(f"{chain.m} vertices exceed the exhaustive cap {EXHAUSTIVE_CAP}")
    total = chain.total_degree
    full = (1 << chain.m) - 1
    best = {}  # degsum -> (crossing, degsum, size) of the first least crossing
    for mask, degsum, inner in connected_subsets(chain):
        if mask == full or 2 * degsum > total:
            continue
        crossing = degsum - 2 * inner
        if degsum not in best or crossing < best[degsum][0]:
            best[degsum] = (crossing, degsum, mask.bit_count())
    return ConductanceProfile.lower_envelope(list(best.values()), total, "exact")


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
    weights = np.bincount(labels, weights=chain.degrees[comp_idx], minlength=ncomp)
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


# Bound on entries (vertices and edges summed over the radii's copies of the
# cluster, or cells and twice the cell edges summed over the tilings) per
# chunk handled together, so memory stays bounded however many tilings an
# instance has.
_BATCH_ENTRIES = 1 << 17


def _chunks(items: list, entries: list):
    """Runs of consecutive items of at most ``_BATCH_ENTRIES`` entries, or single items."""
    lo, held = 0, 0
    for i, e in enumerate(entries):
        if i > lo and held + e > _BATCH_ENTRIES:
            yield items[lo:i]
            lo, held = i, 0
        held += e
    if items:
        yield items[lo:]


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


def _range_min(values: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """min(values[s:e]) for each nonempty range [s, e).

    A sparse table built one level at a time: level j holds the minima of
    the runs of length 2^j, and a range of length L is covered by two runs
    of level floor(log2 L).
    """
    out = np.empty(starts.size, dtype=values.dtype)
    level = np.frexp(ends - starts)[1] - 1
    table = values
    for j in range(int(level.max()) + 1 if starts.size else 0):
        if j:
            half = 1 << (j - 1)
            table = np.minimum(table[:-half], table[half:])
        at = np.nonzero(level == j)[0]
        out[at] = np.minimum(table[starts[at]], table[ends[at] - (1 << j)])
    return out


def _check_depth_first(q, order, disc, end, child, child_par, first) -> None:
    """Raise unless ``order`` and its tree are a depth-first search of ``q``.

    The order must be a preorder of the tree (each first child follows its
    parent, each later child the previous sibling's subtree), so [disc, end)
    are the subtrees, and every edge must join an ancestor to a descendant:
    each node's latest neighbour in preorder lies inside its subtree.
    """
    follows = np.empty(child.size, dtype=np.int64)
    follows[1:] = end[child[:-1]]
    follows[first] = disc[child_par[first]] + 1
    if (order.size != q.shape[0] or (disc[child] != follows).any()
            or (np.maximum.reduceat(disc[q.indices], q.indptr[:-1]) >= end).any()):
        raise RuntimeError("the traversal is not a depth-first search of the quotient graph")


def _components(u: np.ndarray, v: np.ndarray, n: int) -> tuple:
    """Connected components of the graph on n nodes with edges u-v, u ascending.

    The CSR rows are read off the sorted ``u`` directly, with float64 data
    as csgraph reads it, so neither a COO conversion nor csgraph's own cast
    sorts the rows. csgraph numbers components in the order of their lowest
    node, so the lowest node of each is where the running maximum label
    grows; a numbering in any other order is refused.
    """
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(u, minlength=n), out=indptr[1:])
    graph = sparse.csr_matrix((np.ones(u.size), v, indptr), shape=(n, n))
    K, labels = csgraph.connected_components(graph, directed=False)
    low = np.flatnonzero(np.diff(np.maximum.accumulate(labels), prepend=-1))
    if low.size != K:
        raise RuntimeError("connected components are not numbered by their lowest node")
    return K, labels, low


@dataclass(frozen=True)
class _Cells:
    """Cell pieces of one or more copies of the cluster and the edges between them.

    Cells are numbered by (copy, lowest vertex): copy r holds the cells
    ``start[r]`` to ``start[r + 1] - 1`` and the edges ``edge_start[r]`` to
    ``edge_start[r + 1] - 1``. Each edge (u < v) joins two cells of a copy
    and carries the number ``mult`` of cluster edges between them.
    """

    vertex: np.ndarray  # lowest vertex of each cell
    size: np.ndarray
    deg: np.ndarray
    inner: np.ndarray  # cluster edges inside each cell
    start: np.ndarray
    eu: np.ndarray
    ev: np.ndarray
    mult: np.ndarray
    edge_start: np.ndarray


def _cell_pieces(chain: Chain, keep: np.ndarray) -> _Cells:
    """Contract copy r of the cluster along the edges ``keep[r]`` does not keep.

    One connected-components pass over all copies labels the cells, and one
    ``bincount`` or ``unique`` over all copies gives each cell's data and
    the multiplicity of each edge between cells.
    """
    R, m = keep.shape[0], chain.m
    eu, ev = chain.graph.edges_local.T
    # copy r of the cluster holds nodes r*m .. r*m + m - 1
    base = np.arange(R, dtype=np.int64)[:, None] * m
    gu, gv = base + eu, base + ev
    ku = gu[keep]
    K, labels, low = _components(ku, gv[keep], R * m)
    # csgraph labels are int32, and the pair keys need 64 bits
    cu, cv = labels[gu[~keep]].astype(np.int64), labels[gv[~keep]]
    pair, mult = np.unique(np.minimum(cu, cv) * K + np.maximum(cu, cv), return_counts=True)
    start = np.append(labels[base[:, 0]], K)
    cell_u, cell_v = np.divmod(pair, K)
    return _Cells(
        vertex=low % m,
        size=np.bincount(labels, minlength=K),
        deg=np.bincount(labels, weights=np.tile(chain.degrees, R), minlength=K).astype(np.int64),
        inner=np.bincount(labels[ku], minlength=K),
        start=start, eu=cell_u, ev=cell_v, mult=mult,
        edge_start=np.searchsorted(cell_u, start),
    )


def _tiling_edges(cells: _Cells, copy: np.ndarray, head: np.ndarray) -> tuple:
    """Ends and multiplicities of the cell edges of tilings laid out one after another.

    Tiling i runs on the cells of copy ``copy[i]``, as nodes ``head[i]``
    onwards, so its edges keep their order and stay sorted by their first end.
    """
    n_edges = cells.edge_start[copy + 1] - cells.edge_start[copy]
    edge = concat_ranges(cells.edge_start[copy], n_edges)
    shift = np.repeat(head - cells.start[copy], n_edges)
    return cells.eu[edge] + shift, cells.ev[edge] + shift, cells.mult[edge]


def _quotient(cells: _Cells, copy: np.ndarray, wid: np.ndarray) -> tuple:
    """Pieces of tilings run on cell pieces, and their quotient graph Q.

    Tiling i runs on the cells of copy ``copy[i]``; ``wid`` holds every
    cell's window id, tiling after tiling. Returns each piece's tiling,
    lowest node, size, degree sum and crossing, and Q: one node per piece,
    each cluster edge between pieces an edge (multi-edges summed), plus a
    root node R = K joined to each tiling's first piece. The per-cell and
    per-edge arrays are freed on return, before Q is searched.
    """
    n_cells = cells.start[copy + 1] - cells.start[copy]
    head = np.cumsum(n_cells) - n_cells
    eu, ev, mult = _tiling_edges(cells, copy, head)
    intra = wid[eu] == wid[ev]
    # cells follow the lowest vertex within a tiling, so piece labels and
    # lowest nodes follow (tiling, lowest vertex)
    K, labels, low = _components(eu[intra], ev[intra], wid.size)
    cell = concat_ranges(cells.start[copy], n_cells)
    size = np.bincount(labels, weights=cells.size[cell], minlength=K).astype(np.int64)
    degsum = np.bincount(labels, weights=cells.deg[cell], minlength=K).astype(np.int64)
    inner = (np.bincount(labels, weights=cells.inner[cell], minlength=K)
             + np.bincount(labels[eu[intra]], weights=mult[intra], minlength=K))
    crossing = degsum - 2 * inner.astype(np.int64)
    # pieces are disjoint connected sets, so the cluster minus piece P has
    # the components of Q minus P within P's tiling
    lu, lv, lm = labels[eu[~intra]], labels[ev[~intra]], mult[~intra]
    first_piece = labels[head]
    rr = np.full(copy.size, K)
    q = sparse.csr_matrix(
        (np.concatenate([lm, lm, np.ones(2 * copy.size, dtype=np.int64)]),
         (np.concatenate([lu, lv, first_piece, rr]), np.concatenate([lv, lu, rr, first_piece]))),
        shape=(K + 1, K + 1),
    )
    return np.repeat(np.arange(copy.size), n_cells)[low], low, size, degsum, crossing, q


def _piece_cuts(chain: Chain, cells: _Cells, copy: np.ndarray, wid: np.ndarray) -> np.ndarray:
    """(crossing, degree sum, size) rows of the tilings' cuts, in tiling and window order.

    The tilings run on cell pieces as in ``_quotient``. Every window
    contributes its largest piece (ties to the piece holding the lowest
    vertex) when its mass is at most 1/2, followed by that piece's
    reattached cut when the piece's complement is disconnected.

    Each connected region outside every window is one piece of window -1,
    never chosen. Contracting a connected set disjoint from a window piece
    leaves the components of the piece's complement as they were, and piece
    labels still follow the lowest vertex, so both tie-breaks (heaviest
    component, then the one holding the lowest vertex) are unchanged.
    """
    m, total = chain.m, chain.total_degree
    tiling, low, size, degsum, crossing, q = _quotient(cells, copy, wid)
    window = wid[low]
    in_window = np.nonzero(window >= 0)[0]
    if in_window.size == 0:
        return np.zeros((0, 3), dtype=np.int64)
    group = tiling * (int(wid.max()) + 1) + window
    chosen = in_window[_first_per_group(group[in_window], -size[in_window], low[in_window])]
    chosen = chosen[2 * degsum[chosen] <= total]
    J = chosen.size
    out = np.zeros((J, 2, 3), dtype=np.int64)
    out[:, 0] = np.stack([crossing[chosen], degsum[chosen], size[chosen]], axis=1)

    K = R = size.size  # Q's root R is node K
    order, pred = csgraph.depth_first_order(q, R, directed=True, return_predecessors=True)
    disc = np.empty(K + 1, dtype=np.int64)
    disc[order] = np.arange(order.size)
    # children sorted by (parent, preorder); the last child of each parent
    # starts its parent's last subtree
    kids = order[1:]
    by_parent = np.argsort(disc[pred[kids]], kind="stable")
    child = kids[by_parent]
    child_par = pred[child]
    first = np.ones(child.size, dtype=bool)
    first[1:] = child_par[1:] != child_par[:-1]
    last = np.append(first[1:], True)
    # subtree of v is [disc[v], end[v]) in preorder: jump to the last descendant
    deepest = np.arange(K + 1)
    deepest[child_par[last]] = child[last]
    while True:
        nxt = deepest[deepest]
        if np.array_equal(nxt, deepest):
            break
        deepest = nxt
    end = disc[deepest] + 1
    _check_depth_first(q, order, disc, end, child, child_par, first)

    # removing P leaves the subtree of each child c with low[c] >= disc[P]
    # (no edge from it climbs above P), plus the rest of P's tiling unless P
    # is its root; the tree edge to the parent counts in low[c] harmlessly
    lowval = np.minimum(disc, np.minimum.reduceat(disc[q.indices], q.indptr[:-1]))
    row = np.full(K + 1, -1)
    row[chosen] = np.arange(J)
    mine = row[child_par] >= 0
    ck, cp = child[mine], child_par[mine]
    sep = _range_min(lowval[order], disc[ck], end[ck]) >= disc[cp]
    sc = ck[sep]
    owner = row[cp[sep]]
    cum_deg = np.concatenate([[0], np.cumsum(np.append(degsum, 0)[order])])
    cum_size = np.concatenate([[0], np.cumsum(np.append(size, 0)[order])])
    sep_deg = cum_deg[end[sc]] - cum_deg[disc[sc]]
    sep_size = cum_size[end[sc]] - cum_size[disc[sc]]
    has_rest = pred[chosen] != R
    rest_deg = total - degsum[chosen] - np.bincount(owner, sep_deg, J).astype(np.int64)
    rest_size = m - size[chosen] - np.bincount(owner, sep_size, J).astype(np.int64)
    split = np.nonzero(np.bincount(owner, minlength=J) + has_rest >= 2)[0]
    if split.size == 0:
        return out[:, 0]

    # component slots: j for the rest of piece j, J + i for separated child i
    slot = np.full(K + 1, -1)
    slot[sc] = J + np.arange(sc.size)
    P = chosen[split]
    lens = q.indptr[P + 1] - q.indptr[P]
    pos = concat_ranges(q.indptr[P], lens)
    near, far, mult = np.repeat(P, lens), q.indices[pos], q.data[pos]
    real = far != R
    near, far, mult = near[real], far[real], mult[real]
    comp = row[near]
    below = (disc[far] > disc[near]) & (disc[far] < end[near])
    key = disc[child_par] * (K + 1) + disc[child]
    hit = child[np.searchsorted(key, disc[near[below]] * (K + 1) + disc[far[below]], "right") - 1]
    comp[below] = np.where(slot[hit] >= 0, slot[hit], comp[below])
    comp_cross = np.bincount(comp, weights=mult, minlength=J + sc.size).astype(np.int64)
    comp_owner = np.concatenate([np.arange(J), owner])
    comp_deg = np.concatenate([np.where(has_rest, rest_deg, -1), sep_deg])
    comp_size = np.concatenate([rest_size, sep_size])
    # the rest holds its tiling's first piece, the lowest of all
    comp_low = np.concatenate([np.full(J, -1), _range_min(order, disc[sc], end[sc])])
    # heaviest complement component, ties to the one holding the lowest piece
    heavy = _first_per_group(comp_owner, -comp_deg, comp_low)[split]
    h_deg, h_size = comp_deg[heavy], comp_size[heavy]
    small = 2 * h_deg <= total
    out[split, 1, 0] = comp_cross[heavy]
    out[split, 1, 1] = np.where(small, h_deg, total - h_deg)
    out[split, 1, 2] = np.where(small, h_size, m - h_size)
    emitted = np.zeros((J, 2), dtype=bool)
    emitted[:, 0] = True
    emitted[split, 1] = True
    return out[emitted]


def _radius_cuts(chain: Chain, radii: list) -> list:
    """Cut rows of every tiling of the given radii, in radius, offset and window order.

    The cluster is cut along every window boundary of a radius at once;
    each tiling of the radius then runs on the resulting cell pieces, in
    chunks of about ``_BATCH_ENTRIES`` cells and cell edges (counted twice).
    """
    graph = chain.graph
    n, d = graph.box.n, graph.box.d
    eu, ev = graph.edges_local.T
    # an offset past 2(n - k) on an axis leaves no window there
    tilings = [(r, k, off) for r, k in enumerate(radii) for off in _window_offsets(d, k)
               if max(off) <= 2 * (n - k)]
    keep = np.ones((len(radii), eu.size), dtype=bool)
    for r, k, off in tilings:
        wid = _window_ids(graph.coords, n, k, off)
        keep[r] &= wid[eu] == wid[ev]
    cells = _cell_pieces(chain, keep)
    # a cell edge counts twice: it carries a multiplicity besides its ends,
    # and Q holds it both ways
    entries = np.diff(cells.start) + 2 * np.diff(cells.edge_start)
    cuts = []
    for chunk in _chunks(tilings, [entries[r] for r, _, _ in tilings]):
        wid = np.concatenate([
            _window_ids(graph.coords[cells.vertex[cells.start[r]:cells.start[r + 1]]], n, k, off)
            for r, k, off in chunk])
        cuts.append(_piece_cuts(chain, cells, np.array([r for r, _, _ in chunk]), wid))
    return cuts


def profile_upper_box(chain: Chain, k_values=None) -> ConductanceProfile:
    """Upper-bound conductance profile from translated sub-box windows.

    For each window radius k < n the box is tiled by disjoint translates
    (side 2k+1) at a few axis offsets; a tiling whose offset leaves no whole
    window inside the box is skipped. Radii run in chunks of about
    ``_BATCH_ENTRIES`` vertices and edges, one copy of the cluster per
    radius: cutting every edge whose ends lie in different windows of any
    tiling of the radius leaves its cell pieces, which one
    connected-components pass labels for the whole chunk. The tilings then
    run on their radius's cell pieces, in chunks of about
    ``_BATCH_ENTRIES`` cells and cell edges (counted twice), each a few
    whole-array calls: one connected-components pass over the cell edges
    whose ends share a window index labels every window piece and every
    connected region outside all windows, and ``bincount`` gives the
    pieces' sizes, degree sums and crossing counts. The largest piece of
    each window is recorded.
    Contracting every piece to a node gives the quotient graph Q, plus a root
    joined to each tiling's first piece; one depth-first search of Q gives
    each node's subtree as a preorder range and its low-link, the earliest
    node an edge from the subtree reaches. Removing a piece P leaves the
    subtrees of the children whose low-link does not climb above P, and the
    rest of P's tiling unless P is its root. When that is more than one
    component, the heaviest (or the set around it) is recorded too, with
    crossing equal to the Q-edges between it and P. Every recorded point
    dominates the true profile at its mass. The profile's ``cuts`` counts
    the recorded cuts.
    """
    graph = chain.graph
    if graph.box is None or graph.coords is None:
        raise DomainError("chain was not built from a lattice cluster")
    n = graph.box.n
    ks = list(k_values) if k_values is not None else list(range(1, n))
    for k in ks:
        if not 1 <= k < n:
            raise DomainError(f"window radius {k} outside [1, n)")
    cuts = [np.zeros((0, 3), dtype=np.int64)]
    for radii in _chunks(ks, [chain.m + graph.edges_local.shape[0]] * len(ks)):
        cuts.extend(_radius_cuts(chain, radii))
    cuts = np.concatenate(cuts)
    profile = ConductanceProfile.lower_envelope(cuts, chain.total_degree, "upper-bound")
    profile.cuts = cuts.shape[0]
    return profile


def sweep_cut(chain: Chain, spectral: SpectralResult | None = None) -> CutValue:
    """Best prefix cut of the second-eigenvector ordering (upper bound on phi).

    Prefix crossing counts come from a difference array over edge rank spans,
    so the full sweep is linear in edges. The winning prefix is re-evaluated
    exactly, then through reattachment surgery, which improves it only when
    its complement is disconnected; the tighter of the two cuts is returned.
    """
    spec = spectral if spectral is not None else spectral_gap(chain)
    order = sweep_ordering(chain, spec)
    rank = np.empty(chain.m, dtype=np.int64)
    rank[order] = np.arange(chain.m)
    edges = chain.graph.edges_local
    r_lo = np.minimum(rank[edges[:, 0]], rank[edges[:, 1]])
    r_hi = np.maximum(rank[edges[:, 0]], rank[edges[:, 1]])
    diff = (np.bincount(r_lo + 1, minlength=chain.m + 1)
            - np.bincount(r_hi + 1, minlength=chain.m + 1))
    crossing = np.cumsum(diff)[1:chain.m]  # prefix sizes 1..m-1
    degsum = np.cumsum(chain.degrees[order])[: chain.m - 1]
    total = chain.total_degree
    phi = crossing * total / (degsum * (total - degsum))
    j = int(np.argmin(phi))
    best = cut = set_conductance(chain, order[: j + 1])
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
