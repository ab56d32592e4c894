"""Geometric probes of a percolation configuration.

Two instruments, both pure functions of a bond configuration:

* first-passage distances on the planar dual, where a dual edge costs 1 when
  the primal edge it crosses is open and 0 otherwise (so dual geodesics trace
  cheap cut curves; traversal stays on interior faces, since routing through
  the merged outer face has no analogue off the finite box);
* a renormalized good-site field: a block site is good when its window holds
  an open cluster touching all faces that absorbs every component of
  non-trivial diameter.

Both run as whole-array passes. Dual distances read the dual edges off the
2n x 2n face grid, contract the weight-0 ones (one ``connected_components``
call) and then run one bidirectional level BFS over the quotient graph per
chunk of pairs: a visit bitmap per chunk makes each membership test one
gather, the side with the smaller frontier grows first, and each pair stops
where its two searches meet. The good-site windows of one block scale share
one contraction of the box: cuts at every x = -r or r+1 (mod block), with r
the window radius, split the covered range into cells, so each window is a
product of whole cells. One padded CSR ``connected_components`` call over
the whole cube labels the pieces of every cell, and the open edges between
cells become pairs of pieces. Each window is then the small graph of its
cells' pieces and the pairs among them, a batch of windows one
``connected_components`` call, and crossing and goodness are reductions
over its components. Window batches stay within ``_BATCH_ENTRIES`` entries,
and search bitmaps within 64 times as many bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .errors import DomainError, UnsupportedDimensionError
from .lattice import BoxSpec, build_box, concat_ranges
from .percolation import BondConfig, bernoulli_site_field, sample_bond_config

# Entries one batched call may allocate: the window graphs of a batch (their
# cells' pieces and pairs; a cell lies in about 2.5^d windows, so one graph of
# all windows would be that many times the contracted cube). A dual search's
# visit bitmap (pairs x classes bytes) may take 64 times this, 4 MB: a larger
# one added resident memory and saved no time at n=160.
_BATCH_ENTRIES = 2**16
# Faces an FPP pair keeps from the box boundary.
FPP_MARGIN = 5


class DualFppField:
    """0/1 edge weights on the interior dual lattice of a d=2 configuration.

    Weight(dual edge) = 1 iff the crossed primal edge is open. Faces joined by
    weight-0 edges are contracted into classes (one ``connected_components``
    call); the 0-1 shortest-path distance between two interior faces is then
    the unweighted BFS distance between their classes in the quotient graph
    of the weight-1 edges.
    """

    def __init__(self, config: BondConfig):
        if config.box.d != 2:
            raise UnsupportedDimensionError("dual first-passage needs d=2")
        n = config.box.n
        # face (fx, fy) is the unit square [fx, fx+1] x [fy, fy+1], at row
        # fx + n and column fy + n of the face grid; the step to (fx, fy+1)
        # crosses the axis-0 edge with tail (fx, fy+1), the step to (fx+1, fy)
        # the axis-1 edge with tail (fx+1, fy)
        lookup = build_box(config.box).edge_lookup.T.reshape(2, 2 * n + 1, 2 * n + 1)
        faces = np.arange(4 * n * n, dtype=np.int32).reshape(2 * n, 2 * n)
        steps = [(faces[:, :-1], faces[:, 1:], lookup[0, :-1, 1:-1]),
                 (faces[:-1], faces[1:], lookup[1, 1:-1, :-1])]
        u, v = (np.concatenate([step[k].ravel() for step in steps]) for k in range(2))
        paid = np.concatenate([config.open_mask[step[2]].ravel() for step in steps])
        free = ~paid
        num_classes, face_class = csgraph.connected_components(
            sparse.coo_matrix((np.ones(int(free.sum()), dtype=np.int8), (u[free], v[free])),
                              shape=(faces.size, faces.size)),
            directed=False,
        )
        self._face_class = face_class.reshape(faces.shape)
        cu, cv = face_class[u[paid]], face_class[v[paid]]
        cross = cu != cv
        cu, cv = cu[cross], cv[cross]
        # symmetric, so BFS runs directed without a transpose; tocsr merges
        # repeated edges, and only the pattern matters to an unweighted search
        ends = (np.concatenate([cu, cv]), np.concatenate([cv, cu]))
        self._quotient = sparse.coo_matrix(
            (np.ones(2 * cu.size, dtype=bool), ends), shape=(num_classes, num_classes)).tocsr()

    def distances(self, x_faces, y_faces) -> np.ndarray:
        """0-1 distances between paired faces, given as (P, 2) integer face coordinates.

        Faces in one class are at distance 0. The other pairs are sorted by
        L1 separation and solved in chunks whose visit bitmaps (pairs x
        classes bytes) stay within ``64 * _BATCH_ENTRIES``, each by one
        bidirectional level BFS on the quotient graph (see ``_meet``). Each
        pair stops where its two searches meet, and by its L1 separation at
        the latest: the staircase path between two interior faces stays on
        interior faces and costs at most their L1 distance.
        """
        n = self._face_class.shape[0] // 2
        coords = []
        for faces in (x_faces, y_faces):
            raw = np.asarray(faces).reshape(-1, 2)
            with np.errstate(invalid="ignore"):  # NaN and infinities fail the test below
                face = raw.astype(np.int64)
            if (face != raw).any():
                raise DomainError("face coordinates must be integers")
            if ((face < -n) | (face >= n)).any():
                raise DomainError("face coordinate outside the box")
            coords.append(face)
        x, y = coords
        src = self._face_class[x[:, 0] + n, x[:, 1] + n]
        dst = self._face_class[y[:, 0] + n, y[:, 1] + n]
        bound = np.abs(x - y).sum(axis=1)
        out = np.zeros(bound.size, dtype=np.int64)  # pairs inside one class stay 0
        todo = np.nonzero(src != dst)[0]
        todo = todo[np.argsort(bound[todo], kind="stable")]
        per_chunk = max(1, 64 * _BATCH_ENTRIES // max(1, self._quotient.shape[0]))
        for start in range(0, todo.size, per_chunk):
            chunk = todo[start:start + per_chunk]
            out[chunk] = self._meet(src[chunk], dst[chunk], bound[chunk])
        return out

    def _meet(self, src, dst, bound) -> np.ndarray:
        """Quotient distances of class pairs with src != dst, all searched at once.

        Search keys are int32 ``pair * classes + class``, and one uint8
        bitmap over every key marks what each side has seen (bit 1 the
        search from src, bit 2 the one from dst), so each membership test
        is one gather. The side with the smaller frontier grows one layer,
        dropping the keys it has seen, and a pair settles at la + lb the
        first time a new layer meets what the other side has seen. That is
        exact: while the seen sets are disjoint la + lb < D (a node on a
        shortest path la steps from a would lie within lb of b), and a new
        node la steps from a and within lb of b gives D <= la + lb. Settled
        pairs leave both frontiers. A pair still open at its L1 bound, or
        whose frontier empties, is disconnected.
        """
        classes = self._quotient.shape[0]
        indptr, indices = self._quotient.indptr, self._quotient.indices
        degree = np.diff(indptr)
        num = src.size
        base = np.arange(num, dtype=np.int32) * classes  # chunks keep num * classes < 2**31
        seen = np.zeros(num * classes, dtype=np.uint8)
        fronts = [base + src, base + dst]
        seen[fronts[0]] = 1
        seen[fronts[1]] = 2
        out = np.full(num, -1, dtype=np.int64)
        depth = 0  # la + lb
        while True:
            side = int(fronts[1].size < fronts[0].size)
            cur, bit = fronts[side], 1 << side
            node = cur % classes
            deg = degree[node]
            nxt = np.repeat(cur - node, deg) + indices[concat_ranges(indptr[node], deg)]
            nxt = np.sort(nxt[(seen[nxt] & bit) == 0])
            nxt = nxt[np.diff(nxt, prepend=-1) != 0]  # keys are >= 0
            mark = seen[nxt]
            seen[nxt] = mark | bit
            depth += 1
            owner = nxt // classes
            met = np.zeros(num, dtype=bool)
            met[owner[mark != 0]] = True
            out[met] = depth
            live = np.zeros(num, dtype=bool)
            live[owner] = True
            waiting = out < 0
            if (waiting & (~live | (depth >= bound))).any():
                raise DomainError("dual vertices are not connected")  # unreachable on a box
            if not waiting.any():
                return out
            fronts[side] = nxt
            if met.any():
                fronts = [keys[~met[keys // classes]] for keys in fronts]


@dataclass(frozen=True)
class FppRegression:
    slope: float
    intercept: float
    r_squared: float
    n_pairs: int
    pairs: tuple  # (l1, distance) for every sampled pair


def check_fpp_request(n_pairs: int, l1_range) -> None:
    """Reject a pair count or L1 range that no sample can meet."""
    lo, hi = l1_range
    if not 0 <= lo < hi:  # a line needs two separations
        raise DomainError(f"L1 range needs 0 <= lo < hi, got {lo},{hi}")
    if n_pairs < 1:
        raise DomainError(f"need at least one FPP pair, got {n_pairs}")


def check_block_scales(blocks) -> None:
    """Reject an empty or repeating list of renorm block scales, or a scale too small.

    A repeated scale would write its density rows twice per instance, and a
    sweep's resume reads a repeated row as a torn rerun.
    """
    if not blocks:
        raise DomainError("renorm_blocks must be nonempty")
    if len(set(blocks)) != len(blocks):
        raise DomainError(f"renorm_blocks repeats: {list(blocks)}")
    if any(block < MIN_BLOCK_SCALE for block in blocks):
        raise DomainError(f"renorm_blocks must be at least {MIN_BLOCK_SCALE}, "
                          f"got {list(blocks)}")


def check_windows_fit(n: int, blocks) -> None:
    """Reject renorm block scales whose window does not fit in the box of radius n.

    A window has radius floor(5*block/4), and the site at the origin is the
    last to keep its whole window: a wider window classifies no site, so the
    scale has no density.
    """
    wide = [block for block in blocks if _window_radius(block) > n]
    if wide:
        raise DomainError(f"renorm_blocks {wide} have windows of radius "
                          f"floor(5*block/4) wider than the box radius {n}")


def check_fpp_fits(n: int, l1_hi: int, margin: int = FPP_MARGIN) -> None:
    """Reject a box of radius n whose faces ``margin`` steps inside cannot lie l1_hi apart."""
    span = 2 * n - 1 - 2 * margin  # per axis, between the extreme admissible faces
    if span <= 0:
        raise DomainError("box too small for the requested boundary margin")
    if l1_hi > 2 * span:
        raise DomainError("L1 range exceeds the interior span")


def fpp_regression(config: BondConfig, n_pairs: int = 300,
                   l1_range: tuple = (10, 60), margin: int = FPP_MARGIN,
                   rng_seed: int = 0) -> FppRegression:
    """Linear growth fit of dual FPP distance against L1 separation.

    Pairs are drawn from faces at least ``margin`` steps from the boundary,
    stratified over 11 L1 separations spanning ``l1_range``. The
    line is fitted to the per-separation mean distances: single-pair
    distances fluctuate on the scale of a few edges independently of the
    separation, so averaging within each separation isolates the growth rate.
    All sampled (l1, distance) pairs are retained on the result.
    """
    from .fitting import fit_linear

    check_fpp_request(n_pairs, l1_range)
    n = config.box.n
    if config.box.d == 2:  # other dimensions fail in the field, which names the cause
        check_fpp_fits(n, l1_range[1], margin)
    field = DualFppField(config)
    lo, hi = -n + margin, n - 1 - margin
    rng = np.random.default_rng(rng_seed)
    targets = np.unique(np.linspace(l1_range[0], l1_range[1], 11).round()
                        .astype(np.int64))
    per = max(1, n_pairs // len(targets))
    faces = []  # (a, b) for every admissible pair, stratum by stratum
    for t in targets:
        drawn = 0
        attempts = 0
        while drawn < per:
            attempts += 1
            if attempts > 10_000 * per:
                raise DomainError("could not sample enough admissible face pairs")
            ax, ay = rng.integers(lo, hi + 1, size=2).tolist()
            dx = int(rng.integers(-t, t + 1))
            dy = int(t) - abs(dx)
            if rng.integers(2):
                dy = -dy
            bx, by = ax + dx, ay + dy
            if not (lo <= bx <= hi and lo <= by <= hi):
                continue
            faces.append(((ax, ay), (bx, by)))
            drawn += 1
    a_faces, b_faces = np.array(faces).transpose(1, 0, 2)
    dist = field.distances(a_faces, b_faces).reshape(len(targets), per)
    means = dist.mean(axis=1)
    pairs = tuple((int(t), int(d)) for t, d in zip(np.repeat(targets, per), dist.ravel()))
    fit = fit_linear(targets.astype(float), means)
    return FppRegression(slope=fit.slope, intercept=fit.intercept,
                         r_squared=fit.r_squared, n_pairs=len(pairs), pairs=pairs)


# ---------------------------------------------------------------------------
# renormalized good-site field

MIN_BLOCK_SCALE = 8


def _window_radius(block: int) -> int:
    return (5 * block) // 4


def block_sites(box: BoxSpec, block: int) -> np.ndarray:
    """All sites of (block Z)^d inside the box, shape (S, d)."""
    n = box.n
    per_axis = np.arange(-(n // block) * block, n + 1, block, dtype=np.int64)
    grids = np.meshgrid(*([per_axis] * box.d), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


@dataclass
class GoodSiteField:
    """Good/bad classification of interior block sites for one configuration.

    ``classified`` marks sites whose full window fits in the box; boundary
    sites stay unclassified.
    """

    block: int
    box: BoxSpec
    p: float
    seed: int
    sites: np.ndarray
    classified: np.ndarray
    crossing_cluster: np.ndarray  # condition 1 per classified site
    good: np.ndarray

    @property
    def num_classified(self) -> int:
        return int(self.classified.sum())

    def density(self) -> float:
        k = self.num_classified
        if k == 0:
            raise DomainError("no interior sites at this block scale")
        return float(self.good[self.classified].sum()) / k


@dataclass(frozen=True)
class _Pieces:
    """Open pieces of one block scale's cells and the open edges between them.

    Coordinates are offsets into the covered cube, and cells are numbered
    row-major over their per-axis indices. A piece is open when an open edge
    joins it to a piece of a neighbouring cell. Open pieces are numbered
    cell by cell: cell c holds pieces ``start[c]`` to ``start[c + 1] - 1``.
    Each pair (pu, pv) joins a piece to one in the next cell along ``axis``;
    pairs run in (pu, axis, pv) order, so the pairs of cell c's pieces start
    at ``pair_start[c]``.
    """

    start: np.ndarray
    lo: np.ndarray  # (d, P) bounding box of each piece
    hi: np.ndarray
    pair_start: np.ndarray
    pu: np.ndarray
    pv: np.ndarray
    axis: np.ndarray
    stray: np.ndarray  # per cell: a closed piece of L-infinity diameter above block / 10


def _contract(forward, first, block: int) -> _Pieces:
    """Pieces of every cell of the covered cube, with the pairs of open pieces.

    ``forward[a]`` holds the open flags of the cube's forward axis-``a``
    edges, and ``first[x]`` tells whether offset x starts a cell
    (``first[side]`` is set: the cube ends there). Cells share no edge, so
    the whole cube is one padded CSR graph, whose node slots keep the open
    edges inside a cell, and one ``connected_components`` call. The open
    edges between cells become piece pairs.
    A closed piece is its own component in every window, so it only marks
    its cell when it is large enough to be stray.
    """
    d, side = forward.shape[0], forward.shape[1]
    leaves = first[1:]  # the forward edge at offset x leaves its cell
    cell_of = np.cumsum(first[:side]) - 1
    num_cells = int(cell_of[-1]) + 1
    cell_stride = num_cells ** np.arange(d - 1, -1, -1)
    num = side**d
    node = np.arange(num, dtype=np.int32)  # BoxSpec caps the box below 2**31 vertices
    indices = np.empty((num, d), dtype=np.int32)
    cuts = [leaves.reshape((-1,) + (1,) * (d - 1 - a)) for a in range(d)]
    for a in range(d):
        indices[:, a] = np.where((forward[a] & ~cuts[a]).ravel(), node + side ** (d - 1 - a), node)
    # the labelling reads no weights: one broadcast 1.0 stands for every entry
    ones = np.broadcast_to(np.float64(1.0), indices.size)
    graph = sparse.csr_matrix(
        (ones, indices.ravel(), np.arange(0, num * d + 1, d, dtype=np.int32)), shape=(num, num))
    ncomp, labels = csgraph.connected_components(graph, directed=False)
    coords = np.indices((side,) * d, dtype=np.int32).reshape(d, num)
    lo = np.full((d, ncomp), side, dtype=np.int32)  # ufunc.at is fast on matching dtypes only
    hi = np.zeros((d, ncomp), dtype=np.int32)
    for a in range(d):
        np.minimum.at(lo[a], labels, coords[a])
        np.maximum.at(hi[a], labels, coords[a])

    raw = labels.reshape((side,) * d)
    us, vs, axes = [], [], []
    for a in range(d):
        tail = (slice(None),) * a + (slice(None, -1),)
        head = (slice(None),) * a + (slice(1, None),)
        crossing = forward[a][tail] & cuts[a][:-1]
        us.append(raw[tail][crossing])
        vs.append(raw[head][crossing])
        axes.append(np.full(vs[-1].size, a, dtype=np.int64))

    u, v, axis = np.concatenate(us), np.concatenate(vs), np.concatenate(axes)
    opened = np.zeros(ncomp, dtype=bool)
    opened[u] = True
    opened[v] = True
    cell = (cell_of[lo] * cell_stride[:, None]).sum(axis=0)
    stray = np.zeros(num_cells**d, dtype=bool)
    stray[cell[~opened & (10 * (hi - lo).max(axis=0) > block)]] = True
    keep = np.flatnonzero(opened)
    keep = keep[np.argsort(cell[keep], kind="stable")]
    num_open = keep.size
    renumber = np.empty(ncomp, dtype=np.int64)
    renumber[keep] = np.arange(num_open)
    start = np.searchsorted(cell[keep], np.arange(num_cells**d + 1))
    key = np.sort((renumber[u] * d + axis) * num_open + renumber[v])
    key = key[np.diff(key, prepend=-1) != 0]  # keys are >= 0; np.unique hashes, far slower
    pu, axis = np.divmod(key // num_open, d)
    return _Pieces(start=start, lo=lo[:, keep], hi=hi[:, keep],
                   pair_start=np.searchsorted(pu, start), pu=pu, pv=key % num_open,
                   axis=axis, stray=stray)


def _classify_windows(pieces: _Pieces, cells, corners, q: int, side: int, block: int):
    """Condition 1 and goodness for one batch of full windows.

    Window j covers the cells ``cells[j]`` (row-major over its q^d cells)
    and has lowest corner ``corners[j]`` in the cube. Its graph holds the
    open pieces of those cells and the pairs among them: window j owns a
    run of nodes, one run per cell, and the pairs of each cell, minus those
    leading out of the window, give CSR rows in node order. One
    ``connected_components`` call labels the batch; each component's face
    contact and diameter follow from the union of its pieces' boxes.
    """
    num, q_cells = cells.shape
    d = corners.shape[1]
    slot = np.indices((q,) * d).reshape(d, -1)
    outward = slot == q - 1  # (d, q^d): the slot's next cell along each axis leaves the window
    step = q ** np.arange(d - 1, -1, -1)
    cell = cells.ravel()
    count = pieces.start[cell + 1] - pieces.start[cell]
    head = np.cumsum(count) - count
    nodes = concat_ranges(pieces.start[cell], count)
    n_pairs = pieces.pair_start[cell + 1] - pieces.pair_start[cell]
    pair = concat_ranges(pieces.pair_start[cell], n_pairs)
    at = np.repeat(np.arange(cell.size), n_pairs)
    axis = pieces.axis[pair]
    inside = ~outward[axis, at % q_cells]
    pair, at, axis = pair[inside], at[inside], axis[inside]
    to = at + step[axis]
    u = pieces.pu[pair] - pieces.start[cell[at]] + head[at]
    v = pieces.pv[pair] - pieces.start[cell[to]] + head[to]
    total = nodes.size
    indptr = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(np.bincount(u, minlength=total), out=indptr[1:])
    graph = sparse.csr_matrix((np.ones(u.size), v, indptr), shape=(total, total))
    ncomp, labels = csgraph.connected_components(graph, directed=False)

    owner = np.zeros(ncomp, dtype=np.int64)
    owner[labels] = np.repeat(np.arange(num), count.reshape(num, q_cells).sum(axis=1))
    spanning = np.ones(ncomp, dtype=bool)
    diam = np.zeros(ncomp, dtype=np.int64)
    for a in range(d):
        lo = np.full(ncomp, np.iinfo(np.int32).max, dtype=np.int32)
        hi = np.zeros(ncomp, dtype=np.int32)
        np.minimum.at(lo, labels, pieces.lo[a, nodes])
        np.maximum.at(hi, labels, pieces.hi[a, nodes])
        spanning &= (lo == corners[owner, a]) & (hi == corners[owner, a] + side - 1)
        diam = np.maximum(diam, hi - lo)
    n_spanning = np.bincount(owner[spanning], minlength=num)
    stray = pieces.stray[cells].any(axis=1)
    stray[owner[~spanning & (10 * diam > block)]] = True

    crossing = n_spanning >= 1
    good = (n_spanning == 1) & ~stray
    return crossing, good


def classify_good_vertices(config: BondConfig, block: int) -> GoodSiteField:
    """Classify block sites by the crossing-cluster / absorbed-components rule.

    A site is good when some open cluster of its window touches all 2d window
    faces and every open component of L-infinity diameter above block/10
    intersects (hence equals) that cluster. Thresholds use exact rational
    comparisons; the window radius floor(5*block/4) needs block >= 8 to stay
    meaningful.
    """
    if block < MIN_BLOCK_SCALE:
        raise DomainError(f"block scale must be at least {MIN_BLOCK_SCALE}")
    box = build_box(config.box)
    n, d = config.box.n, config.box.d
    radius = _window_radius(block)
    side = 2 * radius + 1
    sites = block_sites(config.box, block)
    num_sites = sites.shape[0]
    classified = (np.abs(sites) + radius <= n).all(axis=1)
    crossing = np.zeros(num_sites, dtype=bool)
    good = np.zeros(num_sites, dtype=bool)

    todo = np.nonzero(classified)[0]
    field = GoodSiteField(
        block=block, box=config.box, p=config.p, seed=config.seed,
        sites=sites, classified=classified, crossing_cluster=crossing, good=good,
    )
    if todo.size == 0:  # the box is smaller than one window
        return field
    # the windows cover the cube [start, start + span)^d; cells start at every
    # offset congruent to a window's low face or to one past its high face
    corners = sites[todo] - radius
    start = int(corners.min())
    corners -= start
    span = int(corners.max()) + side
    offset = np.arange(span + 1)
    first = (offset % block == 0) | ((offset - side) % block == 0)
    first[span] = True
    lookup = box.edge_lookup.T.reshape((d,) + (config.box.side,) * d)
    cube = (slice(None),) + (slice(start + n, start + n + span),) * d
    forward = config.open_mask[lookup[cube]] & (lookup[cube] >= 0)
    pieces = _contract(forward, first, block)

    cell_of = np.cumsum(first[:span]) - 1
    num_cells = int(cell_of[-1]) + 1
    q = int(cell_of[side - 1]) + 1  # cells per window and axis, the same for every window
    slot = np.indices((q,) * d).reshape(d, 1, -1)
    cells = ((cell_of[corners].T[:, :, None] + slot)
             * (num_cells ** np.arange(d - 1, -1, -1))[:, None, None]).sum(axis=0)
    # a window's entries: the open pieces and the pairs of its cells
    entries = (pieces.start[cells + 1] - pieces.start[cells]
               + pieces.pair_start[cells + 1] - pieces.pair_start[cells]).sum(axis=1).cumsum()
    done = 0
    while done < todo.size:
        before = entries[done - 1] if done else 0
        stop = max(done + 1, int(np.searchsorted(entries, before + _BATCH_ENTRIES, side="right")))
        batch = slice(done, stop)
        crossing[todo[batch]], good[todo[batch]] = _classify_windows(
            pieces, cells[batch], corners[batch], q, side, block)
        done = stop
    return field


@dataclass(frozen=True)
class DensityRow:
    p: float
    block: int
    seed: int
    n_classified: int
    n_good: int
    density: float
    site_reference_density: float


def good_density_curve(d: int, n: int, p: float, blocks, seeds) -> list:
    """Good-site density per (block, seed), with site-percolation references.

    For each block scale the reference column carries the empirical density of
    a Bernoulli site field drawn on the same block grid with parameter equal
    to the mean measured good density, for side-by-side comparison with the
    dominating site-percolation picture. A block scale whose window is wider
    than the box is refused: it would classify no site.
    """
    check_windows_fit(n, blocks)
    box = BoxSpec(d, n)
    configs = [(seed, sample_bond_config(box, p, seed)) for seed in seeds]
    out = []
    for block in blocks:
        per_seed = []
        for seed, config in configs:
            field = classify_good_vertices(config, block)
            k = field.num_classified
            g = int(field.good[field.classified].sum())
            per_seed.append((seed, k, g))
        mean_density = (
            sum(g for _, k, g in per_seed) / max(1, sum(k for _, k, _ in per_seed))
        )
        for seed, k, g in per_seed:
            ref = float(bernoulli_site_field(seed, k, mean_density).mean())
            out.append(DensityRow(
                p=p, block=block, seed=seed, n_classified=k, n_good=g,
                density=g / k, site_reference_density=ref,
            ))
    return out


def density_rows_to_csv(rows, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("p,block,seed,n_classified,n_good,density,site_reference_density\n")
        for r in rows:
            fh.write(f"{r.p!r},{r.block},{r.seed},{r.n_classified},{r.n_good},"
                     f"{r.density!r},{r.site_reference_density!r}\n")
