from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse import csgraph

import percmix as pm
import percmix.geometry as geometry_module
from percmix.errors import DomainError, UnsupportedDimensionError
from percmix.fitting import fit_linear
from percmix.geometry import (
    DualFppField,
    FppRegression,
    GoodSiteField,
    block_sites,
    classify_good_vertices,
    density_rows_to_csv,
    good_density_curve,
)
from percmix.lattice import BoxSpec, build_box, dual_lattice
from helpers import box_adjacency, dual_distance, window_vertex_ids


# ---------------------------------------------------------------------------
# oracles: the pure-Python routes the whole-graph code replaced

class ReferenceDualFpp:
    """0-1 shortest paths over interior faces by deque BFS."""

    def __init__(self, config):
        dual = dual_lattice(build_box(config.box))
        self.dual = dual
        u, v = dual.dual_u, dual.dual_v
        interior = (u != dual.outer_face) & (v != dual.outer_face)
        uu, vv = u[interior], v[interior]
        ww = config.open_mask[interior].astype(np.int64)
        size = dual.num_inner_faces
        g = sparse.coo_matrix((np.arange(uu.size) + 1, (uu, vv)), shape=(size, size))
        g = (g + g.T).tocsr()
        self.indptr, self.indices = g.indptr, g.indices
        self.weights = ww[(g.data - 1)]
        self.num_faces = size

    def distance(self, x_face, y_face):
        src = int(self.dual.coord_to_face(np.asarray(x_face)))
        dst = int(self.dual.coord_to_face(np.asarray(y_face)))
        dist = np.full(self.num_faces, -1, dtype=np.int64)
        dist[src] = 0
        dq = deque([src])
        while dq:
            node = dq.popleft()
            if node == dst:
                return int(dist[node])
            for k in range(self.indptr[node], self.indptr[node + 1]):
                nb, w = self.indices[k], self.weights[k]
                nd = dist[node] + w
                if dist[nb] == -1 or nd < dist[nb]:
                    dist[nb] = nd
                    if w == 0:
                        dq.appendleft(nb)
                    else:
                        dq.append(nb)
        raise AssertionError("interior faces are connected")


def batched_dijkstra_distances(field, x_faces, y_faces):
    """The batched, L1-limited csgraph route the bidirectional search replaced."""
    x = np.asarray(x_faces, dtype=np.int64).reshape(-1, 2)
    y = np.asarray(y_faces, dtype=np.int64).reshape(-1, 2)
    src = field._face_class[field.dual.coord_to_face(x)]
    dst = field._face_class[field.dual.coord_to_face(y)]
    bound = np.abs(x - y).sum(axis=1)
    order = np.argsort(bound, kind="stable")
    per_batch = max(1, geometry_module._BATCH_ENTRIES // max(1, field._quotient.shape[0]))
    out = np.empty(bound.size, dtype=np.int64)
    for start in range(0, order.size, per_batch):
        chunk = order[start:start + per_batch]
        sources, row = np.unique(src[chunk], return_inverse=True)
        dist = csgraph.dijkstra(field._quotient, indices=sources, unweighted=True,
                                limit=float(bound[chunk].max()))[row, dst[chunk]]
        if not np.isfinite(dist).all():
            raise DomainError("dual vertices are not connected")  # unreachable on a box
        out[chunk] = dist.astype(np.int64)
    return out


def reference_fpp_regression(config, n_pairs=300, l1_range=(10, 60), margin=5,
                             rng_seed=0):
    """The per-pair sampling-and-solving loop, one BFS per drawn pair."""
    field = ReferenceDualFpp(config)
    n = config.box.n
    lo, hi = -n + margin, n - 1 - margin
    rng = np.random.default_rng(rng_seed)
    targets = np.unique(np.linspace(l1_range[0], l1_range[1], 11).round()
                        .astype(np.int64))
    per = max(1, n_pairs // len(targets))
    pairs, means = [], []
    for t in targets:
        acc = []
        while len(acc) < per:
            a = rng.integers(lo, hi + 1, size=2)
            dx = int(rng.integers(-t, t + 1))
            dy = t - abs(dx)
            if rng.integers(2):
                dy = -dy
            b = a + np.array([dx, dy])
            if not (lo <= b[0] <= hi and lo <= b[1] <= hi):
                continue
            d = field.distance(a, b)
            acc.append(d)
            pairs.append((int(t), int(d)))
        means.append(float(np.mean(acc)))
    fit = fit_linear(targets.astype(float), np.asarray(means))
    return FppRegression(slope=fit.slope, intercept=fit.intercept,
                         r_squared=fit.r_squared, n_pairs=len(pairs),
                         pairs=tuple(pairs))


def reference_classify_good_vertices(config, block):
    """The per-site loop: one sparse window graph and label pass per site."""
    box = build_box(config.box)
    n, d = config.box.n, config.box.d
    radius = (5 * block) // 4
    sites = block_sites(config.box, block)
    classified = (np.abs(sites) + radius <= n).all(axis=1)
    crossing = np.zeros(sites.shape[0], dtype=bool)
    good = np.zeros(sites.shape[0], dtype=bool)
    side = 2 * radius + 1
    for si in np.nonzero(classified)[0]:
        grid = window_vertex_ids(box, sites[si] - radius, sites[si] + radius)
        flat = grid.ravel()
        local = np.arange(flat.size, dtype=np.int64).reshape(grid.shape)
        rows, cols = [], []
        for a in range(d):
            tail = [slice(None)] * d
            tail[a] = slice(0, side - 1)
            head = [slice(None)] * d
            head[a] = slice(1, side)
            keep = config.open_mask[box.edge_lookup[grid[tuple(tail)].ravel(), a]]
            rows.append(local[tuple(tail)].ravel()[keep])
            cols.append(local[tuple(head)].ravel()[keep])
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        adj = sparse.coo_matrix((np.ones(rows.size, dtype=np.int8), (rows, cols)),
                                shape=(flat.size, flat.size))
        ncomp, labels = csgraph.connected_components((adj + adj.T).tocsr(), directed=False)
        shaped = labels.reshape(grid.shape)
        touches = np.zeros((ncomp, 2 * d), dtype=bool)
        for a in range(d):
            lo_face = [slice(None)] * d
            lo_face[a] = 0
            hi_face = [slice(None)] * d
            hi_face[a] = side - 1
            touches[np.unique(shaped[tuple(lo_face)]), 2 * a] = True
            touches[np.unique(shaped[tuple(hi_face)]), 2 * a + 1] = True
        crossing_labels = np.nonzero(touches.all(axis=1))[0]
        coords_local = np.stack(
            np.meshgrid(*([np.arange(side)] * d), indexing="ij"), axis=-1
        ).reshape(-1, d)
        diam = np.zeros(ncomp, dtype=np.int64)
        for a in range(d):
            cmax = np.full(ncomp, -1, dtype=np.int64)
            cmin = np.full(ncomp, side, dtype=np.int64)
            np.maximum.at(cmax, labels, coords_local[:, a])
            np.minimum.at(cmin, labels, coords_local[:, a])
            diam = np.maximum(diam, cmax - cmin)
        big = np.nonzero(10 * diam > block)[0]
        if crossing_labels.size >= 1:
            crossing[si] = True
            if crossing_labels.size == 1:
                star = crossing_labels[0]
                if np.all(np.isin(big, [star])):
                    good[si] = True
    return GoodSiteField(
        block=block, box=config.box, p=config.p, seed=config.seed, sites=sites,
        classified=classified, crossing_cluster=crossing, good=good,
    )


def _batched_windows(flags, block):
    """Condition 1 and goodness for one batch of full windows.

    ``flags[a, j]`` holds the open flags of the forward axis-``a`` edges of
    window j's vertices, on the window grid (a copy, whose last layer along
    each axis is cleared in place). The windows form one padded
    CSR graph (window j owns nodes j*size .. (j+1)*size - 1): every node has
    d slots, the forward neighbour along each axis when that edge is open and
    the node itself otherwise, so one ``connected_components`` call labels
    every window with no edge list to compact or sort.
    """
    d, b, side = flags.shape[0], flags.shape[1], flags.shape[2]
    size = side**d
    total = b * size
    node = np.arange(total, dtype=np.int32)  # a batch holds far below 2**31 slots
    indices = np.empty((total, d), dtype=np.int32)
    for a in range(d):
        # cut the edges that leave the window first: scipy does not range-check
        # CSR indices, and a column past the last node is out of bounds
        flags[(a, slice(None)) + (slice(None),) * a + (-1,)] = False
        indices[:, a] = np.where(flags[a].ravel(), node + side ** (d - 1 - a), node)
    graph = sparse.csr_matrix(
        (np.ones(total * d), indices.ravel(), np.arange(0, total * d + 1, d, dtype=np.int32)),
        shape=(total, total))
    ncomp, labels = csgraph.connected_components(graph, directed=False)
    by_window = labels.reshape((b,) + (side,) * d)

    spanning = np.ones(ncomp, dtype=bool)
    for a in range(d):
        for end in (0, side - 1):
            hit = np.zeros(ncomp, dtype=bool)
            hit[by_window[(slice(None),) * (1 + a) + (end,)]] = True
            spanning &= hit
    # every spanning piece touches the low axis-0 face, which names its window
    owner = np.zeros(ncomp, dtype=np.int64)
    owner[by_window[:, 0]] = np.arange(b).reshape((b,) + (1,) * (d - 1))
    n_spanning = np.bincount(owner[spanning], minlength=b)

    # a piece of L-infinity diameter D has at least D + 1 nodes, so only the
    # non-spanning pieces above block // 10 + 1 nodes can be stray
    candidate = ~spanning & (np.bincount(labels, minlength=ncomp) > block // 10 + 1)
    nodes = np.flatnonzero(candidate[labels])
    nodes = nodes[np.argsort(labels[nodes])]  # each candidate piece one segment
    starts = np.flatnonzero(np.diff(labels[nodes], prepend=-1))
    diam = np.zeros(starts.size, dtype=np.int64)
    for a in range(d):
        coord = nodes // side ** (d - 1 - a) % side
        diam = np.maximum(diam, np.maximum.reduceat(coord, starts)
                          - np.minimum.reduceat(coord, starts))
    stray = np.zeros(b, dtype=bool)
    stray[nodes[starts[10 * diam > block]] // size] = True

    crossing = n_spanning >= 1
    good = (n_spanning == 1) & ~stray
    return crossing, good


def batched_classify_good_vertices(config, block):
    """The window-batch route: every window labelled from its own vertices.

    Windows are slices of one grid of forward-edge flags; a batch of them is
    one gather, one padded CSR graph and one ``connected_components`` call.
    """
    box = build_box(config.box)
    n, d = config.box.n, config.box.d
    radius = (5 * block) // 4
    side = 2 * radius + 1
    sites = block_sites(config.box, block)
    classified = (np.abs(sites) + radius <= n).all(axis=1)
    crossing = np.zeros(sites.shape[0], dtype=bool)
    good = np.zeros(sites.shape[0], dtype=bool)
    todo = np.nonzero(classified)[0]
    if todo.size:
        corners = sites[todo] - radius
        lookup = box.edge_lookup.T.reshape((d,) + (config.box.side,) * d)
        forward = config.open_mask[lookup] & (lookup >= 0)
        windows = np.lib.stride_tricks.sliding_window_view(
            forward, (side,) * d, axis=tuple(range(1, d + 1)))
        per_batch = max(1, geometry_module._BATCH_ENTRIES // side**d)
        for start in range(0, todo.size, per_batch):
            batch = slice(start, start + per_batch)
            idx = todo[batch]
            flags = windows[(slice(None),) + tuple((corners[batch] + n).T)]
            crossing[idx], good[idx] = _batched_windows(flags, block)
    return GoodSiteField(
        block=block, box=config.box, p=config.p, seed=config.seed, sites=sites,
        classified=classified, crossing_cluster=crossing, good=good,
    )


def coarse_grain(box, vertex_ids, block):
    """Block-lattice image of a vertex set by window-occupancy thresholding.

    A site v of (block Z)^d inside the box enters the image when its window
    (radius floor(5*block/4), truncated at the box) holds at least block/10
    vertices of the set; the count comparison 10*count >= block is exact.
    Returns site coordinates, shape (S', d).
    """
    graph = build_box(box)
    vertex_ids = np.asarray(vertex_ids, dtype=np.int64)
    sites = block_sites(box, block)
    if vertex_ids.size == 0:
        return sites[:0]
    coords = graph.vertex_coords(vertex_ids)
    radius = (5 * block) // 4
    keep = []
    for i in range(sites.shape[0]):
        count = int((np.abs(coords - sites[i]) <= radius).all(axis=1).sum())
        if 10 * count >= block:
            keep.append(i)
    return sites[keep]


def sites_connected(site_coords, block):
    """Connectivity of a site set under nearest-neighbour block adjacency."""
    s = np.asarray(site_coords, dtype=np.int64)
    if s.shape[0] == 0:
        raise DomainError("empty site set")
    if s.shape[0] == 1:
        return True
    index = {tuple(row): i for i, row in enumerate(s)}
    seen = {0}
    stack = [0]
    d = s.shape[1]
    while stack:
        i = stack.pop()
        for a in range(d):
            for sign in (-1, 1):
                nb = s[i].copy()
                nb[a] += sign * block
                j = index.get(tuple(nb))
                if j is not None and j not in seen:
                    seen.add(j)
                    stack.append(j)
    return len(seen) == s.shape[0]


def assert_fields_equal(fast, slow):
    np.testing.assert_array_equal(fast.sites, slow.sites)
    for name in ("classified", "crossing_cluster", "good"):
        np.testing.assert_array_equal(getattr(fast, name), getattr(slow, name), err_msg=name)


# p = 0 (every face free) and p = 1 (distance = L1) always come up
probabilities = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))


def test_fpp_all_closed_is_free():
    field = DualFppField(pm.sample_bond_config(BoxSpec(2, 6), 0.0, 0))
    assert dual_distance(field, (-4, -4), (5, 5)) == 0
    assert dual_distance(field, (0, 0), (0, 0)) == 0


def test_fpp_full_lattice_is_l1():
    field = DualFppField(pm.sample_bond_config(BoxSpec(2, 6), 1.0, 0))
    rng = np.random.default_rng(5)
    for _ in range(25):
        a = rng.integers(-5, 5, size=2)
        b = rng.integers(-5, 5, size=2)
        assert dual_distance(field, a, b) == int(np.abs(a - b).sum())


def test_fpp_requires_dimension_two():
    with pytest.raises(UnsupportedDimensionError):
        DualFppField(pm.sample_bond_config(BoxSpec(3, 2), 0.5, 0))


def test_fpp_pseudometric_on_triples():
    field = DualFppField(pm.sample_bond_config(BoxSpec(2, 8), 0.7, 11))
    rng = np.random.default_rng(0)
    for _ in range(20):
        x, y, z = (rng.integers(-7, 7, size=2) for _ in range(3))
        dxy = dual_distance(field, x, y)
        assert dxy == dual_distance(field, y, x)
        assert dxy <= dual_distance(field, x, z) + dual_distance(field, z, y)
        assert dxy <= int(np.abs(x - y).sum())  # weights are at most one


def test_fpp_regression_positive_slope():
    config = pm.sample_bond_config(BoxSpec(2, 32), 0.7, 0)
    reg = pm.fpp_regression(config, n_pairs=150, rng_seed=0)
    assert reg.slope > 0
    assert reg.r_squared > 0.9
    assert reg.n_pairs >= 140
    assert all(d <= l1 for l1, d in reg.pairs)


def test_fpp_regression_p_one_control():
    config = pm.sample_bond_config(BoxSpec(2, 16), 1.0, 0)
    reg = pm.fpp_regression(config, n_pairs=60, l1_range=(4, 16), rng_seed=1)
    assert all(d == l1 for l1, d in reg.pairs)
    assert reg.slope == pytest.approx(1.0)
    assert reg.intercept == pytest.approx(0.0, abs=1e-9)
    assert reg.r_squared == pytest.approx(1.0)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 8), p=probabilities, seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_fpp_distance_matches_zero_one_bfs(n, p, seed, data):
    config = pm.sample_bond_config(BoxSpec(2, n), p, seed)
    face = st.tuples(st.integers(-n, n - 1), st.integers(-n, n - 1))
    pairs = data.draw(st.lists(st.tuples(face, face), min_size=1, max_size=12),
                      label="pairs")
    field = DualFppField(config)
    oracle = ReferenceDualFpp(config)
    expected = [oracle.distance(x, y) for x, y in pairs]
    assert [dual_distance(field, x, y) for x, y in pairs] == expected
    xs, ys = zip(*pairs)
    assert field.distances(xs, ys).tolist() == expected
    l1 = [abs(x[0] - y[0]) + abs(x[1] - y[1]) for x, y in pairs]
    if p == 0.0:
        assert expected == [0] * len(pairs)
    if p == 1.0:
        assert expected == l1


@settings(max_examples=40, deadline=None)
@given(n=st.integers(4, 10), p=probabilities, seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_fpp_regression_matches_zero_one_bfs(n, p, seed, data):
    span = 2 * n - 3  # interior face span at margin 1
    l1_lo = data.draw(st.integers(1, span - 1), label="l1_lo")
    l1_hi = data.draw(st.integers(l1_lo + 1, span), label="l1_hi")
    n_pairs = data.draw(st.integers(1, 40), label="n_pairs")
    config = pm.sample_bond_config(BoxSpec(2, n), p, seed)
    kwargs = dict(n_pairs=n_pairs, l1_range=(l1_lo, l1_hi), margin=1, rng_seed=seed % 1000)
    fast = pm.fpp_regression(config, **kwargs)
    assert fast == reference_fpp_regression(config, **kwargs)
    if p == 1.0:
        assert all(d == t for t, d in fast.pairs)


def test_fpp_one_source_per_batch(monkeypatch):
    config = pm.sample_bond_config(BoxSpec(2, 16), 0.7, 3)
    kwargs = dict(n_pairs=60, l1_range=(4, 16), rng_seed=2)
    whole = pm.fpp_regression(config, **kwargs)
    chunks = []
    meet = DualFppField._meet

    def counting_meet(self, src, dst, bound):
        chunks.append(src.size)
        return meet(self, src, dst, bound)

    monkeypatch.setattr(DualFppField, "_meet", counting_meet)
    monkeypatch.setattr(geometry_module, "_BATCH_ENTRIES", 1)
    assert pm.fpp_regression(config, **kwargs) == whole
    assert len(chunks) > 1 and set(chunks) == {1}


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 10), p=probabilities, seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_fpp_meeting_search_matches_both_oracles(n, p, seed, data):
    config = pm.sample_bond_config(BoxSpec(2, n), p, seed)
    field = DualFppField(config)
    faces = [(a, b) for a in range(-n, n) for b in range(-n, n)]
    face = st.sampled_from(faces)
    pairs = data.draw(st.lists(st.tuples(face, face), min_size=1, max_size=16),
                      label="pairs")
    # the same face twice, two faces of one class, and each pair again swapped
    x0 = data.draw(face, label="x0")
    cls = field._face_class[field.dual.coord_to_face(np.array(faces))]
    mates = [f for f, c in zip(faces, cls) if c == cls[faces.index(x0)]]
    pairs += [(x0, x0), (x0, data.draw(st.sampled_from(mates), label="mate"))]
    pairs += [(y, x) for x, y in pairs]
    xs, ys = zip(*pairs)
    got = field.distances(xs, ys)
    assert got.tolist() == batched_dijkstra_distances(field, xs, ys).tolist()
    oracle = ReferenceDualFpp(config)
    assert got.tolist() == [oracle.distance(x, y) for x, y in pairs]
    half = len(pairs) // 2
    assert got[:half].tolist() == got[half:].tolist()
    assert got[half - 2] == 0 and got[half - 1] == 0


def test_fpp_search_holds_only_layers(monkeypatch):
    # revisits never change a distance, only the work: each side must hold
    # its BFS layers alone, and on the full lattice (one face per class) the
    # layer at L1 radius r has at most 4r faces
    field = DualFppField(pm.sample_bond_config(BoxSpec(2, 16), 1.0, 0))
    sizes = []
    member = geometry_module._member

    def spy(sorted_keys, keys):
        sizes.append(sorted_keys.size)
        return member(sorted_keys, keys)

    monkeypatch.setattr(geometry_module, "_member", spy)
    assert dual_distance(field, (-10, -10), (9, 9)) == 38
    assert 0 < max(sizes) <= 4 * 19


def test_fpp_regression_matches_dijkstra_at_benchmark_scale(monkeypatch):
    configs = [pm.sample_bond_config(BoxSpec(2, n), 0.7, seed)
               for n in (80, 160) for seed in (0, 1)]
    fast = [pm.fpp_regression(c, rng_seed=c.seed) for c in configs]
    monkeypatch.setattr(DualFppField, "distances", batched_dijkstra_distances)
    assert fast == [pm.fpp_regression(c, rng_seed=c.seed) for c in configs]
    assert sum(reg.n_pairs for reg in fast) == 1188


@pytest.mark.parametrize("kwargs", [dict(l1_range=(-3, 10)), dict(l1_range=(20, 10)),
                                    dict(n_pairs=0), dict(n_pairs=-5)])
def test_fpp_regression_rejects_bad_requests(kwargs):
    config = pm.sample_bond_config(BoxSpec(2, 16), 0.7, 0)
    with pytest.raises(DomainError):
        pm.fpp_regression(config, **{"l1_range": (4, 16), **kwargs})


def test_good_sites_full_lattice():
    field = pm.classify_good_vertices(pm.sample_bond_config(BoxSpec(2, 24), 1.0, 0), 8)
    assert field.num_classified > 0
    assert field.density() == 1.0


def test_good_sites_empty_lattice():
    field = pm.classify_good_vertices(
        pm.sample_bond_config(BoxSpec(2, 24), 1e-12, 0), 8
    )
    assert field.density() == 0.0


def test_good_sites_block_scale_guard():
    config = pm.sample_bond_config(BoxSpec(2, 24), 0.7, 0)
    with pytest.raises(DomainError):
        pm.classify_good_vertices(config, 7)


@pytest.mark.parametrize("d,n,block", [(2, 2, 8), (2, 2, 16), (2, 8, 8), (3, 4, 8)])
def test_good_sites_box_smaller_than_window(d, n, block):
    config = pm.sample_bond_config(BoxSpec(d, n), 0.7, 0)
    field = pm.classify_good_vertices(config, block)
    assert field.num_classified == 0
    assert_fields_equal(field, reference_classify_good_vertices(config, block))


def test_good_sites_boundary_unclassified():
    field = pm.classify_good_vertices(pm.sample_bond_config(BoxSpec(2, 20), 0.7, 0), 8)
    radius = (5 * 8) // 4
    for i in range(field.sites.shape[0]):
        fits = bool((np.abs(field.sites[i]) + radius <= 20).all())
        assert bool(field.classified[i]) == fits
        if not field.classified[i]:
            assert not field.good[i]


def test_condition_one_monotone_under_coupling():
    box = BoxSpec(2, 40)
    for seed in range(8):
        lo = classify_good_vertices(pm.sample_bond_config(box, 0.6, seed), 8)
        hi = classify_good_vertices(pm.sample_bond_config(box, 0.8, seed), 8)
        assert not np.any(lo.crossing_cluster & ~hi.crossing_cluster)


def test_good_density_grows_with_block_scale():
    box = BoxSpec(2, 40)
    wins = 0
    for seed in range(6):
        config = pm.sample_bond_config(box, 0.7, seed)
        d8 = classify_good_vertices(config, 8).density()
        d16 = classify_good_vertices(config, 16).density()
        wins += d16 > d8
    assert wins >= 5


# blocks on both sides of the steps of block // 10, and n from the window
# radius r to r + 2 * block, so the covered range ends anywhere in the period
# of the cell cuts (cuts taken from the windows' own faces alone fail here)
@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from([2, 3]), p=probabilities, seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_good_sites_match_per_site_loop(d, p, seed, data):
    block = data.draw(st.integers(8, 21 if d == 2 else 11), label="block")
    radius = (5 * block) // 4
    n = data.draw(st.integers(radius, radius + 2 * block), label="n")
    config = pm.sample_bond_config(BoxSpec(d, n), p, seed)
    fast = classify_good_vertices(config, block)
    assert fast.num_classified > 0
    assert_fields_equal(fast, batched_classify_good_vertices(config, block))
    assert_fields_equal(fast, reference_classify_good_vertices(config, block))


@pytest.mark.parametrize("d,n,block", [(2, 40, 8), (3, 18, 8)])
def test_good_sites_one_window_per_batch(monkeypatch, d, n, block):
    config = pm.sample_bond_config(BoxSpec(d, n), 0.7, 5)
    whole = classify_good_vertices(config, block)
    monkeypatch.setattr(geometry_module, "_BATCH_ENTRIES", 1)
    assert_fields_equal(classify_good_vertices(config, block), whole)


def test_good_sites_match_per_site_loop_at_criterion_size():
    config = pm.sample_bond_config(BoxSpec(2, 80), 0.7, 0)
    for block in (8, 16, 24):
        assert_fields_equal(classify_good_vertices(config, block),
                            reference_classify_good_vertices(config, block))


def test_good_sites_match_window_batches_at_benchmark_scale():
    for seed in (0, 1):
        config = pm.sample_bond_config(BoxSpec(2, 160), 0.7, seed)
        for block in (8, 16, 24):
            assert_fields_equal(classify_good_vertices(config, block),
                                batched_classify_good_vertices(config, block))


# blocks on both sides of the steps of block // 10, where the piece-size
# prefilter of the stray test sits closest to the diameter rule
@pytest.mark.parametrize("d,n,block,p", [(2, 40, block, p) for block in (9, 10, 19, 20)
                                         for p in (0.55, 0.7, 0.9)]
                         + [(3, 22, 10, p) for p in (0.3, 0.45, 0.6)])
def test_good_sites_match_per_site_loop_where_block_tenth_steps(d, n, block, p):
    for seed in range(2):
        config = pm.sample_bond_config(BoxSpec(d, n), p, seed)
        assert_fields_equal(classify_good_vertices(config, block),
                            reference_classify_good_vertices(config, block))


@pytest.mark.parametrize("d,n,block", [(2, 24, 8), (2, 40, 13), (3, 12, 8)])
def test_good_sites_full_lattice_every_classified_site_good(d, n, block):
    config = pm.sample_bond_config(BoxSpec(d, n), 1.0, 0)
    field = classify_good_vertices(config, block)
    assert field.good[field.classified].all()


def _cell_pieces(config, block):
    """The cube the windows cover and the pieces of its cells, by a plain route.

    Returns the cube side, each window's lowest corner in the cube, the
    piece of every cube vertex (row-major), the open pieces (those an open
    edge joins to another cell) and the distinct pairs of pieces such edges
    join.
    """
    d, n = config.box.d, config.box.n
    box = build_box(config.box)
    radius = (5 * block) // 4
    side = 2 * radius + 1
    sites = block_sites(config.box, block)
    corners = sites[(np.abs(sites) + radius <= n).all(axis=1)] - radius
    start = corners.min()
    span = corners.max() - start + side
    offset = np.arange(span)
    starts = np.flatnonzero((offset % block == 0) | ((offset - side) % block == 0))
    ids = window_vertex_ids(box, [start] * d, [start + span - 1] * d).ravel()
    local = np.full(box.num_vertices, -1, dtype=np.int64)
    local[ids] = np.arange(ids.size)
    cell = (np.searchsorted(starts, box.vertex_coords(ids) - start, side="right") - 1) @ (
        starts.size ** np.arange(d - 1, -1, -1))
    tail, head = local[box.edge_tail], local[box.edge_head]
    edge = config.open_mask & (tail >= 0) & (head >= 0)
    tail, head = tail[edge], head[edge]
    inner = cell[tail] == cell[head]
    graph = sparse.coo_matrix((np.ones(int(inner.sum())), (tail[inner], head[inner])),
                              shape=(ids.size, ids.size))
    piece = csgraph.connected_components(graph, directed=False)[1]
    pairs = np.unique(np.stack([piece[tail[~inner]], piece[head[~inner]]], axis=1), axis=0)
    return span, corners - start, piece, np.unique(pairs), pairs


@pytest.mark.parametrize("d,n,block", [(2, 80, 8), (3, 18, 8)])
def test_good_sites_one_label_call_per_batch(monkeypatch, d, n, block):
    config = pm.sample_bond_config(BoxSpec(d, n), 0.7, 0)
    span, corners, piece, opened, pairs = _cell_pieces(config, block)
    side = 2 * ((5 * block) // 4) + 1
    grid = piece.reshape((span,) * d)
    nodes, edges, entries = [], [], []
    for corner in corners:
        inside = np.unique(grid[tuple(slice(c, c + side) for c in corner)])
        inside = inside[np.isin(inside, opened)]
        nodes.append(inside.size)
        lower = np.isin(pairs[:, 0], inside)
        edges.append(int((lower & np.isin(pairs[:, 1], inside)).sum()))
        entries.append(inside.size + int(lower.sum()))

    calls = []
    label = csgraph.connected_components

    def counting_label(graph, *args, **kwargs):
        calls.append((graph.shape[0], graph.nnz))
        return label(graph, *args, **kwargs)

    def no_coo(*args, **kwargs):
        raise AssertionError("cell and window graphs are built as CSR directly")

    monkeypatch.setattr(geometry_module.csgraph, "connected_components", counting_label)
    monkeypatch.setattr(geometry_module.sparse, "coo_matrix", no_coo)
    # the budget bounds the window batches only: the contraction is one call
    for budget in (geometry_module._BATCH_ENTRIES, 2**12):
        monkeypatch.setattr(geometry_module, "_BATCH_ENTRIES", budget)
        calls.clear()
        classify_good_vertices(config, block)
        # first the contraction: one call over the whole cube, d slots a node
        assert calls[0] == (span**d, d * span**d)
        # then the windows, in order, as many per batch as fit in the budget
        batches, done = 0, 0
        while done < len(entries):
            stop = done + 1
            while stop < len(entries) and sum(entries[done:stop + 1]) <= budget:
                stop += 1
            batches, done = batches + 1, stop
        windows = calls[1:]
        assert len(windows) == batches
        assert sum(size for size, _ in windows) == sum(nodes)
        assert sum(nnz for _, nnz in windows) == sum(edges)


def test_good_density_curve_samples_each_seed_once(monkeypatch):
    calls = []

    def counting_sample(box, p, seed):
        calls.append(seed)
        return pm.sample_bond_config(box, p, seed)

    monkeypatch.setattr(geometry_module, "sample_bond_config", counting_sample)
    rows = good_density_curve(2, 24, 0.7, [8, 16], seeds=[0, 1, 2])
    assert calls == [0, 1, 2]
    expected = [classify_good_vertices(pm.sample_bond_config(BoxSpec(2, 24), 0.7, s), b)
                for b in (8, 16) for s in (0, 1, 2)]
    assert [(r.block, r.seed, r.n_classified, r.n_good) for r in rows] == [
        (f.block, f.seed, f.num_classified, int(f.good[f.classified].sum()))
        for f in expected
    ]


def test_coarse_grain_empty():
    assert coarse_grain(BoxSpec(2, 16), [], 8).shape == (0, 2)


def test_coarse_grain_whole_box():
    box = BoxSpec(2, 16)
    all_vertices = np.arange(box.vertex_count)
    image = coarse_grain(box, all_vertices, 8)
    assert image.shape[0] == block_sites(box, 8).shape[0]


def _random_connected_set(graph, rng, size):
    adj = box_adjacency(graph)
    start = int(rng.integers(0, graph.num_vertices))
    seen = {start}
    frontier = [start]
    while len(seen) < size and frontier:
        i = int(rng.integers(0, len(frontier)))
        v = frontier[i]
        nbrs = [int(u) for u in adj.indices[adj.indptr[v]:adj.indptr[v + 1]]
                if u not in seen]
        if not nbrs:
            frontier.pop(i)
            continue
        u = nbrs[int(rng.integers(0, len(nbrs)))]
        seen.add(u)
        frontier.append(u)
    return np.array(sorted(seen))


def test_coarse_grain_preserves_connectivity_and_cardinality():
    # thresholds frozen from the pilot on B_2(16), block 8: connectivity holds
    # outright; |A'| <= |A| can fail for very small sets (window overlap), the
    # worst pilot violation was at |A| = 8, so the check starts at 16
    box = BoxSpec(2, 16)
    graph = build_box(box)
    rng = np.random.default_rng(2024)
    block = 8
    for _ in range(60):
        size = int(rng.integers(1, 200))
        vids = _random_connected_set(graph, rng, size)
        image = coarse_grain(box, vids, block)
        assert image.shape[0] >= 1
        assert sites_connected(image, block)
        assert image.shape[0] >= len(vids) / (2 * block) ** 2
        if len(vids) >= 16:
            assert image.shape[0] <= len(vids)


def test_sites_connected_helper():
    assert sites_connected(np.array([[0, 0], [8, 0], [8, 8]]), 8)
    assert not sites_connected(np.array([[0, 0], [16, 16]]), 8)
    with pytest.raises(DomainError):
        sites_connected(np.empty((0, 2)), 8)


def test_good_density_curve_rows(tmp_path):
    rows = good_density_curve(2, 24, 1.0, [8], seeds=[0, 1])
    assert all(r.density == 1.0 for r in rows)
    assert all(r.n_good == r.n_classified for r in rows)
    out = tmp_path / "density.csv"
    density_rows_to_csv(rows, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("p,block,seed")
    assert len(lines) == 3


def test_good_density_monotone_in_p_with_exception_logging():
    box = BoxSpec(2, 32)
    flips = 0
    total = 0
    for seed in range(6):
        lo = classify_good_vertices(pm.sample_bond_config(box, 0.7, seed), 8)
        hi = classify_good_vertices(pm.sample_bond_config(box, 0.95, seed), 8)
        total += lo.num_classified
        flips += int(np.sum(lo.good & ~hi.good))
    # condition 2 is not provably monotone; exceptions must stay rare
    assert flips / total < 0.05
