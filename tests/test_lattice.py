import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csgraph

from percmix.errors import CapacityError, DomainError, UnsupportedDimensionError
from percmix.lattice import BoxSpec, DualGraph, build_box, dual_lattice
from helpers import (box_adjacency, box_degrees, coord_to_vertex, dual_adjacency, edge_id,
                     l1_diameter, window_vertex_ids)


def brute_edge_count(d, n):
    """Independent oracle: count neighbour pairs by explicit enumeration."""
    from itertools import product

    verts = list(product(range(-n, n + 1), repeat=d))
    vset = set(verts)
    count = 0
    for v in verts:
        for a in range(d):
            w = list(v)
            w[a] += 1
            if tuple(w) in vset:
                count += 1
    return count


@pytest.mark.parametrize("d,n,vertices,edges", [
    (2, 1, 9, 12),
    (1, 2, 5, 4),
    (3, 2, 125, 300),
])
def test_box_counts(d, n, vertices, edges):
    box = build_box(BoxSpec(d, n))
    assert box.num_vertices == vertices
    assert box.num_edges == edges
    assert box.num_edges == brute_edge_count(d, n)


@pytest.mark.parametrize("d,n", [
    (1, 0), (1, 1), (1, 7), (1, 100), (1, 499_999),
    (2, 0), (2, 1), (2, 3), (2, 16), (2, 499),
    (3, 1), (3, 2), (3, 4), (3, 31),
    (4, 1), (4, 2), (4, 7),
    (5, 1), (5, 3),
    (6, 1), (6, 2),
])
def test_edge_count_formula(d, n):
    spec = BoxSpec(d, n)
    assert spec.vertex_count <= 10**6
    box = build_box(spec)
    assert box.num_edges == spec.edge_count
    assert box.edge_tail.shape == (spec.edge_count,)


def test_interior_degree():
    box = build_box(BoxSpec(3, 2))
    center = coord_to_vertex(box, np.zeros(3, dtype=int))
    assert box_degrees(box)[center] == 6


def test_vertex_roundtrip_all():
    box = build_box(BoxSpec(3, 2))
    vids = np.arange(box.num_vertices)
    assert np.array_equal(coord_to_vertex(box, box.vertex_coords(vids)), vids)


def test_edge_roundtrip_all():
    box = build_box(BoxSpec(2, 3))
    for eid in range(box.num_edges):
        u, v = int(box.edge_tail[eid]), int(box.edge_head[eid])
        assert edge_id(box, u, v) == eid
        assert edge_id(box, v, u) == eid


@given(st.integers(1, 4), st.integers(0, 5), st.data())
@settings(max_examples=60, deadline=None)
def test_coord_roundtrip_random(d, n, data):
    if (2 * n + 1) ** d > 4000:
        n = 1
    box = build_box(BoxSpec(d, n))
    coord = np.array([data.draw(st.integers(-n, n)) for _ in range(d)])
    vid = coord_to_vertex(box, coord)
    assert np.array_equal(box.vertex_coords(vid), coord)


def test_capacity_error():
    with pytest.raises(CapacityError):
        BoxSpec(3, 1000)


def test_spec_validation():
    with pytest.raises(DomainError):
        BoxSpec(0, 3)
    with pytest.raises(DomainError):
        BoxSpec(2, -1)


def test_dual_pairing_total():
    box = build_box(BoxSpec(2, 1))
    dual = dual_lattice(box)
    assert dual.dual_u.size == 12
    # every primal edge crosses exactly one dual edge; pairing is index-aligned:
    # both ends of primal edge k are corners of each inner face of dual edge k
    ends = [box.vertex_coords(box.edge_tail), box.vertex_coords(box.edge_head)]
    for faces in (dual.dual_u, dual.dual_v):
        inner = faces != dual.outer_face
        side = dual.faces_per_side
        corner = np.stack([faces // side, faces % side], axis=1) - box.spec.n
        for coords in ends:
            offset = coords[inner] - corner[inner]
            assert np.all((offset == 0) | (offset == 1))
    # the two faces of a dual edge are distinct
    assert np.all(dual.dual_u != dual.dual_v)


def test_dual_empty_box():
    dual = dual_lattice(build_box(BoxSpec(2, 0)))
    assert dual.dual_u.size == 0
    assert dual.num_inner_faces == 0


def test_dual_connected():
    adj = dual_adjacency(dual_lattice(build_box(BoxSpec(2, 2))))
    assert csgraph.connected_components(adj, directed=False)[0] == 1


def test_dual_face_adjacency_interior():
    # neighbouring interior faces share exactly one dual edge
    dual = dual_lattice(build_box(BoxSpec(2, 2)))
    adj = dual_adjacency(dual, include_outer=False)
    f = dual.coord_to_face(np.array([0, 0]))
    g = dual.coord_to_face(np.array([1, 0]))
    assert adj[f, g] == 1


def test_dual_rejects_other_dimensions():
    with pytest.raises(UnsupportedDimensionError):
        dual_lattice(build_box(BoxSpec(3, 1)))


def test_dual_is_built_once_per_box():
    dual = dual_lattice(build_box(BoxSpec(2, 3)))
    assert dual_lattice(build_box(BoxSpec(2, 3))) is dual
    assert not dual.dual_u.flags.writeable and not dual.dual_v.flags.writeable
    fresh = DualGraph(build_box(BoxSpec(2, 3)))
    assert np.array_equal(fresh.dual_u, dual.dual_u)
    assert np.array_equal(fresh.dual_v, dual.dual_v)


def test_l1_diameter_basic():
    assert l1_diameter([(0, 0)]) == 0
    assert l1_diameter([(0, 0), (3, 4)]) == 7
    assert l1_diameter([(1, 2, 3), (-1, 0, 5)]) == 6
    with pytest.raises(DomainError):
        l1_diameter([])


def test_l1_diameter_matches_bruteforce():
    rng = np.random.default_rng(7)
    for _ in range(30):
        pts = rng.integers(-6, 7, size=(8, 3))
        brute = max(
            int(np.abs(pts[i] - pts[j]).sum())
            for i in range(len(pts)) for j in range(len(pts))
        )
        assert l1_diameter(pts) == brute


def _connected_subsets_with_bbox(n):
    """All connected subsets of B_2(n) with (size, l1-diameter) carried along.

    The L1 diameter equals max(spread of x+y, spread of x-y), both maintained
    incrementally during the neighbour-expansion enumeration.
    """
    box = build_box(BoxSpec(2, n))
    m = box.num_vertices
    coords = box.vertex_coords(np.arange(m))
    u = (coords[:, 0] + coords[:, 1]).tolist()
    v = (coords[:, 0] - coords[:, 1]).tolist()
    adj_csr = box_adjacency(box)
    adj = []
    for i in range(m):
        mask = 0
        for j in adj_csr.indices[adj_csr.indptr[i]:adj_csr.indptr[i + 1]]:
            mask |= 1 << int(j)
        adj.append(mask)

    out = []

    def rec(smask, size, ulo, uhi, vlo, vhi, frontier, banned, allowed):
        out.append((size, max(uhi - ulo, vhi - vlo)))
        f = frontier & ~banned
        while f:
            bit = f & -f
            f ^= bit
            c = bit.bit_length() - 1
            smask2 = smask | bit
            rec(smask2, size + 1, min(ulo, u[c]), max(uhi, u[c]),
                min(vlo, v[c]), max(vhi, v[c]),
                (frontier | (adj[c] & allowed)) & ~smask2, banned, allowed)
            banned |= bit

    for s in range(m):
        allowed = ~((1 << (s + 1)) - 1)
        rec(1 << s, 1, u[s], u[s], v[s], v[s], adj[s] & allowed, 0, allowed)
    return out


def test_diameter_bound_exhaustive_small_box():
    # every subset (connected or not) of the 3x3 box
    box = build_box(BoxSpec(2, 1))
    coords = box.vertex_coords(np.arange(9))
    for mask in range(1, 2**9):
        pts = coords[[i for i in range(9) if mask >> i & 1]]
        s = len(pts)
        assert l1_diameter(pts) >= int(np.ceil(np.sqrt(s))) - 1


def test_diameter_bound_exhaustive_connected_b2_2():
    # every connected subset of the 5x5 box satisfies diam >= ceil(sqrt(s)) - 1
    for size, diam in _connected_subsets_with_bbox(2):
        assert diam >= int(np.ceil(np.sqrt(size))) - 1


def test_window_vertex_ids():
    box = build_box(BoxSpec(2, 3))
    grid = window_vertex_ids(box, [-1, 0], [1, 2])
    assert grid.shape == (3, 3)
    assert np.array_equal(
        box.vertex_coords(grid[0, 0]), np.array([-1, 0])
    )
    with pytest.raises(DomainError):
        window_vertex_ids(box, [-5, 0], [0, 0])
