import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from percmix.errors import DomainError, EmptyClusterError
from percmix.lattice import BoxSpec, build_box
from percmix.percolation import (
    BondConfig,
    bernoulli_site_field,
    cluster_census,
    largest_cluster,
    sample_bond_config,
)
from helpers import chemical_distance, coord_to_vertex, edge_id, fit_through_origin

BOX = BoxSpec(2, 3)


def test_degenerate_probabilities():
    assert sample_bond_config(BOX, 0.0, 1).open_count == 0
    assert sample_bond_config(BOX, 1.0, 1).open_count == BOX.edge_count
    assert bernoulli_site_field(1, BOX.vertex_count, 0.0).sum() == 0
    assert bernoulli_site_field(1, BOX.vertex_count, 1.0).sum() == BOX.vertex_count
    with pytest.raises(DomainError):
        sample_bond_config(BOX, 1.2, 1)
    with pytest.raises(DomainError):
        sample_bond_config(BOX, -0.1, 1)


def test_determinism():
    a = sample_bond_config(BoxSpec(2, 16), 0.63, 987654321)
    b = sample_bond_config(BoxSpec(2, 16), 0.63, 987654321)
    assert np.array_equal(a.open_mask, b.open_mask)


def test_bond_and_site_streams_differ():
    box = BoxSpec(1, 6)  # 13 vertices, 12 edges
    bond = sample_bond_config(box, 0.5, 3)
    site = bernoulli_site_field(3, box.vertex_count, 0.5)
    assert not np.array_equal(bond.open_mask, site[: box.edge_count])


@given(st.integers(0, 2**63 - 1))
@settings(max_examples=25, deadline=None)
def test_monotone_coupling(seed):
    box = BoxSpec(2, 8)
    masks = [sample_bond_config(box, p, seed).open_mask
             for p in (0.2, 0.5, 0.7, 0.9)]
    for lo, hi in zip(masks, masks[1:]):
        assert not np.any(lo & ~hi)


def test_largest_cluster_monotone_in_p():
    box = BoxSpec(2, 8)
    for seed in range(5):
        sizes = []
        for p in (0.55, 0.7, 0.85, 1.0):
            sizes.append(largest_cluster(sample_bond_config(box, p, seed)).num_edges)
        assert sizes == sorted(sizes)


def test_open_fraction_within_three_standard_errors():
    box = BoxSpec(2, 32)
    p = 0.7
    total = 0
    n_seeds = 200
    for seed in range(n_seeds):
        total += sample_bond_config(box, p, seed).open_count
    frac = total / (box.edge_count * n_seeds)
    se = np.sqrt(p * (1 - p) / (box.edge_count * n_seeds))
    assert abs(frac - p) < 3 * se


def test_site_fraction_within_three_standard_errors():
    box = BoxSpec(2, 16)
    p = 0.9
    n_seeds = 200
    total = sum(int(bernoulli_site_field(seed, box.vertex_count, p).sum())
                for seed in range(n_seeds))
    frac = total / (box.vertex_count * n_seeds)
    se = np.sqrt(p * (1 - p) / (box.vertex_count * n_seeds))
    assert abs(frac - p) < 3 * se


def bfs_components(config):
    """Flood-fill oracle: components of the open subgraph as vertex frozensets."""
    graph = build_box(config.box)
    open_ids = config.open_edges()
    adj = {}
    for eid in open_ids:
        u, v = int(graph.edge_tail[eid]), int(graph.edge_head[eid])
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    seen = set()
    comps = []
    for start in sorted(adj):
        if start in seen:
            continue
        stack = [start]
        seen.add(start)
        comp = {start}
        edge_count = 0
        while stack:
            x = stack.pop()
            for y in adj[x]:
                edge_count += 1
                if y not in seen:
                    seen.add(y)
                    comp.add(y)
                    stack.append(y)
        comps.append((frozenset(comp), edge_count // 2))
    return comps


@pytest.mark.parametrize("seed", range(200))
def test_largest_cluster_matches_bfs_oracle(seed):
    config = sample_bond_config(BoxSpec(2, 3), 0.5, seed)
    if config.open_count == 0:
        with pytest.raises(EmptyClusterError):
            largest_cluster(config)
        return
    comps = bfs_components(config)
    best_edges = max(e for _, e in comps)
    candidates = [c for c, e in comps if e == best_edges]
    expected = min(candidates, key=min)
    cluster = largest_cluster(config)
    assert frozenset(int(v) for v in cluster.vertex_ids) == expected
    assert cluster.num_edges == best_edges


def _config_with_edges(box, coordinate_pairs):
    graph = build_box(box)
    mask = np.zeros(box.edge_count, dtype=bool)
    for a, b in coordinate_pairs:
        u = int(coord_to_vertex(graph, np.array(a)))
        v = int(coord_to_vertex(graph, np.array(b)))
        mask[edge_id(graph, u, v)] = True
    return BondConfig(box, 0.5, 0, mask)


def test_injected_config_picks_max_edge_component():
    box = BoxSpec(2, 8)
    config = _config_with_edges(box, [
        ((0, 0), (0, 1)),
        ((5, 5), (5, 6)),
        ((5, 6), (6, 6)),
    ])
    cluster = largest_cluster(config)
    assert cluster.num_vertices == 3
    assert cluster.num_edges == 2
    coords = {tuple(c) for c in cluster.coords}
    assert coords == {(5, 5), (5, 6), (6, 6)}


def test_tie_break_smallest_vertex_id():
    box = BoxSpec(2, 8)
    config = _config_with_edges(box, [
        ((4, 4), (4, 5)),
        ((-3, -3), (-3, -2)),
    ])
    cluster = largest_cluster(config)
    # both components have one edge; the one with the smaller VertexId wins
    coords = {tuple(c) for c in cluster.coords}
    assert coords == {(-3, -3), (-3, -2)}


def test_p_one_cluster_is_whole_box():
    cluster = largest_cluster(sample_bond_config(BoxSpec(2, 1), 1.0, 0))
    assert cluster.num_vertices == 9
    assert cluster.num_edges == 12


def test_census_trivial():
    c1 = cluster_census(sample_bond_config(BoxSpec(2, 2), 1.0, 0))
    assert c1.num_components == 1
    assert c1.component_edges[0] / (2 * 25) == pytest.approx(40 / (2 * 25))
    assert c1.second_largest_ratio == 0.0
    c0 = cluster_census(sample_bond_config(BoxSpec(2, 2), 0.0, 0))
    assert c0.num_components == 25
    assert int(c0.component_edges[0]) == 0


@given(st.integers(0, 10**9), st.floats(0.1, 0.9))
@settings(max_examples=25, deadline=None)
def test_census_totals(seed, p):
    config = sample_bond_config(BoxSpec(2, 4), p, seed)
    census = cluster_census(config)
    assert int(census.component_edges.sum()) == config.open_count
    assert int(census.component_vertices.sum()) == config.box.vertex_count
    assert 0.0 <= census.component_edges[0] / (config.box.d * config.box.vertex_count) <= 1.0
    # sorted descending by edge count
    edges = census.component_edges
    assert all(edges[i] >= edges[i + 1] for i in range(len(edges) - 1))


def test_chemical_distance_full_grid_is_l1():
    config = sample_bond_config(BoxSpec(2, 2), 1.0, 0)
    cluster = largest_cluster(config)
    graph = build_box(config.box)
    coords = graph.vertex_coords(np.arange(graph.num_vertices))
    for x in range(0, graph.num_vertices, 3):
        for y in range(0, graph.num_vertices, 5):
            expect = int(np.abs(coords[x] - coords[y]).sum())
            assert chemical_distance(cluster, x, y) == expect


def test_chemical_distance_same_vertex():
    cluster = largest_cluster(sample_bond_config(BoxSpec(2, 2), 1.0, 0))
    vid = int(cluster.vertex_ids[0])
    assert chemical_distance(cluster, vid, vid) == 0


def test_chemical_distance_membership_error():
    config = _config_with_edges(BoxSpec(2, 8), [((5, 5), (5, 6)), ((5, 6), (6, 6))])
    cluster = largest_cluster(config)
    outsider = int(coord_to_vertex(build_box(config.box), np.array([0, 0])))
    with pytest.raises(DomainError):
        chemical_distance(cluster, int(cluster.vertex_ids[0]), outsider)


def test_chemical_distance_linear_growth():
    config = sample_bond_config(BoxSpec(2, 32), 0.7, 0)
    cluster = largest_cluster(config)
    rng = np.random.default_rng(0)
    coords = cluster.coords
    xs, ys = [], []
    while len(xs) < 500:
        i, j = rng.integers(0, cluster.num_vertices, size=2)
        l1 = int(np.abs(coords[i] - coords[j]).sum())
        if l1 < 16:
            continue
        d = chemical_distance(cluster, int(cluster.vertex_ids[i]),
                              int(cluster.vertex_ids[j]))
        xs.append(l1)
        ys.append(d)
    # stretch-factor fit through the origin: pointwise D >= L1 forces slope >= 1
    fit = fit_through_origin(np.asarray(xs, float), np.asarray(ys, float))
    assert 1.0 < fit.slope < 2.0
    assert fit.r_squared > 0.9


def test_binary_roundtrip_bit_exact():
    config = sample_bond_config(BoxSpec(3, 4), 0.3141592653589793, 112233445566778899)
    back = BondConfig.from_bytes(config.to_bytes())
    assert back.box == config.box
    assert back.p == config.p
    assert back.seed == config.seed
    assert np.array_equal(back.open_mask, config.open_mask)


def test_text_roundtrip_bit_exact():
    config = sample_bond_config(BoxSpec(2, 5), 0.7000000000000001, 42)
    back = BondConfig.from_text(config.to_text())
    assert back.p == config.p
    assert np.array_equal(back.open_mask, config.open_mask)


def test_binary_rejects_garbage():
    with pytest.raises(DomainError):
        BondConfig.from_bytes(b"XXXX" + bytes(32))


def _b22_text(p="0x1.6666666666666p-1", ids=(0,)):
    """Text form of a B_2(2) configuration (40 edges) with the given fields."""
    return f"d=2\nn=2\np={p}\nseed=0\n" + "".join(f"{e}\n" for e in ids)


@pytest.mark.parametrize("read, data", [
    (BondConfig.from_text, _b22_text(ids=(-1,))),
    (BondConfig.from_text, _b22_text(ids=(0, 40))),
    (BondConfig.from_text, _b22_text(p="0.7")),
    (BondConfig.from_text, _b22_text(p="0x1.8p+0")),
    (BondConfig.from_text, _b22_text(p="0x1p99999")),
    (BondConfig.from_text, _b22_text(ids=("edge",))),
    (BondConfig.from_bytes, b"PMX1" + bytes(10)),
    (BondConfig.from_bytes, struct.pack("<4sIIdQ", b"PMX1", 2, 2, 1.5, 0) + bytes(5)),
], ids=["negative-id", "id-past-last-edge", "decimal-p", "p-above-one", "p-overflows",
        "non-integer-id", "short-header", "binary-p-above-one"])
def test_readers_reject_malformed_input(read, data):
    with pytest.raises(DomainError):
        read(data)
