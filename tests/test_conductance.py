import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.sparse import csgraph

import percmix as pm
import percmix.conductance as conductance_module
from percmix.conductance import (
    EXHAUSTIVE_CAP,
    ConductanceProfile,
    ProfilePoint,
    _window_offsets,
    cheeger_unrestricted,
    connected_subsets,
    profile_unrestricted,
    reattach_complement,
)
from percmix.errors import CapacityError, DomainError
from percmix.fixtures import (
    complete_graph,
    cycle_graph,
    full_box_cluster,
    path_graph,
    single_edge,
)


def cluster_chain(n, p=0.7, seed=0):
    return pm.build_chain(pm.largest_cluster(
        pm.sample_bond_config(pm.BoxSpec(2, n), p, seed)
    ))


def tiny_random_chains(count, max_vertices=14, start_seed=0):
    """Connected percolation fragments with at most ``max_vertices`` vertices."""
    chains = []
    seed = start_seed
    while len(chains) < count:
        config = pm.sample_bond_config(pm.BoxSpec(2, 3), 0.45, seed)
        seed += 1
        if config.open_count == 0:
            continue
        cluster = pm.largest_cluster(config)
        if 2 <= cluster.num_vertices <= max_vertices:
            chains.append(pm.build_chain(cluster))
    return chains


def test_set_conductance_four_cycle():
    ch = pm.build_chain(cycle_graph(4))
    pair = pm.set_conductance(ch, [0, 1])
    assert pair.phi_fraction == Fraction(1)
    assert pair.q_cross == pytest.approx(2 / 8)
    single = pm.set_conductance(ch, [0])
    assert single.phi_fraction == Fraction(4, 3)


def test_set_conductance_two_state():
    ch = pm.build_chain(single_edge())
    assert pm.set_conductance(ch, [0]).phi_fraction == Fraction(2)


def test_set_conductance_errors():
    ch = pm.build_chain(cycle_graph(4))
    with pytest.raises(DomainError):
        pm.set_conductance(ch, [])
    with pytest.raises(DomainError):
        pm.set_conductance(ch, range(4))
    with pytest.raises(DomainError):
        pm.set_conductance(ch, [9])


def test_connected_subset_enumeration_counts():
    # complete graph: every nonempty subset is connected
    ch = pm.build_chain(complete_graph(5))
    assert sum(1 for _ in connected_subsets(ch)) == 2**5 - 1
    # path: connected subsets are the contiguous runs
    ch = pm.build_chain(path_graph(6))
    assert sum(1 for _ in connected_subsets(ch)) == 6 * 7 // 2


def test_cheeger_exact_fixtures():
    res4 = pm.cheeger_exact(pm.build_chain(cycle_graph(4)))
    assert res4.phi_fraction == Fraction(1)
    assert len(res4.witness) == 2
    assert res4.cut.a_connected and res4.cut.ac_connected

    assert pm.cheeger_exact(pm.build_chain(single_edge())).phi_fraction == Fraction(2)
    # frozen value from the brute-force oracle run on the 3-path
    assert pm.cheeger_exact(pm.build_chain(path_graph(3))).phi_fraction == Fraction(4, 3)


def test_cheeger_capacity_error():
    ch = cluster_chain(6)
    assert ch.m > EXHAUSTIVE_CAP
    with pytest.raises(CapacityError):
        pm.cheeger_exact(ch)
    with pytest.raises(CapacityError):
        pm.profile_exact(ch)


def test_cheeger_restricted_equals_unrestricted():
    fixtures = [cycle_graph(m) for m in (3, 4, 5, 6, 8)]
    fixtures += [path_graph(m) for m in (2, 3, 5, 7)]
    fixtures += [complete_graph(m) for m in (3, 4, 5)]
    fixtures += [full_box_cluster(2, 1)]
    chains = [pm.build_chain(g) for g in fixtures] + tiny_random_chains(40)
    for ch in chains:
        assert pm.cheeger_exact(ch).phi_fraction == cheeger_unrestricted(ch)


def test_profile_restricted_equals_unrestricted():
    # the unrestricted profile can place breakpoints at masses only a
    # disconnected set achieves; the running minimum must agree everywhere
    for ch in tiny_random_chains(25, start_seed=500) + [
        pm.build_chain(cycle_graph(6)), pm.build_chain(full_box_cluster(2, 1))
    ]:
        exact = pm.profile_exact(ch)
        brute = profile_unrestricted(ch)
        for degsum, brute_phi in brute.items():
            x = Fraction(degsum, ch.total_degree)
            eligible = [p.phi_fraction for p in exact.points if p.x_fraction <= x]
            assert eligible, f"no connected set at or below mass {x}"
            assert min(eligible) == brute_phi
        # connected breakpoints appear among the unrestricted ones with equal value
        for p in exact.points:
            degsum = int(p.x_fraction * ch.total_degree)
            assert brute[degsum] == p.phi_fraction


def test_profile_four_cycle():
    prof = pm.profile_exact(pm.build_chain(cycle_graph(4)))
    assert [(p.x_fraction, p.phi_fraction) for p in prof.points] == [
        (Fraction(1, 4), Fraction(4, 3)),
        (Fraction(1, 2), Fraction(1)),
    ]
    assert prof.is_non_increasing()


def test_profile_two_state():
    prof = pm.profile_exact(pm.build_chain(single_edge()))
    assert [(p.x_fraction, p.phi_fraction) for p in prof.points] == [
        (Fraction(1, 2), Fraction(2)),
    ]
    with pytest.raises(DomainError):
        prof.value_at(0.25)


def test_profile_non_increasing_random():
    for ch in tiny_random_chains(15, start_seed=900):
        assert pm.profile_exact(ch).is_non_increasing()


def test_lk_bound_constant_profile():
    prof = ConductanceProfile([ProfilePoint(0.25, 1.0, "exact", 1)])
    assert pm.lk_bound(prof, 0.25) == pytest.approx(32 * math.log(2))


def test_lk_bound_four_cycle():
    ch = pm.build_chain(cycle_graph(4))
    prof = pm.profile_exact(ch)
    bound = pm.lk_bound(prof, ch.pi_min)
    assert bound == pytest.approx(18 * math.log(2))
    tau1 = pm.mixing_time(ch, resolution=1e-3).tau1
    assert tau1 <= bound


def test_lk_bound_homogeneity():
    ch = pm.build_chain(cycle_graph(6))
    prof = pm.profile_exact(ch)
    base = pm.lk_bound(prof, ch.pi_min)
    for c in (0.5, 2.0, 3.7):
        assert pm.lk_bound(prof.scaled(c), ch.pi_min) == pytest.approx(base / c**2)


def test_lk_bound_domain_gap():
    prof = ConductanceProfile([ProfilePoint(0.3, 1.0, "exact", 1)])
    with pytest.raises(DomainError):
        pm.lk_bound(prof, 0.1)  # profile starts above pi_min


def test_lk_bound_degenerate_domain():
    prof = pm.profile_exact(pm.build_chain(single_edge()))
    assert pm.lk_bound(prof, 0.5) == 0.0


def test_lk_dominates_tau1_tiny_instances():
    for ch in tiny_random_chains(15, start_seed=1500):
        if ch.pi_min >= 0.5:
            continue
        prof = pm.profile_exact(ch)
        bound = pm.lk_bound(prof, ch.pi_min)
        mix = pm.mixing_time(ch, resolution=1e-3)
        assert mix.tau1 <= bound + 1e-3


def test_sweep_cut_four_cycle():
    ch = pm.build_chain(cycle_graph(4))
    cut = pm.sweep_cut(ch)
    assert cut.phi_fraction >= Fraction(1)
    assert cut.phi_fraction == Fraction(1)  # ordering reaches an adjacent pair


def test_sweep_cut_upper_bounds_cheeger():
    for ch in tiny_random_chains(20, start_seed=2100):
        sweep = pm.sweep_cut(ch)
        exact = pm.cheeger_exact(ch)
        assert sweep.phi_fraction >= exact.phi_fraction


def test_gap_below_every_cut():
    for n, seed in ((5, 0), (8, 2)):
        ch = cluster_chain(n, seed=seed)
        spec = pm.spectral_gap(ch)
        sweep = pm.sweep_cut(ch, spec)
        assert spec.gap <= sweep.phi * (1 + 1e-9)
        prof = pm.profile_upper_box(ch)
        for point in prof.points:
            assert spec.gap <= point.phi * (1 + 1e-9)


def test_reattach_complement_improves_path_cut():
    ch = pm.build_chain(path_graph(5))
    cut = pm.set_conductance(ch, [2])
    assert not cut.ac_connected
    improved = reattach_complement(ch, cut)
    assert len(improved) == 1
    better = improved[0]
    assert better.ac_connected and better.a_connected
    assert better.phi_fraction < cut.phi_fraction
    assert better.crossing <= cut.crossing


def test_small_set_floor():
    ch = pm.build_chain(cycle_graph(4))
    assert pm.small_set_floor(ch, 0.5) == pytest.approx(1 / 4)
    assert pm.small_set_floor(ch, ch.pi_min) >= pm.small_set_floor(ch, 0.5)
    with pytest.raises(DomainError):
        pm.small_set_floor(ch, 0.0)


def test_small_set_floor_below_exact_profile():
    for ch in tiny_random_chains(15, start_seed=2600):
        prof = pm.profile_exact(ch)
        for point in prof.points:
            assert pm.small_set_floor(ch, point.x) <= point.phi + 1e-12


def test_profile_upper_box_self_consistent_on_full_grid():
    ch = pm.build_chain(full_box_cluster(2, 3))
    config = pm.sample_bond_config(pm.BoxSpec(2, 3), 1.0, 0)
    prof = pm.profile_upper_box(ch, config)
    assert prof.points
    assert prof.is_non_increasing()
    # emitted values are genuine cut values: re-evaluate a window directly
    k = 1
    coords = ch.graph.coords
    mask = (np.abs(coords - np.array([0, 0])) <= k).all(axis=1)
    cut = pm.set_conductance(ch, np.nonzero(mask)[0])
    xs = [p for p in prof.points if p.x_fraction == cut.pi_fraction]
    assert xs and xs[0].phi <= cut.phi + 1e-12


def test_profile_upper_box_dominates_exact():
    # B_2(1) full grid: 9 vertices, exact profile available
    ch = pm.build_chain(full_box_cluster(2, 1))
    exact = pm.profile_exact(ch)
    upper = pm.profile_upper_box(ch)
    for point in upper.points:
        assert point.phi >= exact.value_at(point.x) - 1e-12


def test_profile_upper_box_requires_lattice():
    ch = pm.build_chain(cycle_graph(8))
    with pytest.raises(DomainError):
        pm.profile_upper_box(ch)


def test_profile_csv_roundtrippable(tmp_path):
    prof = pm.profile_exact(pm.build_chain(cycle_graph(4)))
    path = tmp_path / "profile.csv"
    prof.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,phi,certification,witness_size"
    assert len(lines) == 1 + len(prof.points)


# ---------------------------------------------------------------------------
# whole-array window profile against the per-window reference


def reference_window_cuts(chain, k, off):
    """One tiling's cuts by the per-window loop: sparse submatrices per window."""
    graph = chain.graph
    n, d = graph.box.n, graph.box.d
    axes = [range(-n + k + off[a], n - k + 1, 2 * k + 1) for a in range(d)]
    cuts = []
    for center in product(*axes):
        mask = (np.abs(graph.coords - np.asarray(center)) <= k).all(axis=1)
        cnt = int(mask.sum())
        if cnt == 0 or cnt == chain.m:
            continue
        idx = np.nonzero(mask)[0]
        sub = graph.adjacency[idx][:, idx]
        ncomp, labels = csgraph.connected_components(sub, directed=False)
        if ncomp > 1:
            idx = idx[labels == int(np.argmax(np.bincount(labels)))]
        if 2 * int(chain.degrees[idx].sum()) > chain.total_degree:
            continue
        cut = pm.set_conductance(chain, idx)
        cuts.append(cut)
        if not cut.ac_connected:
            cuts.extend(reattach_complement(chain, cut))
    return cuts


def reference_profile_upper_box(chain, k_values=None):
    """The per-window profile with its envelope over ``CutValue`` fractions."""
    n, d = chain.graph.box.n, chain.graph.box.d
    ks = list(k_values) if k_values is not None else list(range(1, n))
    cuts = [cut for k in ks for off in _window_offsets(d, k)
            for cut in reference_window_cuts(chain, k, off)]
    total = chain.total_degree
    by_mass = {}
    for cut in cuts:
        if cut.deg_a not in by_mass or cut.phi_fraction < by_mass[cut.deg_a].phi_fraction:
            by_mass[cut.deg_a] = cut
    points = []
    running = running_cut = None
    for key in sorted(by_mass):
        cut = by_mass[key]
        if running is None or cut.phi_fraction < running:
            running, running_cut = cut.phi_fraction, cut
        points.append(ProfilePoint(key / total, float(running), "upper-bound",
                                   len(running_cut.members)))
    return ConductanceProfile(points)


def csv_bytes(profile, path):
    profile.to_csv(path)
    return path.read_bytes()


def assert_matches_reference(chain, tmp_path, k_values=None):
    fast = pm.profile_upper_box(chain, k_values=k_values)
    slow = reference_profile_upper_box(chain, k_values=k_values)
    assert csv_bytes(fast, tmp_path / "fast.csv") == csv_bytes(slow, tmp_path / "slow.csv")


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(d=st.sampled_from([2, 3]), data=st.data(),
       p=st.floats(0.45, 1.0), seed=st.integers(0, 2**32 - 1))
def test_profile_upper_box_matches_per_window_reference(tmp_path, d, data, p, seed):
    n = data.draw(st.integers(2, 9) if d == 2 else st.integers(2, 4), label="n")
    k_values = data.draw(st.one_of(
        st.none(), st.lists(st.integers(1, n - 1), min_size=1, max_size=n - 1, unique=True),
    ), label="k_values")
    config = pm.sample_bond_config(pm.BoxSpec(d, n), p, seed)
    assume(config.open_count > 0)
    cluster = pm.largest_cluster(config)
    assume(cluster.num_vertices >= 2)
    assert_matches_reference(pm.build_chain(cluster), tmp_path, k_values)


@pytest.mark.parametrize("n,seed", [(12, 0), (16, 1)])
def test_profile_upper_box_matches_reference_at_preset_sizes(tmp_path, n, seed):
    assert_matches_reference(cluster_chain(n, seed=seed), tmp_path)


def test_profile_upper_box_batches_in_chunks(tmp_path, monkeypatch):
    ch = cluster_chain(9, seed=3)
    whole = csv_bytes(pm.profile_upper_box(ch), tmp_path / "whole.csv")
    monkeypatch.setattr(conductance_module, "_BATCH_ENTRIES", 1)
    assert csv_bytes(pm.profile_upper_box(ch), tmp_path / "chunked.csv") == whole


def polyline_chain(n, polylines, mirror=False):
    """Chain of the cluster whose open edges are the given coordinate paths."""
    box = pm.BoxSpec(2, n)
    graph = pm.build_box(box)
    mask = np.zeros(box.edge_count, dtype=bool)
    sign = -1 if mirror else 1
    for line in polylines:
        ids = graph.coord_to_vertex([(sign * x, y) for x, y in line])
        for u, v in zip(ids[:-1], ids[1:]):
            mask[graph.edge_id(int(u), int(v))] = True
    return pm.build_chain(pm.largest_cluster(pm.BondConfig(box, 0.5, 0, mask)))


def center_window(chain):
    """Cluster indices inside the k=1 window around the origin."""
    return np.nonzero((np.abs(chain.graph.coords) <= 1).all(axis=1))[0]


def assert_tilings_match_reference(chain):
    n = chain.graph.box.n
    for k in range(1, n):
        for off in _window_offsets(2, k):
            wid = conductance_module._window_ids(chain.graph.coords, n, k, off)
            fast = conductance_module._tiling_cuts(chain, wid).tolist()
            slow = [[c.crossing, c.deg_a, len(c.members)]
                    for c in reference_window_cuts(chain, k, off)]
            assert fast == slow, (k, off)


@pytest.mark.parametrize("mirror", [False, True])
def test_window_with_two_equal_largest_pieces(mirror):
    # two 2-vertex pieces in the central window, joined above it; the
    # right-hand one carries an extra loop, so the choice changes the cut
    ch = polyline_chain(4, [
        [(-1, 0), (-1, 1), (-1, 2), (0, 2), (1, 2), (1, 1), (1, 0), (2, 0), (2, 1),
         (2, 2), (1, 2)],
    ], mirror)
    idx = center_window(ch)
    sub = ch.graph.adjacency[idx][:, idx]
    _, labels = csgraph.connected_components(sub, directed=False)
    sizes = np.bincount(labels)
    assert sorted(sizes)[-2:] == [2, 2]
    assert len({int(ch.degrees[idx[labels == j]].sum()) for j in range(2)}) == 2
    assert_tilings_match_reference(ch)


@pytest.mark.parametrize("mirror", [False, True])
def test_complement_with_two_equal_heaviest_components(mirror):
    # the central segment splits the cluster into a 4-vertex square and a
    # 5-vertex path, both of degree sum 9: the tie decides the witness size
    ch = polyline_chain(4, [
        [(-1, 0), (0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (4, 1), (4, 2)],
        [(-1, 0), (-2, 0), (-3, 0), (-3, 1), (-2, 1), (-2, 0)],
    ], mirror)
    piece = center_window(ch)
    rest = np.setdiff1d(np.arange(ch.m), piece)
    sub = ch.graph.adjacency[rest][:, rest]
    ncomp, labels = csgraph.connected_components(sub, directed=False)
    assert ncomp == 2
    assert [int(ch.degrees[rest[labels == j]].sum()) for j in range(2)] == [9, 9]
    assert sorted(np.bincount(labels).tolist()) == [4, 5]
    assert_tilings_match_reference(ch)
