import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse import csgraph

import percmix as pm
import percmix.conductance as conductance_module
from percmix.conductance import (
    EXHAUSTIVE_CAP,
    ConductanceProfile,
    ProfilePoint,
    _adjacency_bitmasks,
    _window_offsets,
    connected_subsets,
    reattach_complement,
)
from percmix.caps import DENSE_CAP
from percmix.errors import CapacityError, DomainError
from percmix.experiments import ExperimentConfig, _Instance
from percmix.spectral import SpectralResult
from helpers import (
    cheeger_exact,
    complete_graph,
    coord_to_vertex,
    cycle_graph,
    edge_id,
    full_box_cluster,
    path_graph,
    profile_is_non_increasing,
    profile_scaled,
    profile_value_at,
    single_edge,
)


def cut_sides_connected(chain, cut):
    """Whether the set of a cut, and its complement, each induce a connected subgraph."""
    inside = np.zeros(chain.m, dtype=bool)
    inside[list(cut.members)] = True
    sides = []
    for idx in (np.nonzero(inside)[0], np.nonzero(~inside)[0]):
        sub = chain.graph.adjacency[idx][:, idx]
        sides.append(csgraph.connected_components(sub, directed=False)[0] == 1)
    return tuple(sides)


def cluster_chain(n, p=0.7, seed=0, d=2):
    return pm.build_chain(pm.largest_cluster(
        pm.sample_bond_config(pm.BoxSpec(d, n), p, seed)
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


def profile_unrestricted(chain, cap=16):
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


def cheeger_unrestricted(chain, cap=16):
    """Brute-force Cheeger constant over all subsets (independent oracle)."""
    return min(profile_unrestricted(chain, cap).values())


def test_set_conductance_four_cycle():
    ch = pm.build_chain(cycle_graph(4))
    pair = pm.set_conductance(ch, [0, 1])
    assert pair.phi_fraction == Fraction(1)
    assert pair.crossing / pair.deg_total == pytest.approx(2 / 8)
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
    ch4 = pm.build_chain(cycle_graph(4))
    res4 = cheeger_exact(ch4)
    assert res4.phi_fraction == Fraction(1)
    assert len(res4.members) == 2
    assert cut_sides_connected(ch4, res4) == (True, True)

    assert cheeger_exact(pm.build_chain(single_edge())).phi_fraction == Fraction(2)
    # frozen value from the brute-force oracle run on the 3-path
    assert cheeger_exact(pm.build_chain(path_graph(3))).phi_fraction == Fraction(4, 3)


def test_cheeger_capacity_error():
    ch = cluster_chain(6)
    assert ch.m > EXHAUSTIVE_CAP
    with pytest.raises(CapacityError):
        cheeger_exact(ch)
    with pytest.raises(CapacityError):
        pm.profile_exact(ch)


def test_cheeger_restricted_equals_unrestricted():
    fixtures = [cycle_graph(m) for m in (3, 4, 5, 6, 8)]
    fixtures += [path_graph(m) for m in (2, 3, 5, 7)]
    fixtures += [complete_graph(m) for m in (3, 4, 5)]
    fixtures += [full_box_cluster(2, 1)]
    chains = [pm.build_chain(g) for g in fixtures] + tiny_random_chains(40)
    for ch in chains:
        oracle = cheeger_exact(ch).phi_fraction
        assert oracle == cheeger_unrestricted(ch)
        # the exact profile's last running minimum is the Cheeger constant
        assert pm.profile_exact(ch).points[-1].phi_fraction == oracle


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
    assert profile_is_non_increasing(prof)


def test_profile_two_state():
    prof = pm.profile_exact(pm.build_chain(single_edge()))
    assert [(p.x_fraction, p.phi_fraction) for p in prof.points] == [
        (Fraction(1, 2), Fraction(2)),
    ]
    with pytest.raises(DomainError):
        profile_value_at(prof, 0.25)


def test_profile_non_increasing_random():
    for ch in tiny_random_chains(15, start_seed=900):
        assert profile_is_non_increasing(pm.profile_exact(ch))


def envelope_by_fractions(cuts, total):
    """(x, phi, witness size) of the running minimum, by ``Fraction`` comparison."""
    best = {}
    for crossing, deg, size in cuts:
        if deg not in best or crossing < best[deg][0]:
            best[deg] = (crossing, size)
    out, running = [], None
    for deg in sorted(best):
        crossing, size = best[deg]
        phi = Fraction(crossing * total, deg * (total - deg))
        if running is None or phi < running[0]:
            running = (phi, size)
        out.append((Fraction(deg, total), running[0], running[1]))
    return out


def envelope_points(profile):
    return [(p.x_fraction, p.phi_fraction, p.witness_size) for p in profile.points]


def test_lower_envelope_keeps_the_first_witness_of_an_equal_phi():
    # 3·100/(10·90) and 7·100/(30·70) are both 1/3 in different terms; the
    # later, heavier cut does not take the witness, the strictly lower one does
    cuts = [(7, 30, 12), (3, 10, 5), (9, 30, 2), (5, 40, 7), (6, 50, 9)]
    prof = ConductanceProfile.lower_envelope(cuts, 100, "upper-bound")
    assert envelope_points(prof) == [
        (Fraction(1, 10), Fraction(1, 3), 5),
        (Fraction(3, 10), Fraction(1, 3), 5),
        (Fraction(2, 5), Fraction(5, 24), 7),
        (Fraction(1, 2), Fraction(5, 24), 7),
    ]
    assert envelope_points(prof) == envelope_by_fractions(cuts, 100)
    assert [p.phi for p in prof.points] == [float(p.phi_fraction) for p in prof.points]
    assert prof.cuts == 0


@pytest.mark.parametrize("cuts, witness", [
    ([(900, 3_000_000, 1), (900, 3_001_000, 2)], 2),
    ([(907, 3_000_000, 1), (908, 3_000_001, 2)], 1),
], ids=["improves", "does-not-improve"])
def test_lower_envelope_orders_products_beyond_int64(cuts, witness):
    total = 10**7 + 19
    (a, k1, _), (b, k2, _) = cuts
    c1, q1, c2, q2 = a * total, k1 * (total - k1), b * total, k2 * (total - k2)
    assert min(c1 * q2, c2 * q1) > 2**63
    # int64 products wrap here and would order the two cuts the other way
    with np.errstate(over="ignore"):
        wrapped = bool(np.int64(c2) * np.int64(q1) < np.int64(c1) * np.int64(q2))
    assert wrapped != (c2 * q1 < c1 * q2)
    prof = ConductanceProfile.lower_envelope(cuts, total, "upper-bound")
    assert envelope_points(prof) == envelope_by_fractions(cuts, total)
    assert prof.points[1].witness_size == witness


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
        assert pm.lk_bound(profile_scaled(prof, c), ch.pi_min) == pytest.approx(base / c**2)


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
        exact = cheeger_exact(ch)
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


def dense_vector_spectral(chain):
    """The second eigenpair from a dense LAPACK solve, signed as `spectral_gap` signs it."""
    m = chain.m
    w, v = scipy.linalg.eigh(chain.symmetrized.toarray(), subset_by_index=[m - 2, m - 2])
    vec = v[:, 0]
    if vec[np.nonzero(vec)[0][0]] < 0:
        vec = -vec
    return SpectralResult(gap=-float(w[0]), method="dense", residual=0.0, vector=vec)


@pytest.mark.slow
@pytest.mark.parametrize("n_list, dense_cap", [((6, 9, 12, 16, 21), DENSE_CAP),
                                               ((8, 12, 16, 24, 32), 2500)])
def test_sweep_cut_matches_dense_vector_route(n_list, dense_cap):
    # the preset and the criterion-3 instances: a Fiedler vector from the sparse
    # solve may order tied vertices differently, but must cut the same
    cfg = ExperimentConfig(n_list=n_list, seed_list=tuple(range(5)),
                           quantities=("phi_upper",), dense_cap=dense_cap)
    for n in n_list:
        for seed in range(5):
            inst = _Instance(cfg, n, seed)
            phi_upper, _ = inst.phi_upper_value()
            oracle = pm.sweep_cut(inst.chain, dense_vector_spectral(inst.chain))
            assert inst.sweep.phi == oracle.phi, (n, seed)
            windows = min(point.phi for point in inst.box_profile.points)
            assert phi_upper == min(oracle.phi, windows), (n, seed)


def test_reattach_complement_improves_path_cut():
    ch = pm.build_chain(path_graph(5))
    cut = pm.set_conductance(ch, [2])
    assert cut_sides_connected(ch, cut) == (True, False)
    improved = reattach_complement(ch, cut)
    assert len(improved) == 1
    better = improved[0]
    assert cut_sides_connected(ch, better) == (True, True)
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
    prof = pm.profile_upper_box(ch)
    assert prof.points
    assert profile_is_non_increasing(prof)
    # emitted values are genuine cut values: re-evaluate a window directly
    k = 1
    coords = ch.graph.coords
    mask = (np.abs(coords - np.array([0, 0])) <= k).all(axis=1)
    cut = pm.set_conductance(ch, np.nonzero(mask)[0])
    xs = [p for p in prof.points if p.x_fraction == Fraction(cut.deg_a, cut.deg_total)]
    assert xs and xs[0].phi <= cut.phi + 1e-12


def test_profile_upper_box_dominates_exact():
    # B_2(1) full grid: 9 vertices, exact profile available
    ch = pm.build_chain(full_box_cluster(2, 1))
    exact = pm.profile_exact(ch)
    upper = pm.profile_upper_box(ch)
    for point in upper.points:
        assert point.phi >= profile_value_at(exact, point.x) - 1e-12


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
        cuts.extend(reattach_complement(chain, cut))  # none if the complement is connected
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


# d=3 at p=0.4 (p_c ~ 0.249) so that complements split; the property test
# stops at n=4 there
@pytest.mark.parametrize("n,seed,d,p", [(12, 0, 2, 0.7), (16, 1, 2, 0.7), (6, 0, 3, 0.4),
                                       (6, 0, 3, 0.7)],
                         ids=["12-0", "16-1", "d3-6-0", "d3-6-0-p07"])
def test_profile_upper_box_matches_reference_at_preset_sizes(tmp_path, n, seed, d, p):
    assert_matches_reference(cluster_chain(n, p, seed, d), tmp_path)


def test_profile_upper_box_batches_in_chunks(tmp_path, monkeypatch):
    ch = cluster_chain(9, seed=3)
    whole = csv_bytes(pm.profile_upper_box(ch), tmp_path / "whole.csv")
    monkeypatch.setattr(conductance_module, "_BATCH_ENTRIES", 1)
    assert csv_bytes(pm.profile_upper_box(ch), tmp_path / "chunked.csv") == whole


def count_calls(monkeypatch, name):
    """Wrap a ``conductance`` function so that its calls are counted."""
    calls = []
    inner = getattr(conductance_module, name)

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(conductance_module, name, counted)
    return calls


# d=3 at p=0.4 so that complements split
@pytest.mark.parametrize("n,seed,d,p", [(9, 3, 2, 0.7), (6, 0, 3, 0.4)], ids=["9-3", "d3-6-0"])
def test_one_chunk_holds_every_radius_and_tiling(tmp_path, monkeypatch, n, seed, d, p):
    ch = cluster_chain(n, p, seed, d)
    whole = csv_bytes(pm.profile_upper_box(ch), tmp_path / "whole.csv")
    monkeypatch.setattr(conductance_module, "_BATCH_ENTRIES", 1 << 62)
    contractions = count_calls(monkeypatch, "_cell_pieces")
    passes = count_calls(monkeypatch, "_piece_cuts")
    assert csv_bytes(pm.profile_upper_box(ch), tmp_path / "one.csv") == whole
    assert len(contractions) == len(passes) == 1
    assert contractions[0][1].shape[0] == n - 1
    tilings = [(k, off) for k in range(1, n) for off in _window_offsets(d, k)
               if max(off) <= 2 * (n - k)]
    assert passes[0][2].size == len(tilings)
    assert_matches_reference(ch, tmp_path)


def test_one_radius_and_one_tiling_per_chunk(monkeypatch):
    ch = cluster_chain(9, seed=3)
    whole = pm.profile_upper_box(ch).points
    monkeypatch.setattr(conductance_module, "_BATCH_ENTRIES", 1)
    contractions = count_calls(monkeypatch, "_cell_pieces")
    passes = count_calls(monkeypatch, "_piece_cuts")
    assert pm.profile_upper_box(ch).points == whole
    assert len(contractions) == 8
    assert all(call[1].shape[0] == 1 for call in contractions)
    assert all(call[2].size == 1 for call in passes)


def reference_cells(chain, keep):
    """Cell pieces of each copy by one components call per copy."""
    eu, ev = chain.graph.edges_local.T
    cells = []
    for row in keep:
        sub = sparse.coo_matrix((np.ones(int(row.sum())), (eu[row], ev[row])),
                                shape=(chain.m, chain.m))
        _, labels = csgraph.connected_components(sub, directed=False)
        # number the cells by their lowest vertex
        lowest = np.full(labels.max() + 1, chain.m)
        np.minimum.at(lowest, labels, np.arange(chain.m))
        rank = np.argsort(np.argsort(lowest))
        labels = rank[labels]
        cut = ~row
        ends = np.sort(np.stack([labels[eu[cut]], labels[ev[cut]]], axis=1), axis=1)
        pairs, mult = np.unique(ends, axis=0, return_counts=True)
        cells.append(dict(
            vertex=np.sort(lowest), size=np.bincount(labels),
            deg=np.bincount(labels, weights=chain.degrees).astype(np.int64),
            inner=np.bincount(labels[eu[row]], minlength=labels.max() + 1),
            pairs=pairs, mult=mult,
        ))
    return cells


def assert_cells_match_reference(chain, keep):
    cells = conductance_module._cell_pieces(chain, keep)
    for r, ref in enumerate(reference_cells(chain, keep)):
        lo, hi = cells.start[r], cells.start[r + 1]
        for field in ("vertex", "size", "deg", "inner"):
            assert np.array_equal(getattr(cells, field)[lo:hi], ref[field]), (r, field)
        e_lo, e_hi = cells.edge_start[r], cells.edge_start[r + 1]
        pairs = np.stack([cells.eu[e_lo:e_hi], cells.ev[e_lo:e_hi]], axis=1) - lo
        assert np.array_equal(pairs, ref["pairs"].reshape(-1, 2)), r
        assert np.array_equal(cells.mult[e_lo:e_hi], ref["mult"]), r


def test_cell_pieces_match_one_contraction_per_copy():
    # each radius of the n=9 cluster, its tilings' window boundaries cut at once
    ch = cluster_chain(9, seed=3)
    n = 9
    eu, ev = ch.graph.edges_local.T
    keep = np.ones((n - 1, eu.size), dtype=bool)
    for k in range(1, n):
        for off in _window_offsets(2, k):
            wid = conductance_module._window_ids(ch.graph.coords, n, k, off)
            keep[k - 1] &= wid[eu] == wid[ev]
    assert_cells_match_reference(ch, keep)


def test_cell_pieces_of_many_copies_keep_their_edge_pairs():
    # with no edge kept every vertex is a cell, and 30 copies of the n=21
    # cluster make so many cells that a cell pair key passes the int32 range
    # of csgraph's labels
    ch = cluster_chain(21)
    keep = np.zeros((30, ch.graph.edges_local.shape[0]), dtype=bool)
    assert (30 * ch.m) ** 2 > 2**31
    assert_cells_match_reference(ch, keep)


def test_chunk_boundary_inside_one_radius(tmp_path, monkeypatch):
    # two tilings per chunk, and k=1 has three offsets, so the second chunk
    # holds the last tiling of k=1 and the first of k=2
    ch = cluster_chain(9, seed=3)
    whole = csv_bytes(pm.profile_upper_box(ch), tmp_path / "whole.csv")
    assert len(_window_offsets(2, 1)) == 3
    monkeypatch.setattr(conductance_module, "_BATCH_ENTRIES",
                        2 * (ch.m + ch.graph.edges_local.shape[0]))
    assert csv_bytes(pm.profile_upper_box(ch), tmp_path / "chunked.csv") == whole


def test_traversal_that_is_not_depth_first_is_refused(monkeypatch):
    # a breadth-first tree leaves edges between cousins on a full grid
    ch = pm.build_chain(full_box_cluster(2, 3))
    monkeypatch.setattr(conductance_module.csgraph, "depth_first_order",
                        csgraph.breadth_first_order)
    with pytest.raises(RuntimeError, match="not a depth-first search"):
        pm.profile_upper_box(ch)


def polyline_chain(n, polylines, mirror=False):
    """Chain of the cluster whose open edges are the given coordinate paths."""
    box = pm.BoxSpec(2, n)
    graph = pm.build_box(box)
    mask = np.zeros(box.edge_count, dtype=bool)
    sign = -1 if mirror else 1
    for line in polylines:
        ids = coord_to_vertex(graph, [(sign * x, y) for x, y in line])
        for u, v in zip(ids[:-1], ids[1:]):
            mask[edge_id(graph, int(u), int(v))] = True
    return pm.build_chain(pm.largest_cluster(pm.BondConfig(box, 0.5, 0, mask)))


def center_window(chain):
    """Cluster indices inside the k=1 window around the origin."""
    return np.nonzero((np.abs(chain.graph.coords) <= 1).all(axis=1))[0]


def tiling_cuts(chain, wid):
    """(crossing, degree sum, size) rows of the tilings' cuts, in tiling and window order.

    ``wid`` holds one row of window ids per tiling; the tilings run on the
    cell pieces of their common refinement.
    """
    wid = np.atleast_2d(wid)
    eu, ev = chain.graph.edges_local.T
    cells = conductance_module._cell_pieces(chain, (wid[:, eu] == wid[:, ev]).all(axis=0)[None])
    return conductance_module._piece_cuts(chain, cells, np.zeros(wid.shape[0], dtype=np.int64),
                                          wid[:, cells.vertex].ravel())


def assert_tilings_match_reference(chain):
    n = chain.graph.box.n
    for k in range(1, n):
        for off in _window_offsets(2, k):
            wid = conductance_module._window_ids(chain.graph.coords, n, k, off)
            fast = tiling_cuts(chain, wid).tolist()
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


@pytest.mark.parametrize("mirror", [False, True])
def test_piece_joined_to_its_neighbour_by_two_edges(mirror):
    # the central piece hangs off the piece to its right by two cluster
    # edges, so that double edge is the tree edge in every depth-first
    # search, and removing the central piece splits nothing
    ch = polyline_chain(4, [
        [(-1, 0), (0, 0), (1, 0), (1, 1), (2, 1), (2, 0), (1, 0)],
        [(2, 0), (3, 0), (4, 0), (4, 1), (4, 2), (4, 3), (3, 3), (2, 3)],
    ], mirror)
    piece = center_window(ch)
    eu, ev = ch.graph.edges_local.T
    inside = np.isin(np.arange(ch.m), piece)
    cut = inside[eu] != inside[ev]
    outside = np.where(inside[eu[cut]], ev[cut], eu[cut])
    assert outside.size == 2
    assert (np.abs(ch.graph.coords[outside][:, 0]) == 2).all()
    assert cut_sides_connected(ch, pm.set_conductance(ch, piece))[1]
    assert_tilings_match_reference(ch)


@pytest.mark.parametrize("line, splits", [
    # arms above and to the right of the central piece
    ([(-1, 4), (-1, 3), (-1, 2), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1), (2, -1),
      (3, -1), (4, -1), (4, 0), (4, 1)], True),
    # one arm, leaving the central piece's complement connected
    ([(-1, -1), (0, -1), (1, -1), (1, 0), (1, 1), (2, 1), (3, 1), (4, 1), (4, 2), (4, 3),
      (4, 4)], False),
], ids=["two-arms", "one-arm"])
def test_chosen_piece_at_the_traversal_root(line, splits):
    # the central piece holds vertex 0, whose piece the search starts from
    ch = polyline_chain(4, [line])
    piece = center_window(ch)
    assert 0 in piece
    assert cut_sides_connected(ch, pm.set_conductance(ch, piece))[1] != splits
    assert_tilings_match_reference(ch)


def test_every_interior_piece_of_a_path_splits():
    # a snake through the whole box: the cluster is a path, so removing any
    # piece that does not hold an end disconnects it
    rows = [[(x, y) for x in (range(-4, 5) if (y + 4) % 2 == 0 else range(4, -5, -1))]
            for y in range(-4, 5)]
    ch = polyline_chain(4, [[v for row in rows for v in row]])
    assert ch.m == 81 and ch.graph.edges_local.shape[0] == 80
    assert_tilings_match_reference(ch)


def test_component_numbering_out_of_lowest_node_order_is_refused(monkeypatch):
    ch = cluster_chain(4)
    components = csgraph.connected_components

    def reversed_labels(graph, directed=True):
        count, labels = components(graph, directed=directed)
        return count, count - 1 - labels

    monkeypatch.setattr(conductance_module.csgraph, "connected_components", reversed_labels)
    with pytest.raises(RuntimeError, match="not numbered by their lowest node"):
        pm.profile_upper_box(ch)


def test_pass_numbering_out_of_lowest_node_order_is_refused(monkeypatch):
    # the contraction's labels pass; the tilings' piece labels come reversed
    ch = cluster_chain(4)
    components = csgraph.connected_components
    calls = []

    def reversed_after_first(graph, directed=True):
        count, labels = components(graph, directed=directed)
        calls.append(count)
        return count, labels if len(calls) == 1 else count - 1 - labels

    monkeypatch.setattr(conductance_module.csgraph, "connected_components", reversed_after_first)
    with pytest.raises(RuntimeError, match="not numbered by their lowest node"):
        pm.profile_upper_box(ch)
    assert len(calls) == 2


def outside_components(chain, piece, k, off):
    """Components of the complement of ``piece`` outside every window of (k, off)."""
    n = chain.graph.box.n
    wid = conductance_module._window_ids(chain.graph.coords, n, k, off)
    rest = np.setdiff1d(np.arange(chain.m), piece)
    sub = chain.graph.adjacency[rest][:, rest]
    ncomp, labels = csgraph.connected_components(sub, directed=False)
    return [rest[labels == j] for j in range(ncomp) if (wid[rest[labels == j]] < 0).all()]


def only_window_piece(chain, k, off):
    """Cluster indices inside the single window of (k, off)."""
    n = chain.graph.box.n
    wid = conductance_module._window_ids(chain.graph.coords, n, k, off)
    assert wid.max() == 0
    return np.nonzero(wid == 0)[0]


@pytest.mark.parametrize("mirror", [False, True])
def test_complement_component_outside_every_window(mirror):
    # at n=4 each k=3 tiling has one window: [-4, 2]^2 at offset 0, and
    # [-2, 4] x [-4, 2] at offset (2, 0) for the mirror image. The piece in
    # it is a 3-vertex segment whose complement is two arms lying wholly
    # outside the window, each merged into one quotient node
    ch = polyline_chain(4, [
        [(4, 2), (3, 2), (2, 2), (1, 2), (0, 2), (0, 3), (0, 4), (-1, 4), (-2, 4), (-3, 4),
         (-4, 4), (-4, 3)],
    ], mirror)
    off = (2, 0) if mirror else (0, 0)
    piece = only_window_piece(ch, 3, off)
    assert piece.size == 3
    assert sorted(c.size for c in outside_components(ch, piece, 3, off)) == [2, 7]
    assert not cut_sides_connected(ch, pm.set_conductance(ch, piece))[1]
    assert_tilings_match_reference(ch)


@pytest.mark.parametrize("mirror", [False, True])
def test_complement_tie_decided_outside_every_window(mirror):
    # a 4-vertex square and a 5-vertex path hang off the window piece, both
    # of degree sum 9 and both outside the only window of the k=3 tiling:
    # the lowest vertex, outside every window, decides the witness size
    ch = polyline_chain(4, [
        [(-1, 2), (0, 2), (1, 2), (1, 3), (2, 3), (3, 3), (4, 3), (4, 4)],
        [(-1, 2), (-1, 3), (-2, 3), (-2, 4), (-1, 4), (-1, 3)],
    ], mirror)
    piece = only_window_piece(ch, 3, (0, 0))
    assert piece.size == 3
    parts = outside_components(ch, piece, 3, (0, 0))
    assert sorted(c.size for c in parts) == [4, 5]
    assert [int(ch.degrees[c].sum()) for c in parts] == [9, 9]
    assert_tilings_match_reference(ch)


def test_offset_tilings_without_a_window_are_skipped(tmp_path):
    # at n=9 an offset past 2(n - k) leaves no window: both of k=8's and one
    # of k=7's offsets per axis
    ch = cluster_chain(9, seed=3)
    n, k_values = 9, [7, 8]
    empty = [(k, off) for k in k_values for off in _window_offsets(2, k)
             if max(off) > 2 * (n - k)]
    assert len(empty) == 6
    for k, off in empty:
        assert (conductance_module._window_ids(ch.graph.coords, n, k, off) == -1).all()
    assert_matches_reference(ch, tmp_path, k_values)
