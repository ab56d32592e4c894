import math
from unittest import mock

import numpy as np
import pytest
from scipy.sparse import csgraph
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import percmix as pm
from percmix import chain as chain_module
from percmix import spectral as spectral_module
from percmix.chain import MODE_TOL, _mode_floor, count_above, top_eigenpairs
from percmix.errors import DomainError, EmptyClusterError, InequalityViolationError
from percmix.spectral import (
    _gap_floor,
    _RootedCopies,
    distance_variance_lower_bound,
    spectral_gap,
    sweep_ordering,
)
from helpers import (
    complete_graph,
    cycle_graph,
    full_box_cluster,
    path_graph,
    single_edge,
)


def cluster_chain(n, p=0.7, seed=0, d=2):
    return pm.build_chain(pm.largest_cluster(
        pm.sample_bond_config(pm.BoxSpec(d, n), p, seed)
    ))


def patched(name, value):
    """Patch a name of the chain module, whose solves the gap reads too."""
    return mock.patch.object(chain_module, name, value)


def sparse_route():
    """Send every chain with more than 8 vertices down the sparse eigensolve."""
    return patched("SPARSE_EIGEN_MIN", 8)


def drawn_chain(box, p, seed, min_vertices=30):
    """Chain on the largest cluster of a drawn (d, n) box, or skip the example."""
    d, n = box
    try:
        chain = cluster_chain(n, p=p, seed=seed, d=d)
    except (EmptyClusterError, DomainError):
        assume(False)
    assume(chain.m >= min_vertices)
    return chain


BOXES = st.sampled_from([(2, 4), (2, 6), (2, 8), (2, 9), (3, 2), (3, 3)])
SEEDS = st.integers(0, 10_000)
PS = st.floats(0.45, 1.0)


def in_eigenspace(vector, w, v, lam, tol=1e-8):
    """Whether the unit vector lies in the eigenspace of eigenvalue lam."""
    basis = v[:, np.abs(w - lam) < 1e-9]
    rest = vector - basis @ (basis.T @ vector)
    return np.linalg.norm(rest) < tol


def test_gap_two_state():
    res = spectral_gap(pm.build_chain(single_edge()))
    assert res.gap == pytest.approx(2.0, abs=1e-12)
    assert res.tau2 == pytest.approx(0.5, abs=1e-12)
    assert res.method == "dense"


def test_gap_four_cycle():
    res = spectral_gap(pm.build_chain(cycle_graph(4)))
    assert res.gap == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("m", [3, 5, 8])
def test_gap_complete_graph(m):
    res = spectral_gap(pm.build_chain(complete_graph(m)))
    assert res.gap == pytest.approx(m / (m - 1), abs=1e-10)


def test_gap_in_range_and_residual():
    ch = cluster_chain(8)
    res = spectral_gap(ch)
    assert 0 < res.gap <= 2
    assert res.residual < 1e-10


def test_dense_and_iterative_agree():
    for n, seed in ((5, 0), (8, 1), (10, 2)):
        ch = cluster_chain(n, p=1.0 if n == 5 else 0.7, seed=seed)
        assert ch.m >= 100
        w, v = ch.eigensystem
        dense = spectral_gap(ch)
        iterative = spectral_gap(ch, dense_cap=10)
        with sparse_route():
            certified = spectral_gap(cluster_chain(n, p=1.0 if n == 5 else 0.7, seed=seed))
        assert dense.method == certified.method == "dense"
        assert iterative.method == "iterative"
        for res in (dense, iterative, certified):
            assert abs(res.gap + w[-2]) < 1e-12
            assert in_eigenspace(res.vector, w, v, w[-2])
            assert res.residual < 1e-12


FIXTURES = {
    "edge": single_edge, "c4": lambda: cycle_graph(4), "c7": lambda: cycle_graph(7),
    "k5": lambda: complete_graph(5), "path6": lambda: path_graph(6),
    "box2x3": lambda: full_box_cluster(2, 3),
}


@pytest.mark.parametrize("name", FIXTURES)
def test_gap_agrees_with_dense_spectrum_on_fixtures(name):
    ch = pm.build_chain(FIXTURES[name]())
    w, v = ch.eigensystem
    res = spectral_gap(ch)
    assert abs(res.gap + w[-2]) < 1e-12
    assert in_eigenspace(res.vector, w, v, w[-2])
    assert res.residual < 1e-12
    assert _gap_floor(ch) < w[-2]


@pytest.mark.parametrize("name", ["edge", "c4", "k5"])
def test_gap_floor_met_with_equality(name):
    # the distance from vertex 0 attains min E(f, f) / Var(f) on these graphs,
    # so only the relative margin keeps the floor below lambda_2
    ch = pm.build_chain(FIXTURES[name]())
    gap = -ch.eigensystem[0][-2]
    assert -_gap_floor(ch) == pytest.approx(gap * (1.0 + 1e-9), rel=1e-12)


@pytest.mark.parametrize("n", [6, 10])
def test_gap_is_the_same_before_and_after_mixing(n):
    ch = cluster_chain(n)
    before = spectral_gap(ch)
    pm.mixing_time(ch, resolution=1.0, mode="stationarity")
    # the chain holds its inputs and cached properties, and none of the search's solves
    assert set(vars(ch)) <= {"graph", "m", "degrees", "total_degree", "pi",
                             "symmetrized", "shift_factor", "eigensystem"}
    after = spectral_gap(ch)
    if ch.m > chain_module.SPARSE_EIGEN_MIN:
        assert "eigensystem" not in vars(ch)  # both came from the certified sparse solve
    assert after.gap == before.gap
    assert after.vector.tobytes() == before.vector.tobytes()


@given(BOXES, PS, SEEDS, st.floats(0.0, 1.0))
@settings(max_examples=40, deadline=None)
def test_inertia_count_matches_dense_spectrum(box, p, seed, u):
    ch = drawn_chain(box, p, seed)
    w = ch.eigensystem[0]
    theta = -2.05 + 2.1 * u
    assume(np.abs(w - theta).min() > 1e-6)
    assert count_above(ch.symmetrized, theta) == int(np.count_nonzero(w > theta))


def test_inertia_count_survives_a_vanishing_pivot():
    # near theta = -1 the cluster's bipartite S - theta I has a zero diagonal,
    # and the sparse factorization pivots off it
    ch = cluster_chain(2, p=0.75, seed=19, d=3)
    theta = -2.05 + 2.1 * 0.5
    lu = chain_module._symmetric_lu(ch.symmetrized, theta)
    assert not np.array_equal(lu.perm_r, lu.perm_c)
    w = ch.eigensystem[0]
    assert count_above(ch.symmetrized, theta) == int(np.count_nonzero(w > theta))


@given(BOXES, PS, SEEDS, st.floats(0.0, 1.0))
@settings(max_examples=40, deadline=None)
def test_certified_pairs_match_dense_suffix(box, p, seed, u):
    ch = drawn_chain(box, p, seed)
    w, v = ch.eigensystem
    k = 1 + int(u * (ch.m // 4 - 2))  # modes above theta, within the sparse route's range
    assume(w[-k] - w[-k - 1] > 1e-6)
    theta = 0.5 * (w[-k] + w[-k - 1])
    with sparse_route():
        fresh = cluster_chain(box[1], p=p, seed=seed, d=box[0])
        _, got_w, got_v = fresh.solve_above(theta)
    cut = got_w.size - int(np.count_nonzero(got_w > theta))  # the dense fallback has all
    got_w, got_v = got_w[cut:], got_v[:, cut:]
    assert got_w.size == k
    assert np.abs(got_w - w[-k:]).max() < 1e-12
    projector = got_v @ got_v.T
    assert np.abs(projector - v[:, -k:] @ v[:, -k:].T).max() < 1e-9
    assert not got_w.flags.writeable and not got_v.flags.writeable


def test_sparse_route_runs_on_clusters():
    ch = cluster_chain(10)
    assert ch.m > chain_module.SPARSE_EIGEN_MIN
    gap = spectral_gap(ch).gap
    theta = _mode_floor(ch.m, 1.0 / gap, MODE_TOL)  # the mixing search's floor at tau2
    floor, w, _ = ch.solve_above(theta)
    assert floor == theta  # certified, not the dense fallback
    assert "eigensystem" not in ch.__dict__  # no dense solve happened
    assert 2 < w.size < ch.m // 4
    # the mixing search at tau2 reads exactly this block
    assert pm.mixing_time(ch, tau2_hint=1.0 / gap).modes == w.size


@pytest.mark.parametrize("tamper", ["count", "pairs"])
def test_certificate_mismatch_falls_back_to_dense(tamper):
    ch = cluster_chain(10, seed=3)
    w, v = ch.eigensystem
    reference = spectral_gap(cluster_chain(10, seed=3))
    theta = 0.5 * (w[-6] + w[-7])
    fresh = cluster_chain(10, seed=3)
    if tamper == "count":
        # one more eigenvalue above theta than the solve finds
        def wrong_count(s, x):
            return count_above(s, x) + 1

        tampered = patched("count_above", wrong_count)
    else:
        # a solve that misses the top pair
        def wrong_pairs(s, lu, k):
            got_w, got_v = top_eigenpairs(s, lu, k + 1)
            return got_w[:-1], got_v[:, :-1]

        tampered = patched("top_eigenpairs", wrong_pairs)
    with tampered:
        floor, got_w, got_v = fresh.solve_above(theta)
        spec = spectral_gap(fresh)
    assert floor == -math.inf  # the dense fallback
    assert np.array_equal(got_w, w) and np.array_equal(got_v, v)
    assert spec.gap == -w[-2] and spec.method == "dense"
    assert abs(spec.gap - reference.gap) < 1e-12
    assert np.abs(spec.vector - reference.vector).max() < 1e-9


def test_gap_reports_inertia_and_route():
    ch = cluster_chain(10)
    floor = _gap_floor(ch)
    certified = spectral_gap(ch)  # above SPARSE_EIGEN_MIN: the sparse solve
    assert not certified.dense
    assert certified.inertia == count_above(ch.symmetrized, floor)
    with patched("SPARSE_EIGEN_MIN", ch.m):
        dense = spectral_gap(cluster_chain(10))
    assert dense.dense
    assert dense.inertia == np.count_nonzero(ch.eigensystem[0] > floor) == certified.inertia
    assert dense.inertia >= 2


def dijkstra_rows(graph, sources):
    return csgraph.dijkstra(graph.adjacency, indices=sources, unweighted=True)


@given(BOXES, PS, SEEDS, st.integers(1, 5), st.integers(1, 12))
@settings(max_examples=40, deadline=None)
def test_rooted_copies_rows_equal_dijkstra(box, p, seed, copies, count):
    graph = drawn_chain(box, p, seed, min_vertices=10).graph
    sources = np.random.default_rng(seed).permutation(graph.num_vertices)[:count]
    search = _RootedCopies(graph.adjacency, copies)
    assert np.array_equal(search.rows(sources), dijkstra_rows(graph, sources))
    # a reused search with fewer sources than copies reads a prefix of them
    assert np.array_equal(search.rows(sources[:1]), dijkstra_rows(graph, sources[:1]))


@pytest.mark.parametrize("copies", [1, 3])
def test_rooted_copies_on_the_single_edge(copies):
    graph = single_edge()
    search = _RootedCopies(graph.adjacency, copies)
    assert search.rows(np.array([1])).tolist() == [[1.0, 0.0]]
    assert search.rows(np.array([0, 1])).tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_variance_bound_refuses_a_depth_first_traversal(monkeypatch):
    ch = cluster_chain(6)
    monkeypatch.setattr(spectral_module.csgraph, "breadth_first_order",
                        csgraph.depth_first_order)
    with pytest.raises(RuntimeError, match="not a breadth-first search"):
        distance_variance_lower_bound(ch)  # many copies per search
    with pytest.raises(RuntimeError, match="not a breadth-first search"):
        _gap_floor(ch)  # one copy


@given(BOXES, PS, SEEDS)
@settings(max_examples=20, deadline=None)
def test_spectral_vector_is_deterministic(box, p, seed):
    drawn_chain(box, p, seed)
    with sparse_route():
        first = spectral_gap(cluster_chain(box[1], p=p, seed=seed, d=box[0]))
        second = spectral_gap(cluster_chain(box[1], p=p, seed=seed, d=box[0]))
    assert first.vector.tobytes() == second.vector.tobytes()
    assert first.gap == second.gap


def source_variances(chain, sources):
    """Var_pi of the graph distance from each source, one row-wise reduction per row."""
    dist = csgraph.dijkstra(chain.graph.adjacency, indices=sources,
                            unweighted=True, directed=False)
    mean = (dist * chain.pi).sum(axis=1)
    return (dist * dist * chain.pi).sum(axis=1) - mean**2


def exhaustive_variance_bound(chain, batch=512):
    """Every source in index order; the first of equal maxima wins (the oracle)."""
    best, best_src = -1.0, -1
    for lo in range(0, chain.m, batch):
        var = source_variances(chain, np.arange(lo, min(lo + batch, chain.m)))
        j = int(np.argmax(var))
        if var[j] > best:
            best, best_src = float(var[j]), lo + j
    return best, best_src


def small_batches(size):
    return mock.patch.object(spectral_module, "_SOURCE_BATCH", size)


def test_variance_bound_two_state():
    res = distance_variance_lower_bound(pm.build_chain(single_edge()))
    assert res.value == pytest.approx(0.25)


@pytest.mark.parametrize("batch", [1, 2, 32])
@pytest.mark.parametrize("graph", [cycle_graph(4), cycle_graph(8), cycle_graph(16),
                                   complete_graph(3), complete_graph(6)])
def test_variance_bound_ties_go_to_source_zero(graph, batch):
    ch = pm.build_chain(graph)
    # every source's variance rounds to the same float on these graphs
    assert np.unique(source_variances(ch, np.arange(ch.m))).size == 1
    with small_batches(batch):
        res = distance_variance_lower_bound(ch)
    assert res.source == 0
    assert (res.value, res.source) == exhaustive_variance_bound(ch)


def test_variance_bound_four_cycle():
    res = distance_variance_lower_bound(pm.build_chain(cycle_graph(4)))
    assert res.value == pytest.approx(0.5)


@pytest.mark.parametrize("m", [3, 4, 6])
def test_variance_bound_complete_graph(m):
    res = distance_variance_lower_bound(pm.build_chain(complete_graph(m)))
    assert res.value == pytest.approx((m - 1) / m**2)


def test_variance_bound_below_relaxation_time():
    for n, seed in ((5, 0), (7, 3), (9, 5)):
        ch = cluster_chain(n, seed=seed)
        var = distance_variance_lower_bound(ch).value
        tau2 = spectral_gap(ch).tau2
        assert var <= tau2 * (1 + 1e-8)


@given(BOXES, PS, SEEDS, st.sampled_from([1, 3, 8]))
@settings(max_examples=40, deadline=None)
def test_variance_bound_pruned_equals_exhaustive(box, p, seed, batch):
    ch = drawn_chain(box, p, seed, min_vertices=10)
    with small_batches(batch):
        res = distance_variance_lower_bound(ch)
    assert (res.value, res.source) == exhaustive_variance_bound(ch)


def test_variance_bound_value_independent_of_batch():
    # a product with the stationary law would round this source's variance
    # differently inside its 512-row block than alone
    ch = cluster_chain(21, seed=3)
    res = distance_variance_lower_bound(ch)
    assert res.source == 1782
    alone = source_variances(ch, [res.source])[0]
    block = source_variances(ch, np.arange(1536, 1824))[res.source - 1536]
    assert res.value == alone == block
    assert (res.value, res.source) == exhaustive_variance_bound(ch)


def test_sandwich_check_passes_fixtures():
    ch = pm.build_chain(single_edge())
    spec = spectral_gap(ch)
    rep = pm.sandwich_check(0.5, spec, ch.pi_min)
    assert rep.lower_slack == pytest.approx(0.0, abs=1e-12)
    assert rep.upper == pytest.approx(0.5 * (1 + 0.5 * np.log(2)))

    ch4 = pm.build_chain(cycle_graph(4))
    rep4 = pm.sandwich_check(1.0, spectral_gap(ch4), ch4.pi_min)
    assert rep4.upper == pytest.approx(1 + 0.5 * np.log(4))


def test_sandwich_check_detects_violation():
    ch = pm.build_chain(cycle_graph(4))
    spec = spectral_gap(ch)
    with pytest.raises(InequalityViolationError) as err:
        pm.sandwich_check(spec.tau2 / 2, spec, ch.pi_min)
    assert err.value.side == "lower"
    with pytest.raises(InequalityViolationError) as err:
        pm.sandwich_check(spec.tau2 * 100, spec, ch.pi_min)
    assert err.value.side == "upper"
    with pytest.raises(DomainError):
        pm.sandwich_check(1.0, spec, 0.0)


def test_sweep_ordering_deterministic():
    ch = cluster_chain(6)
    spec = spectral_gap(ch)
    o1 = sweep_ordering(ch, spec)
    o2 = sweep_ordering(ch, spectral_gap(ch))
    assert np.array_equal(o1, o2)
    assert sorted(o1.tolist()) == list(range(ch.m))
