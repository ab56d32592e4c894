import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import percmix as pm
from percmix import chain as chain_module
from percmix.chain import (
    MixingResult,
    _kernel_matrix,
    _pairwise_sup_distance,
    _spectral_kernel,
    _stationarity_distance,
    distance_profile,
)
from percmix.errors import CapacityError, DomainError, EmptyClusterError, NonConvergenceError
from percmix.fixtures import (
    complete_graph,
    cycle_graph,
    full_box_cluster,
    path_graph,
    single_edge,
)
from percmix.percolation import ClusterGraph


def small_cluster(n=6, p=0.7, seed=0):
    return pm.largest_cluster(pm.sample_bond_config(pm.BoxSpec(2, n), p, seed))


def test_two_state_chain_measures():
    ch = pm.build_chain(single_edge())
    assert np.allclose(ch.pi, [0.5, 0.5])
    assert ch.edge_measure == 0.5


def test_cycle_chain_measures():
    ch = pm.build_chain(cycle_graph(4))
    assert np.allclose(ch.pi, 0.25)
    assert ch.edge_measure == pytest.approx(1 / 8)


def test_grid_chain_measures():
    ch = pm.build_chain(full_box_cluster(2, 1))
    center = ch.graph.local_index(
        int(pm.build_box(pm.BoxSpec(2, 1)).coord_to_vertex(np.array([0, 0])))
    )
    corner = ch.graph.local_index(
        int(pm.build_box(pm.BoxSpec(2, 1)).coord_to_vertex(np.array([-1, -1])))
    )
    mid = ch.graph.local_index(
        int(pm.build_box(pm.BoxSpec(2, 1)).coord_to_vertex(np.array([-1, 0])))
    )
    assert ch.pi[center] == pytest.approx(4 / 24)
    assert ch.pi[corner] == pytest.approx(2 / 24)
    assert ch.pi[mid] == pytest.approx(3 / 24)


def test_generator_rows_sum_to_zero():
    ch = pm.build_chain(small_cluster())
    q = ch.generator_dense()
    assert np.abs(q.sum(axis=1)).max() < 1e-14


def test_reversibility_exact():
    ch = pm.build_chain(small_cluster())
    # pi(x) Q_{x,y} = 1/(2|E|) for every directed edge: deg(x) * P[x,y] == 1
    p = ch.kernel.tocoo()
    vals = p.data * ch.degrees[p.row]
    assert np.abs(vals - 1.0).max() < 1e-14


def test_chain_rejects_tiny_graphs():
    with pytest.raises(DomainError):
        pm.build_chain(ClusterGraph(np.array([7]), np.empty((0, 2))))


def test_cluster_graph_rejects_disconnected():
    with pytest.raises(DomainError):
        ClusterGraph(np.arange(4), np.array([[0, 1], [2, 3]]))


def test_transient_t0_exact():
    ch = pm.build_chain(cycle_graph(5))
    start = np.zeros(5)
    start[2] = 1.0
    out = pm.transient_distribution(ch, start, 0.0)
    assert np.array_equal(out, start)


def test_transient_two_state_closed_form():
    ch = pm.build_chain(single_edge())
    start = np.array([1.0, 0.0])
    for t in (0.1, 0.5, 2.0, 10.0, 300.0):
        out = pm.transient_distribution(ch, start, t, tol=1e-12)
        exact = np.array([0.5 * (1 + math.exp(-2 * t)), 0.5 * (1 - math.exp(-2 * t))])
        assert np.abs(out - exact).max() < 1e-10


def test_transient_converges_to_stationary():
    ch = pm.build_chain(small_cluster())
    start = np.zeros(ch.m)
    start[0] = 1.0
    out = pm.transient_distribution(ch, start, 50_000.0, tol=1e-10)
    assert pm.tv_distance(out, ch.pi) < 1e-9


@given(st.floats(0.1, 30.0), st.floats(0.1, 30.0))
@settings(max_examples=20, deadline=None)
def test_transient_semigroup_property(t1, t2):
    ch = pm.build_chain(path_graph(7))
    start = np.zeros(7)
    start[0] = 1.0
    tol = 1e-10
    one_shot = pm.transient_distribution(ch, start, t1 + t2, tol)
    two_step = pm.transient_distribution(
        ch, pm.transient_distribution(ch, start, t1, tol), t2, tol
    )
    assert pm.tv_distance(one_shot, two_step) < 10 * tol


def test_tv_distance_basic():
    assert pm.tv_distance(np.array([0.5, 0.5]), np.array([0.5, 0.5])) == 0.0
    assert pm.tv_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0
    assert pm.tv_distance(np.array([0.7, 0.3]), np.array([0.3, 0.7])) == pytest.approx(0.4)
    with pytest.raises(DomainError):
        pm.tv_distance(np.ones(3) / 3, np.ones(4) / 4)


def test_mixing_two_state():
    result = pm.mixing_time(pm.build_chain(single_edge()), resolution=1e-4)
    assert abs(result.tau1 - 0.5) <= 1e-3
    assert result.t_lo < result.tau1 <= result.t_hi
    assert result.t_hi - result.t_lo <= 1e-4
    assert result.d_lo > math.exp(-1) >= result.d_hi


def test_mixing_four_cycle():
    result = pm.mixing_time(pm.build_chain(cycle_graph(4)), resolution=1e-4)
    assert abs(result.tau1 - 1.0) <= 1e-3


def test_mixing_trace_monotone():
    result = pm.mixing_time(pm.build_chain(small_cluster()), resolution=1.0)
    result.check_monotone()
    ts = [t for t, _ in result.trace]
    assert ts == sorted(ts)


def test_pairwise_dominates_stationarity():
    ch = pm.build_chain(small_cluster())
    pw = pm.mixing_time(ch, resolution=0.5, mode="pairwise")
    st_ = pm.mixing_time(ch, resolution=0.5, mode="stationarity")
    assert st_.tau1 <= pw.tau1 + 0.5


def test_distance_modes_within_factor_two():
    ch = pm.build_chain(small_cluster())
    times = [5.0, 30.0, 120.0, 400.0]
    pair = dict(distance_profile(ch, times, mode="pairwise"))
    stat = dict(distance_profile(ch, times, mode="stationarity"))
    for t in times:
        assert stat[t] <= pair[t] + 1e-12
        assert pair[t] <= 2 * stat[t] + 1e-12


def test_mixing_nonconvergence_carries_state():
    ch = pm.build_chain(pm.largest_cluster(
        pm.sample_bond_config(pm.BoxSpec(2, 4), 0.7, 1)
    ))
    with pytest.raises(NonConvergenceError) as err:
        pm.mixing_time(ch, resolution=0.5, t_max=2.0)
    assert err.value.best is not None


def test_mixing_pairwise_capacity():
    ch = pm.build_chain(path_graph(5001))
    with pytest.raises(CapacityError):
        pm.mixing_time(ch, resolution=10.0, mode="pairwise")


def test_sandwich_relation_on_fixtures():
    for graph in (single_edge(), cycle_graph(4), cycle_graph(7), path_graph(6)):
        ch = pm.build_chain(graph)
        spec = pm.spectral_gap(ch)
        mix = pm.mixing_time(ch, resolution=1e-3)
        pm.sandwich_check(mix.tau1, spec, ch.pi_min, atol=1e-3)


def test_composed_kernel_matches_direct_sweep():
    ch = pm.build_chain(small_cluster(n=5))
    direct = _kernel_matrix(ch, 37.0, 1e-12)
    half = _kernel_matrix(ch, 18.5, 1e-12)
    composed = half @ half
    composed /= composed.sum(axis=1, keepdims=True)
    assert np.abs(direct - composed).max() < 1e-9
    d1 = _pairwise_sup_distance(direct, ch.pi)
    d2 = _pairwise_sup_distance(composed, ch.pi)
    assert abs(d1 - d2) < 1e-8


def test_pairwise_sup_exact_against_bruteforce():
    ch = pm.build_chain(pm.largest_cluster(
        pm.sample_bond_config(pm.BoxSpec(2, 10), 0.7, 0)
    ))
    assert ch.m > 256  # exercises the pruned path
    for t in (150.0, 600.0):
        mat = _kernel_matrix(ch, t, 1e-10)
        dev = mat - ch.pi
        brute = max(
            0.5 * np.abs(dev[i + 1:] - dev[i]).sum(axis=1).max()
            for i in range(ch.m - 1)
        )
        assert abs(_pairwise_sup_distance(mat, ch.pi) - brute) < 1e-11


def test_stationarity_distance_definition():
    ch = pm.build_chain(cycle_graph(6))
    mat = _kernel_matrix(ch, 2.0, 1e-10)
    expect = max(pm.tv_distance(mat[i], ch.pi) for i in range(ch.m))
    assert _stationarity_distance(mat, ch.pi) == pytest.approx(expect)


@given(st.integers(0, 10_000), st.integers(2, 5), st.floats(0.5, 1.0),
       st.floats(0.05, 400.0))
@settings(max_examples=40, deadline=None)
def test_spectral_kernel_matches_uniformized(seed, n, p, t):
    try:
        cluster = small_cluster(n=n, p=p, seed=seed)
    except EmptyClusterError:
        assume(False)
    assume(cluster.num_vertices >= 2)
    ch = pm.build_chain(cluster)
    fast = _spectral_kernel(ch, t, 1e-12)
    oracle = _kernel_matrix(ch, t, 1e-12)
    assert np.abs(fast - oracle).max() < 1e-9


@pytest.mark.parametrize("n, mode", [(6, "pairwise"), (6, "stationarity"),
                                     (10, "pairwise")])
def test_mixing_trace_matches_uniformized_profile(n, mode):
    ch = pm.build_chain(small_cluster(n=n))
    result = pm.mixing_time(ch, resolution=2.0, mode=mode)
    oracle = distance_profile(ch, [t for t, _ in result.trace], mode=mode, tol=1e-12)
    assert len(oracle) == len(result.trace) >= 5
    for (t, d), (_, d_ref) in zip(result.trace, oracle):
        assert abs(d - d_ref) < 1e-9, t
    if mode == "pairwise":
        assert 0.0 < result.error_bound < 1e-6
    else:
        assert math.isnan(result.error_bound) and not result.certified


@pytest.mark.parametrize("m", [40, 256, 300, 500])
def test_pairwise_sup_exact_on_random_kernels(m):
    rng = np.random.default_rng(m)
    pi = rng.random(m) + 0.5
    pi /= pi.sum()
    for spread in (1e-3, 0.3, 3.0):
        mat = pi * np.exp(spread * rng.standard_normal((m, m)))
        # a few far rows, as started near a bottleneck
        far = rng.choice(m, size=3, replace=False)
        mat[far] *= np.exp(spread * np.linspace(-2.0, 2.0, m))
        mat /= mat.sum(axis=1, keepdims=True)
        dev = mat - pi
        brute = max(
            0.5 * float(np.abs(dev[i + 1:] - dev[i]).sum(axis=1).max())
            for i in range(m - 1)
        )
        for chunk in (64, 1024):
            assert abs(_pairwise_sup_distance(mat, pi, chunk=chunk) - brute) < 1e-12


def test_certified_needs_margins_above_error_bound():
    thr = math.exp(-1.0)

    def bracket(d_lo, d_hi, err):
        return MixingResult(tau1=1.5, t_lo=1.0, t_hi=2.0, d_lo=d_lo, d_hi=d_hi,
                            mode="pairwise", resolution=1.0, poisson_tol=1e-10,
                            error_bound=err)

    assert bracket(thr + 1e-4, thr - 1e-4, 1e-10).certified
    assert not bracket(thr + 1e-11, thr - 1e-4, 1e-10).certified
    assert not bracket(thr + 1e-4, thr - 1e-11, 1e-10).certified
    assert not bracket(thr + 1e-4, thr, 0.0).certified


def test_auto_mode_above_pairwise_cap_and_hard_cap(monkeypatch):
    ch = pm.build_chain(small_cluster(n=6))
    reference = pm.mixing_time(ch, resolution=0.5, mode="stationarity")
    monkeypatch.setattr(chain_module, "PAIRWISE_CAP", 10)
    auto = pm.mixing_time(ch, resolution=0.5, mode="auto")
    assert auto.mode == "stationarity" and auto.trace == reference.trace
    monkeypatch.setattr(chain_module, "MATRIX_HARD_CAP", 10)
    with pytest.raises(CapacityError):
        pm.mixing_time(ch, resolution=0.5, mode="stationarity")
