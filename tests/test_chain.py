import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import pdtrc

import percmix as pm
from percmix import chain as chain_module
from percmix.chain import (
    MODE_TOL,
    MixingResult,
    _KernelRows,
    _mode_floor,
    _pair_search,
    _probe,
    _probe_modes,
    _row_pass,
)
from percmix.errors import (
    CapacityError,
    DomainError,
    EmptyClusterError,
    NonConvergenceError,
    PercmixError,
)
from percmix.percolation import ClusterGraph
import helpers
from helpers import (
    complete_graph,
    coord_to_vertex,
    cycle_graph,
    eigen_residual,
    full_box_cluster,
    jump_kernel,
    path_graph,
    poisson_weights,
    single_edge,
    transient_distribution,
    tv_distance,
)
from test_spectral import cluster_chain


def small_cluster(n=6, p=0.7, seed=0):
    return pm.largest_cluster(pm.sample_bond_config(pm.BoxSpec(2, n), p, seed))


def generator_dense(chain):
    """Dense generator Q: off-diagonal rates 1/deg(x), diagonal -1."""
    q = jump_kernel(chain).toarray()
    np.fill_diagonal(q, -1.0)
    return q


def _kernel_matrix(chain, t, tol):
    """Dense matrix whose row x is the uniformized time-t distribution started at x."""
    w = poisson_weights(t, tol)
    # Work with the transpose so every step is a fast csr @ dense product.
    acc = np.eye(chain.m) * w[0]
    cur = np.eye(chain.m)
    pt = jump_kernel(chain).T.tocsr()
    for wk in w[1:]:
        cur = pt @ cur
        acc += wk * cur
    mat = np.ascontiguousarray(acc.T)
    mat /= mat.sum(axis=1, keepdims=True)
    return mat


def modes_at(chain, t, tol):
    """(floor, w, v): the certified solve of every probe at or above t."""
    return chain.solve_above(_mode_floor(chain.m, t, tol))


def _spectral_kernel(chain, t, tol, solve=None):
    """Row-stochastic e^{tQ} as one m x m matrix from the modes with e^{t lambda} > tol/m.

    ``solve`` is the `modes_at` solve to read, else a fresh one.
    """
    _, w, v = solve or modes_at(chain, t, tol)
    decay = np.exp(t * w)
    k = max(1, int(np.count_nonzero(decay > tol / chain.m)))
    a = v[:, w.size - k:] * np.sqrt(decay[w.size - k:])
    mat = a @ a.T
    mat *= np.sqrt(chain.pi)
    mat /= mat.sum(axis=1, keepdims=True)
    return mat


def _kernel_pass(a, pi, pivot=None):
    """All-rows oracle for the ordered row pass: every kernel row, in blocks.

    Row x of D^{-1/2} A A^T D^{1/2} is normalised by its own sum. Returns each
    row's TV distance to pi and, given a pivot start, the TV distance from
    the pivot's row to every row (else None).
    """
    sqrt_pi = np.sqrt(pi)

    def dev_rows(rows):
        block = a[rows] @ a.T
        block *= sqrt_pi
        block /= block.sum(axis=1, keepdims=True)
        block -= pi
        return block

    m = a.shape[0]
    r = np.empty(m)
    tv_pivot = None
    if pivot is not None:
        pivot_dev = dev_rows([pivot])[0]
        tv_pivot = np.empty(m)
    for lo in range(0, m, 256):
        hi = min(lo + 256, m)
        dev = dev_rows(slice(lo, hi))
        if tv_pivot is not None:
            tv_pivot[lo:hi] = 0.5 * np.abs(dev - pivot_dev).sum(axis=1)
        np.abs(dev, out=dev)
        r[lo:hi] = 0.5 * dev.sum(axis=1)
    return r, tv_pivot


def probe_at(chain, t, tol, pairwise=True):
    """One exact probe of d(t) through `_probe`, on the kernel rows a search makes.

    Returns the value and the evaluated pairs, without the landmark count.
    """
    _, w, v = modes_at(chain, t, tol)
    rows = _KernelRows(chain, w, v, t, tol)
    return _probe(rows, rows.coords, pairwise, rows.step)[:2]


def _row_bounds(coords):
    """ub_x of the ordered row pass: chi_x / 2 with its rounding slack."""
    return 0.5 * np.sqrt((coords * coords).sum(axis=1)) * (1.0 + 1e-9) + 1e-12


def _stationarity_distance(mat, pi):
    return min(1.0, 0.5 * float(np.abs(mat - pi).sum(axis=1).max()))


def _pairwise_sup_distance(mat, pi, chunk=1024):
    """Exact sup over start pairs of the TV distance between rows of a kernel matrix.

    A direct scan up to 256 rows. Above, the incumbent is the farthest row
    from the row farthest from stationarity; rows with r_i + r_j too small,
    then pairs whose chi-square bound (one Gram product of the
    1/sqrt(pi)-weighted deviations) cannot beat the incumbent, are dropped,
    and the rest are evaluated in chunks of the largest bounds.
    """
    m = mat.shape[0]
    dev = mat - pi
    if m <= 256:
        best = 0.0
        for i in range(m - 1):
            diff = 0.5 * np.abs(dev[i + 1:] - dev[i]).sum(axis=1).max()
            best = max(best, float(diff))
        return min(1.0, best)

    r = 0.5 * np.abs(dev).sum(axis=1)
    far = int(np.argmax(r))
    best = 0.5 * float(np.abs(dev - dev[far]).sum(axis=1).max())
    rmax = float(r[far])

    keep = np.nonzero(r > best - rmax - 1e-12)[0]
    if keep.size < 2:
        return min(1.0, best)
    w = dev[keep] / np.sqrt(pi)
    sq = (w * w).sum(axis=1)
    gram = w @ w.T
    iu, ju = np.triu_indices(keep.size, k=1)
    chi = np.sqrt(np.maximum(sq[iu] + sq[ju] - 2.0 * gram[iu, ju], 0.0))
    bound = 0.5 * chi * (1.0 + 1e-9) + 1e-12
    np.minimum(bound, r[keep][iu] + r[keep][ju], out=bound)

    alive = np.nonzero(bound > best)[0]
    kept_dev = dev[keep]
    while alive.size:
        if alive.size > chunk:
            part = np.argpartition(-bound[alive], chunk - 1)
            idx, alive = alive[part[:chunk]], alive[part[chunk:]]
        else:
            idx, alive = alive, alive[:0]
        tv = 0.5 * np.abs(kept_dev[iu[idx]] - kept_dev[ju[idx]]).sum(axis=1)
        best = max(best, float(tv.max()))
        alive = alive[bound[alive] > best]
    return min(1.0, best)


def pair_search_on_matrix(mat, pi, chunk=1024, pivot=None):
    """`_pair_search` over an explicit kernel matrix."""
    dev = mat - pi
    r = 0.5 * np.abs(dev).sum(axis=1)
    if pivot is None:
        pivot = int(np.argmax(r))
    tv_pivot = 0.5 * np.abs(dev - dev[pivot]).sum(axis=1)
    return _pair_search(lambda idx: dev[idx], r, tv_pivot, chunk=chunk)


def brute_pairwise(mat, pi):
    dev = mat - pi
    return max(
        0.5 * float(np.abs(dev[i + 1:] - dev[i]).sum(axis=1).max())
        for i in range(mat.shape[0] - 1)
    )


def distance_profile(chain, times, mode="pairwise", tol=MODE_TOL):
    """d(t) on an explicit time grid from uniformized kernels: the mixing oracle."""
    pi = chain.pi
    out = []
    for t in times:
        mat = _kernel_matrix(chain, float(t), tol)
        if mode == "pairwise":
            out.append((float(t), _pairwise_sup_distance(mat, pi)))
        else:
            out.append((float(t), _stationarity_distance(mat, pi)))
    return out


def test_two_state_chain_measures():
    ch = pm.build_chain(single_edge())
    assert np.allclose(ch.pi, [0.5, 0.5])
    assert 1 / ch.total_degree == 0.5


def test_cycle_chain_measures():
    ch = pm.build_chain(cycle_graph(4))
    assert np.allclose(ch.pi, 0.25)
    assert 1 / ch.total_degree == pytest.approx(1 / 8)


def test_grid_chain_measures():
    ch = pm.build_chain(full_box_cluster(2, 1))
    center = helpers.local_index(
        ch.graph, int(coord_to_vertex(pm.build_box(pm.BoxSpec(2, 1)), np.array([0, 0])))
    )
    corner = helpers.local_index(
        ch.graph, int(coord_to_vertex(pm.build_box(pm.BoxSpec(2, 1)), np.array([-1, -1])))
    )
    mid = helpers.local_index(
        ch.graph, int(coord_to_vertex(pm.build_box(pm.BoxSpec(2, 1)), np.array([-1, 0])))
    )
    assert ch.pi[center] == pytest.approx(4 / 24)
    assert ch.pi[corner] == pytest.approx(2 / 24)
    assert ch.pi[mid] == pytest.approx(3 / 24)


def test_generator_rows_sum_to_zero():
    ch = pm.build_chain(small_cluster())
    q = generator_dense(ch)
    assert np.abs(q.sum(axis=1)).max() < 1e-14


def test_reversibility_exact():
    ch = pm.build_chain(small_cluster())
    # pi(x) Q_{x,y} = 1/(2|E|) for every directed edge: deg(x) * P[x,y] == 1
    p = jump_kernel(ch).tocoo()
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
    out = transient_distribution(ch, start, 0.0)
    assert np.array_equal(out, start)


def test_transient_two_state_closed_form():
    ch = pm.build_chain(single_edge())
    start = np.array([1.0, 0.0])
    for t in (0.1, 0.5, 2.0, 10.0, 300.0):
        out = transient_distribution(ch, start, t, tol=1e-12)
        exact = np.array([0.5 * (1 + math.exp(-2 * t)), 0.5 * (1 - math.exp(-2 * t))])
        assert np.abs(out - exact).max() < 1e-10


def test_transient_converges_to_stationary():
    ch = pm.build_chain(small_cluster())
    start = np.zeros(ch.m)
    start[0] = 1.0
    out = transient_distribution(ch, start, 50_000.0, tol=1e-10)
    assert tv_distance(out, ch.pi) < 1e-9


@given(st.floats(0.1, 30.0), st.floats(0.1, 30.0))
@settings(max_examples=20, deadline=None)
def test_transient_semigroup_property(t1, t2):
    ch = pm.build_chain(path_graph(7))
    start = np.zeros(7)
    start[0] = 1.0
    tol = 1e-10
    one_shot = transient_distribution(ch, start, t1 + t2, tol)
    two_step = transient_distribution(
        ch, transient_distribution(ch, start, t1, tol), t2, tol
    )
    assert tv_distance(one_shot, two_step) < 10 * tol


# the times of the slow-chain examples of the partial-mode kernel test, and
# the default tolerance at a long time
LONG_POISSON_TIMES = [(5959.767380972155, 1e-12), (1939.8138785023598, 1e-12), (3e5, 1e-10)]


@pytest.mark.parametrize("t, tol", LONG_POISSON_TIMES)
def test_poisson_weights_stop_at_the_first_small_tail(t, tol):
    # 1 - sum(w) rounds to above tol at every depth here; a search on it
    # grows its depth until memory runs out
    w = poisson_weights(t, tol)
    assert pdtrc(w.size - 1, t) < tol <= pdtrc(w.size - 2, t)
    assert abs(w.sum() - 1.0) < 1e-8


@pytest.mark.parametrize("t, tol", LONG_POISSON_TIMES)
def test_poisson_weights_miss_exactly_their_tail(t, tol):
    # weights from exp(k log t - t - log k!) are off by about eps * t each,
    # which at t = 3e5 leaves 1 - sum(w) four times the true tail
    w = poisson_weights(t, tol)
    assert abs(1.0 - w.sum() - pdtrc(w.size - 1, t)) <= tol / 10


def test_poisson_weights_raise_past_their_proven_depth():
    with mock.patch.object(helpers, "pdtrc", lambda k, t: np.ones(np.shape(k))):
        with pytest.raises(NonConvergenceError):
            poisson_weights(50.0, 1e-10)


@pytest.mark.parametrize("t, tol", [(math.nan, 1e-10), (math.inf, 1e-10), (-1.0, 1e-10),
                                    (2.0, math.nan), (2.0, math.inf), (2.0, 0.0)])
def test_poisson_weights_reject_non_finite_or_negative_input(t, tol):
    with pytest.raises(DomainError):
        poisson_weights(t, tol)
    ch = pm.build_chain(cycle_graph(4))
    with pytest.raises(DomainError):
        transient_distribution(ch, np.full(4, 0.25), t, tol=tol)


def test_tv_distance_basic():
    assert tv_distance(np.array([0.5, 0.5]), np.array([0.5, 0.5])) == 0.0
    assert tv_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0
    assert tv_distance(np.array([0.7, 0.3]), np.array([0.3, 0.7])) == pytest.approx(0.4)
    with pytest.raises(DomainError):
        tv_distance(np.ones(3) / 3, np.ones(4) / 4)


def test_mixing_two_state():
    result = pm.mixing_time(pm.build_chain(single_edge()), resolution=1e-4)
    assert abs(result.tau1 - 0.5) <= 1e-3
    assert result.t_lo < result.tau1 <= result.t_hi
    assert result.t_hi - result.t_lo <= 1e-4
    assert result.d_lo > math.exp(-1) >= result.d_hi


def test_mixing_four_cycle():
    result = pm.mixing_time(pm.build_chain(cycle_graph(4)), resolution=1e-4)
    assert abs(result.tau1 - 1.0) <= 1e-3
    assert result.t_lo < result.tau1 <= result.t_hi
    assert result.d_lo > math.exp(-1) >= result.d_hi


@pytest.mark.parametrize("mode, floor, exact", [
    ("pairwise", 1.0, 0.5),
    ("stationarity", 1.0 - math.log(2.0), 0.5 * (1.0 - math.log(2.0))),
])
def test_single_edge_halves_the_lower_end(mode, floor, exact):
    # d(t) = e^{-2t} between the starts and e^{-2t}/2 against pi: both lower
    # bounds hold with equality, so rounding decides the side of e^{-1} the
    # start floor lands on; a hint just above tau2 puts it on the mixed side
    ch = pm.build_chain(single_edge())
    tau2 = pm.spectral_gap(ch).tau2
    for hint in (tau2, tau2 * (1.0 + 1e-6)):
        result = pm.mixing_time(ch, resolution=1e-4, mode=mode, tau2_hint=hint)
        assert result.t_lo < result.tau1 <= result.t_hi
        assert result.d_lo > math.exp(-1) >= result.d_hi
        assert abs(result.tau1 - exact) <= 1e-4
        assert min(t for t, _ in result.trace) < floor * hint  # the halving branch ran


def test_mixing_rejects_nonpositive_tau2_hint():
    ch = pm.build_chain(cycle_graph(4))
    for hint in (0.0, -1.0):
        with pytest.raises(DomainError):
            pm.mixing_time(ch, tau2_hint=hint)


def test_stationarity_search_starts_at_its_lower_bound():
    ch = pm.build_chain(small_cluster(n=16, seed=1))
    tau2 = pm.spectral_gap(ch).tau2
    result = pm.mixing_time(ch, resolution=1e-3 * tau2, mode="stationarity",
                            tau2_hint=tau2)
    assert result.tau1 < tau2  # the crossing lies below the relaxation time
    assert len(result.trace) <= 13
    assert min(t for t, _ in result.trace) >= (1.0 - math.log(2.0)) * tau2


def doubling_mixing_time(chain, resolution, mode, tol=MODE_TOL):
    """tau1 by the search from t = 0.5 that needs no relaxation time: the oracle.

    The first probe moves down by fours while already mixed and then doubles
    up until the profile crosses e^{-1}; dyadic bisection then closes the
    bracket to the resolution, whose midpoint is returned.
    """
    distance = lambda t: probe_at(chain, t, tol, mode == "pairwise")[0]
    thr = math.exp(-1.0)
    t_lo = max(resolution / 2.0, 0.5)
    while distance(t_lo) <= thr:
        if t_lo <= resolution:
            return t_lo / 2.0  # already mixed within one resolution step of zero
        t_lo /= 4.0
    t_hi = 2.0 * t_lo
    while distance(t_hi) > thr:
        t_lo, t_hi = t_hi, 2.0 * t_hi
    width = t_hi - t_lo
    while width > resolution:
        width /= 2.0
        if distance(t_lo + width) > thr:
            t_lo += width
        else:
            t_hi = t_lo + width
    return (t_lo + t_hi) / 2.0


@pytest.mark.parametrize("mode", ["pairwise", "stationarity"])
@pytest.mark.parametrize("graph", [
    single_edge, lambda: cycle_graph(4), lambda: small_cluster(n=6),
    lambda: small_cluster(n=9, seed=0), lambda: small_cluster(n=9, seed=1),
    lambda: small_cluster(n=9, seed=2),
], ids=["edge", "c4", "n6", "n9s0", "n9s1", "n9s2"])
def test_mixing_matches_doubling_search_oracle(graph, mode):
    ch = pm.build_chain(graph())
    resolution = max(1e-3, 1e-3 * pm.spectral_gap(ch).tau2)
    result = pm.mixing_time(ch, resolution=resolution, mode=mode)
    oracle = doubling_mixing_time(ch, resolution, mode)
    assert abs(result.tau1 - oracle) <= resolution


SMALL_GRAPHS = {
    "edge": single_edge, "c4": lambda: cycle_graph(4), "n6": lambda: small_cluster(n=6),
    "n9s0": lambda: small_cluster(n=9, seed=0), "n9s1": lambda: small_cluster(n=9, seed=1),
    "n9s2": lambda: small_cluster(n=9, seed=2),
}
DECISION_GRAPHS = dict(SMALL_GRAPHS, n16s0=lambda: small_cluster(n=16, seed=0),
                       n16s1=lambda: small_cluster(n=16, seed=1))


def _assert_on_its_side(d, d_ref, t, slack=1e-9):
    """A trace entry above e^-1 is a lower bound on d(t), one at or below an upper bound.

    ``d_ref`` is d(t) from another route, agreeing to ``slack``; where d(t) is
    e^-1 to rounding (the single edge at its lower end) that decides no side.
    """
    if d > math.exp(-1.0):
        assert d_ref > math.exp(-1.0) - slack and d <= d_ref + slack, t
    else:
        assert d_ref <= math.exp(-1.0) + slack and d >= d_ref - slack, t


@pytest.mark.parametrize("mode", ["pairwise", "stationarity"])
@pytest.mark.parametrize("name", DECISION_GRAPHS)
def test_decision_probes_bracket_as_the_exact_route(name, mode):
    ch = pm.build_chain(DECISION_GRAPHS[name]())
    resolution = max(1e-3, 1e-3 * pm.spectral_gap(ch).tau2)
    fast = pm.mixing_time(ch, resolution=resolution, mode=mode)
    exact = pm.mixing_time(ch, resolution=resolution, mode=mode, exact=True)
    assert (fast.tau1, fast.t_lo, fast.t_hi) == (exact.tau1, exact.t_lo, exact.t_hi)
    assert [t for t, _ in fast.trace] == [t for t, _ in exact.trace]
    assert fast.certified == exact.certified
    assert exact.decided == [] and set(fast.decided) <= {t for t, _ in fast.trace}
    for (t, d), (_, d_exact) in zip(fast.trace, exact.trace):
        assert (d > math.exp(-1.0)) == (d_exact > math.exp(-1.0)), t
        _assert_on_its_side(d, d_exact, t, slack=1e-12)
        if t not in fast.decided:
            assert abs(d - d_exact) < 1e-12, t


@pytest.mark.parametrize("mode", ["pairwise", "stationarity"])
@pytest.mark.parametrize("name", SMALL_GRAPHS)
def test_decision_trace_bounds_the_uniformized_profile(name, mode):
    ch = pm.build_chain(SMALL_GRAPHS[name]())
    resolution = max(1e-3, 1e-3 * pm.spectral_gap(ch).tau2)
    result = pm.mixing_time(ch, resolution=resolution, mode=mode)
    oracle = distance_profile(ch, [t for t, _ in result.trace], mode=mode, tol=1e-12)
    for (t, d), (_, d_ref) in zip(result.trace, oracle):
        _assert_on_its_side(d, d_ref, t)


def test_decision_probes_do_no_more_work_than_exact_ones():
    ch = pm.build_chain(small_cluster(n=16))
    tau2 = pm.spectral_gap(ch).tau2
    fast = pm.mixing_time(ch, resolution=1e-3 * tau2, tau2_hint=tau2)
    exact = pm.mixing_time(ch, resolution=1e-3 * tau2, tau2_hint=tau2, exact=True)
    assert fast.decided and fast.certified
    assert fast.rows_made <= exact.rows_made
    assert fast.pairs_evaluated <= exact.pairs_evaluated


def test_decided_lower_end_is_evaluated_again_where_certification_needs_it(monkeypatch):
    ch = pm.build_chain(small_cluster(n=9))
    tau2 = pm.spectral_gap(ch).tau2
    kw = dict(resolution=0.25 * tau2, tau2_hint=tau2)
    plain = pm.mixing_time(ch, exact=True, **kw)
    margin = plain.d_lo - math.exp(-1.0)
    # an eigen-residual for which E(t) grows through the margin between t_lo and
    # t_hi: the t_lo probe clears E(t_lo) but certification reads E(t_hi)
    ratio = float(ch.degrees.max()) / float(ch.degrees.min())
    t_mid = math.sqrt(plain.t_lo * plain.t_hi)
    residual = margin / (2.0 * math.sqrt(ch.m * ratio) * t_mid)
    monkeypatch.setattr(chain_module, "_residual_norms",
                        lambda s, w, v: np.full(w.size, residual))
    exact = pm.mixing_time(ch, exact=True, **kw)
    fast = pm.mixing_time(ch, **kw)
    assert (fast.t_lo, fast.t_hi) == (exact.t_lo, exact.t_hi) == (plain.t_lo, plain.t_hi)
    assert not fast.certified and not exact.certified
    assert fast.t_lo not in fast.decided
    assert abs(fast.d_lo - exact.d_lo) < 1e-12


@pytest.mark.parametrize("d, n", [(2, 21), (3, 5)])
def test_one_shift_factor_per_chain(monkeypatch, d, n):
    shifts = []
    lu = chain_module._symmetric_lu
    monkeypatch.setattr(chain_module, "_symmetric_lu",
                        lambda s, shift: shifts.append(shift) or lu(s, shift))
    ch = cluster_chain(n, d=d)
    spec = pm.spectral_gap(ch)
    assert not spec.dense  # the certified sparse solve, through the factor
    for mode in ("pairwise", "stationarity"):
        pm.mixing_time(ch, mode=mode, tau2_hint=spec.tau2)
    # the inertia counts factor S - theta I at their own floors
    assert shifts.count(chain_module._SHIFT) == 1 and len(shifts) == 4


@pytest.mark.parametrize("d, n", [(2, 12), (3, 5)])
def test_sliced_residuals_match_the_oracle(monkeypatch, d, n):
    blocks = []
    norms_of = chain_module._residual_norms
    monkeypatch.setattr(chain_module, "_residual_norms",
                        lambda s, w, v: blocks.append((w, v, norms_of(s, w, v))) or blocks[-1][2])
    ch = cluster_chain(n, d=d)
    result = pm.mixing_time(ch)
    assert len(blocks) == 1  # one solve, no halving
    w, v, norms = blocks[0]
    assert w.size == result.modes
    for t, _ in result.trace:
        keep = int(np.count_nonzero(w > _mode_floor(ch.m, t, MODE_TOL)))
        assert 1 <= keep <= w.size
        oracle = eigen_residual(ch.symmetrized, w[w.size - keep:], v[:, w.size - keep:])
        assert float(norms[w.size - keep:].max()) == oracle, t
    # the result's error bound reads the oracle's residual at t_hi
    ratio = float(ch.degrees.max()) / float(ch.degrees.min())
    keep = int(np.count_nonzero(w > _mode_floor(ch.m, result.t_hi, MODE_TOL)))
    residual = eigen_residual(ch.symmetrized, w[w.size - keep:], v[:, w.size - keep:])
    rounding = math.sqrt(ch.m * ratio) * (ch.m * np.finfo(float).eps + result.t_hi * residual)
    assert result.error_bound == 2.0 * (math.sqrt(ratio) * MODE_TOL + rounding)


def test_mixing_twice_on_one_chain_gives_equal_results():
    # a hint above tau2 halves the lower end, so the search solves twice
    ch = cluster_chain(12)
    hint = 2.0 * pm.spectral_gap(ch).tau2
    first = pm.mixing_time(ch, tau2_hint=hint)
    assert first.t_lo < hint
    again = pm.mixing_time(ch, tau2_hint=hint)
    fresh = pm.mixing_time(cluster_chain(12), tau2_hint=hint)
    assert first == again == fresh


def test_check_monotone_orders_decisions_not_lower_bounds():
    thr = math.exp(-1.0)

    def result(trace, decided):
        return MixingResult(tau1=1.5, t_lo=1.0, t_hi=2.0, d_lo=thr + 0.1, d_hi=thr - 0.1,
                            mode="pairwise", resolution=1.0,
                            trace=trace, decided=decided)

    # lower bounds from different probes need not be ordered
    result([(1.0, thr + 0.01), (2.0, thr + 0.2), (3.0, thr - 0.1)], [1.0, 2.0, 3.0]
           ).check_monotone()
    # a probe decided above after one decided below, bound or exact
    for decided in ([1.0, 2.0], [2.0], []):
        with pytest.raises(PercmixError):
            result([(1.0, thr - 1e-12), (2.0, thr + 1e-12)], decided).check_monotone()
    # a lower bound above an earlier exact value or upper bound
    with pytest.raises(PercmixError):
        result([(1.0, thr + 0.1), (2.0, thr + 0.2)], [2.0]).check_monotone()
    # exact values are compared pairwise, as before, and a lower bound caps nothing
    with pytest.raises(PercmixError):
        result([(1.0, 0.6), (2.0, 0.5), (3.0, 0.55)], []).check_monotone()
    result([(1.0, 0.6), (2.0, 0.5), (3.0, 0.55)], [2.0]).check_monotone()


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
    expect = max(tv_distance(mat[i], ch.pi) for i in range(ch.m))
    assert _stationarity_distance(mat, ch.pi) == pytest.approx(expect)
    assert probe_at(ch, 2.0, 1e-10, pairwise=False)[0] == pytest.approx(expect)


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


@given(st.sampled_from([(2, 7), (2, 8), (3, 3)]), st.floats(0.45, 1.0),
       st.integers(0, 10_000), st.floats(1.0, 4.0))
@settings(max_examples=25, deadline=None)
# slow chains (t near 5960 and 1940), where 1 - sum(w) of the oracle's Poisson
# weights stays above its tolerance at every depth
@example((2, 7), 0.5625, 0, 3.0)
@example((2, 7), 0.453125, 5128, 2.991502578548298)
def test_partial_mode_kernel_matches_uniformized(box, p, seed, f):
    d, n = box
    try:
        cluster = pm.largest_cluster(pm.sample_bond_config(pm.BoxSpec(d, n), p, seed))
    except EmptyClusterError:
        assume(False)
    assume(cluster.num_vertices >= 100)
    t = f / -float(pm.build_chain(cluster).eigensystem[0][-2])  # f relaxation times
    with mock.patch.object(chain_module, "SPARSE_EIGEN_MIN", 8):
        ch = pm.build_chain(cluster)
        solve = modes_at(ch, t, 1e-12)
    # built from certified partial modes unless more than a quarter of them are wanted
    assume(solve[0] > -math.inf)
    fast = _spectral_kernel(ch, t, 1e-12, solve)
    oracle = _kernel_matrix(ch, t, 1e-12)
    assert np.abs(fast - oracle).max() < 1e-9


@pytest.mark.parametrize("n, mode", [(6, "pairwise"), (6, "stationarity"),
                                     (10, "pairwise")])
def test_mixing_trace_matches_uniformized_profile(n, mode):
    ch = pm.build_chain(small_cluster(n=n))
    result = pm.mixing_time(ch, resolution=2.0, mode=mode, exact=True)
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
        brute = brute_pairwise(mat, pi)
        for chunk in (64, 1024):
            assert abs(_pairwise_sup_distance(mat, pi, chunk=chunk) - brute) < 1e-12
            assert abs(pair_search_on_matrix(mat, pi, chunk=chunk)[0] - brute) < 1e-12


@pytest.mark.parametrize("m", [40, 300, 500])
def test_ordered_row_pass_keeps_the_sup_on_random_kernels(m):
    rng = np.random.default_rng(m)
    pi = rng.random(m) + 0.5
    pi /= pi.sum()
    skipped = 0
    for spread in (1e-3, 0.3, 3.0):
        mat = pi * np.exp(spread * rng.standard_normal((m, m)))
        # a few far rows, as started near a bottleneck
        far = rng.choice(m, size=3, replace=False)
        mat[far] *= np.exp(spread * np.linspace(-2.0, 2.0, m))
        mat /= mat.sum(axis=1, keepdims=True)
        dev = mat - pi
        coords = dev / np.sqrt(pi)
        brute = brute_pairwise(mat, pi)
        for chunk in (16, 1024):
            best, (i, j, tv), _ = _probe(lambda idx: dev[idx], coords, True, chunk)
            assert abs(best - brute) < 1e-12
            assert np.all(i < j)
            exact = 0.5 * np.abs(dev[i] - dev[j]).sum(axis=1)
            assert np.abs(tv - exact).max(initial=0.0) < 1e-12
            made, r, _ = _row_pass(lambda idx: dev[idx], coords, False, chunk)
            assert abs(r.max() - 0.5 * np.abs(dev).sum(axis=1).max()) < 1e-12
            skipped += m - made.size
    assert skipped > 0  # the stop fired


@pytest.mark.parametrize("seed", [0, 1])
def test_ordered_row_pass_matches_the_all_rows_oracle(seed):
    ch = pm.build_chain(small_cluster(n=16, seed=seed))
    tau2 = pm.spectral_gap(ch).tau2
    tol = MODE_TOL
    for t in (1.2 * tau2, 1.8 * tau2):  # inside the first pairwise bracket [tau2, 2 tau2]
        _, w, v = modes_at(ch, t, tol)
        rows = _KernelRows(ch, w, v, t, tol)
        ub = _row_bounds(rows.coords)
        pivot = int(np.argmax(ub))
        r_all, tv_all = _kernel_pass(_probe_modes(w, v, t, tol)[0], ch.pi, pivot)
        for pairwise in (True, False):
            made, r, tv_pivot = _row_pass(rows, rows.coords, pairwise, rows.step)
            assert np.all(np.diff(made) > 0) and made.size < ch.m
            assert np.abs(r - r_all[made]).max() < 1e-12
            # every skipped row is within its bound, and no bound reaches
            skipped = np.setdiff1d(np.arange(ch.m), made)
            assert np.all(r_all[skipped] <= ub[skipped])
            reach = ub[skipped].max()
            if pairwise:
                assert pivot in made
                assert np.abs(tv_pivot - tv_all[made]).max() < 1e-12
                assert reach + max(r.max(), reach) <= tv_pivot.max()
            else:
                assert tv_pivot is None and reach <= r.max()


def test_mixing_counts_the_rows_it_makes(monkeypatch):
    ch = pm.build_chain(small_cluster(n=16))
    tau2 = pm.spectral_gap(ch).tau2
    calls = []
    make = _KernelRows.__call__
    monkeypatch.setattr(_KernelRows, "__call__",
                        lambda self, idx: calls.append(idx.size) or make(self, idx))
    for mode in ("pairwise", "stationarity"):
        calls.clear()
        result = pm.mixing_time(ch, resolution=1e-3 * tau2, mode=mode, tau2_hint=tau2)
        assert result.rows_made == sum(calls) > 0
    # one pass per probe, each stopped short of the m rows
    assert result.rows_made < len(result.trace) * ch.m


def test_mixing_rejects_non_finite_tolerances():
    ch = pm.build_chain(cycle_graph(4))
    for bad in (math.inf, math.nan, 0.0):
        with pytest.raises(DomainError):
            pm.mixing_time(ch, resolution=bad)


def test_certified_needs_margins_above_error_bound():
    thr = math.exp(-1.0)

    def bracket(d_lo, d_hi, err):
        return MixingResult(tau1=1.5, t_lo=1.0, t_hi=2.0, d_lo=d_lo, d_hi=d_hi,
                            mode="pairwise", resolution=1.0,
                            error_bound=err)

    assert bracket(thr + 1e-4, thr - 1e-4, 1e-10).certified
    assert not bracket(thr + 1e-11, thr - 1e-4, 1e-10).certified
    assert not bracket(thr + 1e-4, thr - 1e-11, 1e-10).certified
    assert not bracket(thr + 1e-4, thr, 0.0).certified


def test_auto_mode_above_pairwise_cap_and_hard_cap(monkeypatch):
    cluster = small_cluster(n=6)
    ch = pm.build_chain(cluster)
    reference = pm.mixing_time(ch, resolution=0.5, mode="stationarity")
    monkeypatch.setattr(chain_module, "PAIRWISE_CAP", 10)
    auto = pm.mixing_time(ch, resolution=0.5, mode="auto")
    assert auto.mode == "stationarity" and auto.trace == reference.trace
    monkeypatch.setattr(chain_module, "MATRIX_HARD_CAP", 10)
    # a fresh chain: the cap guards the dense eigensystem, which ``ch`` holds
    with pytest.raises(CapacityError):
        pm.mixing_time(pm.build_chain(cluster), resolution=0.5, mode="stationarity")


def test_hard_cap_spares_chains_whose_sparse_solve_certifies(monkeypatch):
    cluster = small_cluster(n=10)
    reference = pm.mixing_time(pm.build_chain(cluster), resolution=0.5,
                               mode="stationarity")
    ch = pm.build_chain(cluster)
    assert ch.m > 256
    monkeypatch.setattr(chain_module, "MATRIX_HARD_CAP", 10)
    solves = []
    solve_above = chain_module.Chain.solve_above
    monkeypatch.setattr(chain_module.Chain, "solve_above",
                        lambda self, theta: solves.append(solve_above(self, theta))
                        or solves[-1])
    result = pm.mixing_time(ch, resolution=0.5, mode="stationarity")
    assert result.trace == reference.trace
    # the gap solve and the one solve at the start floor certified, and
    # nothing read the dense route
    floors = [floor for floor, _, _ in solves]
    start = (1.0 - math.log(2.0)) * pm.spectral_gap(ch).tau2
    assert floors[0] > -math.inf
    assert floors[1:] == [_mode_floor(ch.m, start, MODE_TOL)]
    assert "eigensystem" not in vars(ch)


@given(st.sampled_from([(2, 6), (2, 9), (2, 12), (3, 3), (3, 4)]), st.floats(0.5, 1.0),
       st.integers(0, 10_000), st.floats(0.3, 4.0))
@settings(max_examples=30, deadline=None)
def test_probe_distances_match_dense_kernel_oracle(box, p, seed, f):
    d, n = box
    try:
        cluster = pm.largest_cluster(pm.sample_bond_config(pm.BoxSpec(d, n), p, seed))
    except EmptyClusterError:
        assume(False)
    assume(cluster.num_vertices >= 2)
    ch = pm.build_chain(cluster)
    t = f * pm.spectral_gap(ch).tau2
    mat = _spectral_kernel(ch, t, MODE_TOL)
    pairwise, (i, j, tv) = probe_at(ch, t, MODE_TOL)
    assert abs(pairwise - _pairwise_sup_distance(mat, ch.pi)) < 1e-12
    stationarity, (none, _, _) = probe_at(ch, t, MODE_TOL, pairwise=False)
    assert none.size == 0
    assert abs(stationarity - _stationarity_distance(mat, ch.pi)) < 1e-12
    # the evaluated pairs carry their exact distances
    assert np.all(i < j)
    dev = mat - ch.pi
    step = max(1, (1 << 20) // ch.m)  # pairs compared at a time, to bound memory
    worst = 0.0
    for lo in range(0, i.size, step):
        a, b = i[lo:lo + step], j[lo:lo + step]
        exact = 0.5 * np.abs(dev[a] - dev[b]).sum(axis=1)
        worst = max(worst, float(np.abs(tv[lo:lo + step] - exact).max()))
    assert worst < 1e-12


@pytest.mark.parametrize("m", [40, 300])
def test_pair_search_keeps_the_sup_from_a_pivot_near_stationarity(m):
    rng = np.random.default_rng(m)
    pi = rng.random(m) + 0.5
    pi /= pi.sum()
    mat = pi * np.exp(0.3 * rng.standard_normal((m, m)))
    mat /= mat.sum(axis=1, keepdims=True)
    dev = mat - pi
    # a pivot near stationarity leaves an incumbent below the sup
    pivot = int(np.argmin(np.abs(dev).sum(axis=1)))
    incumbent = 0.5 * float(np.abs(dev - dev[pivot]).sum(axis=1).max())
    sup = brute_pairwise(mat, pi)
    assert incumbent < sup - 1e-6
    assert abs(pair_search_on_matrix(mat, pi, pivot=pivot)[0] - sup) < 1e-12


def _search_levels(sup, rng):
    """The exact levels (0, inf), then random (floor, ceil) in [0, 1] around sup."""
    draws = np.minimum(np.sort(rng.uniform(0.5, 1.5, size=(8, 2)), axis=1) * sup, 1.0)
    return [(0.0, math.inf)] + [(float(lo), float(hi)) for lo, hi in draws]


def _check_levelled_search(dev_rows, coords, r, tv_pivot, chunk, sup, levels):
    """The landmark search and the two-pivot oracle against the brute-force sup.

    Inside (floor, ceil] both give the sup; above ceil both give a distance
    above ceil and no larger than the sup; at or below floor both give floor.
    Returns which of the three cases the levels made.
    """
    floor, ceil = levels
    fast, (i, j, tv), _ = _pair_search(dev_rows, r, tv_pivot, chunk, levels)
    oracle, _ = helpers.two_pivot_pair_search(dev_rows, coords, r, tv_pivot, chunk, levels)
    assert np.all(i < j)
    exact = 0.5 * np.abs(dev_rows(i[:256]) - dev_rows(j[:256])).sum(axis=1)
    assert np.abs(tv[:256] - exact).max(initial=0.0) < 1e-12
    if sup > ceil:
        assert ceil < fast <= sup + 1e-12 and ceil < oracle <= sup + 1e-12
        return "above"
    if sup <= floor:
        assert fast == oracle == floor
        return "below"
    assert abs(fast - sup) < 1e-12 and abs(oracle - sup) < 1e-12
    return "inside"


@pytest.mark.parametrize("m", [40, 300, 600])
def test_landmark_search_matches_two_pivot_oracle_on_random_kernels(m):
    rng = np.random.default_rng(m)
    pi = rng.random(m) + 0.5
    pi /= pi.sum()
    sides = set()
    for spread in (1e-3, 0.3, 3.0):
        mat = pi * np.exp(spread * rng.standard_normal((m, m)))
        # a few far rows, as started near a bottleneck
        far = rng.choice(m, size=3, replace=False)
        mat[far] *= np.exp(spread * np.linspace(-2.0, 2.0, m))
        mat /= mat.sum(axis=1, keepdims=True)
        dev = mat - pi
        r = 0.5 * np.abs(dev).sum(axis=1)
        tv_pivot = 0.5 * np.abs(dev - dev[int(np.argmax(r))]).sum(axis=1)
        sup = brute_pairwise(mat, pi)
        for levels in _search_levels(sup, rng):
            sides.add(_check_levelled_search(lambda idx: dev[idx], dev / np.sqrt(pi), r,
                                             tv_pivot, 64, sup, levels))
    assert sides == {"above", "inside", "below"}


def test_landmark_search_matches_two_pivot_oracle_on_cluster_probes():
    ch = pm.build_chain(small_cluster(n=12))
    tau2 = pm.spectral_gap(ch).tau2
    rng = np.random.default_rng(12)
    sides = set()
    for t in (1.2 * tau2, 1.8 * tau2, 3.0 * tau2):
        _, w, v = modes_at(ch, t, MODE_TOL)
        rows = _KernelRows(ch, w, v, t, MODE_TOL)
        dev = rows(np.arange(ch.m))
        sup = brute_pairwise(dev + ch.pi, ch.pi)
        for levels in _search_levels(sup, rng):
            # the row pass at the same levels picks the rows both searches read
            made, r, tv_pivot = _row_pass(rows, rows.coords, True, rows.step, levels)
            sides.add(_check_levelled_search(lambda idx: dev[made[idx]], rows.coords[made], r,
                                             tv_pivot, rows.step, sup, levels))
    assert sides == {"above", "inside", "below"}


def test_landmarks_stop_when_pairs_tie_at_the_incumbent(monkeypatch):
    # all six pairs of the 4-cycle tie at the incumbent and keep their rounding
    # slack through every landmark: adding landmarks only while the pairs
    # outnumber the four kept rows never stops
    ch = pm.build_chain(cycle_graph(4))
    mat = _kernel_matrix(ch, pm.spectral_gap(ch).tau2, 1e-12)
    tv_to = chain_module._tv_to
    calls = []

    def spy(rows, refs):
        calls.append(rows.shape[0])
        if len(calls) > rows.shape[0] + 2:  # rows.shape[0] is the kept rows
            raise AssertionError("the pair search kept adding landmarks")
        return tv_to(rows, refs)

    monkeypatch.setattr(chain_module, "_tv_to", spy)
    value, (i, _, _), landmarks = pair_search_on_matrix(mat, ch.pi)
    assert abs(value - brute_pairwise(mat, ch.pi)) < 1e-12
    assert i.size == 6 and landmarks == len(calls) == 1


def test_mixing_allocates_less_than_one_dense_kernel():
    ch = pm.build_chain(small_cluster(n=16))
    assert ch.m > 1000
    tau2 = pm.spectral_gap(ch).tau2
    tracemalloc.start()
    try:
        result = pm.mixing_time(ch, resolution=1e-3 * tau2, tau2_hint=tau2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.mode == "pairwise" and result.pairs_evaluated > 0
    assert peak < ch.m ** 2 * 8
