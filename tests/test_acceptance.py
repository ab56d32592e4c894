"""End-to-end acceptance suite.

One test per criterion, each printing a PASS line with the measured numbers
(run pytest with -s to see them). The desk-scale preset sweep is computed
once per session and shared; the determinism criterion repeats it from
scratch and compares bytes. Scaling fits use geometric disorder-averaging
per box radius; per-seed fits are reported alongside.

Pilot-frozen reference values (recorded 2026-08-09, this repository):
  census (d=2, n=32, p=0.7, 50 seeds): vertex-fraction CV 0.0029,
    max second/largest edge ratio 0.0038;
  phi-upper sweep (n in {8,12,16,24,32}, 5 seeds): geo-mean slope -0.79,
    R^2 0.935;
  renorm (d=2, n=80, p=0.7): density(N=24) > density(N=8) on 20/20 seeds,
    p=0.95 beats p=0.7 at N=16 on 20/20 seeds, zero condition-2 flips.
  continuum limits at p=1 (recorded 2026-10-21, this repository): intercepts
    of tau/n^2 against 1/n, relative to the limit, tau1 -0.107% and tau2
    -0.095% (d=2, n in {8,16,32}), tau1 -0.562% and tau2 -0.635% (d=3,
    n in {4,6,8}); tolerances 0.3% (d=2) and 1.5% (d=3).
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import percmix as pm
from percmix.errors import EmptyClusterError
from percmix.experiments import ExperimentConfig, default_preset, run_instance, run_scaling
from percmix.fitting import fit_linear, fit_loglog, fit_loglog_geomean
from percmix.geometry import classify_good_vertices
from helpers import cheeger_exact, continuum_limits, cycle_graph, full_box_cluster, single_edge
from test_conductance import cheeger_unrestricted

E_INV = math.exp(-1.0)


def _report(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="session")
def preset_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("preset")
    cfg = default_preset(out=str(out))
    report = run_scaling(cfg)
    return cfg, report, out


def _rows(report, quantity):
    return [(r.n, r.value) for r in report.rows if r.quantity == quantity]


@pytest.mark.slow
def test_criterion_1_mixing_time_scaling(preset_run):
    _, report, _ = preset_run
    rows = [r for r in report.rows if r.quantity == "tau1"]
    assert len(rows) == 25
    assert all(r.certification == "exact" for r in rows)
    fit = fit_loglog_geomean(_rows(report, "tau1"))
    per_seed = fit_loglog(_rows(report, "tau1"))
    ok = 1.6 <= fit.slope <= 2.4 and fit.r_squared >= 0.95
    _report("1 (mixing-time scaling)", ok,
            f"slope={fit.slope:.3f} r2={fit.r_squared:.3f} "
            f"(per-seed slope={per_seed.slope:.3f} r2={per_seed.r_squared:.3f})")


@pytest.mark.slow
def test_criterion_2_relaxation_time_scaling(preset_run):
    _, report, _ = preset_run
    fit = fit_loglog_geomean(_rows(report, "tau2"))
    control_cfg = ExperimentConfig(p=1.0, n_list=(6, 9, 12, 16, 21), seed_list=(0,),
                                   quantities=("tau2",))
    control = run_scaling(control_cfg)
    cfit = fit_loglog(_rows(control, "tau2"))
    ok = 1.6 <= fit.slope <= 2.4 and 1.9 <= cfit.slope <= 2.1
    _report("2 (relaxation-time scaling)", ok,
            f"slope={fit.slope:.3f}, p=1 control slope={cfit.slope:.3f}")


@pytest.mark.slow
def test_criterion_3_cheeger_upper_envelope():
    cfg = ExperimentConfig(n_list=(8, 12, 16, 24, 32), seed_list=(0, 1, 2, 3, 4),
                           quantities=("phi_upper",), dense_cap=2500)
    report = run_scaling(cfg)
    rows = [r for r in report.rows if r.quantity == "phi_upper"]
    assert all(r.certification == "upper-bound" for r in rows)
    fit = fit_loglog_geomean(_rows(report, "phi_upper"))
    ok = -1.3 <= fit.slope <= -0.7 and fit.r_squared >= 0.9
    _report("3 (Cheeger upper envelope)", ok,
            f"slope={fit.slope:.3f} r2={fit.r_squared:.3f}")


def _tiny_instances(count=25):
    """Deterministic stream of percolation clusters with 2..22 vertices."""
    picked = []
    seed = 0
    while len(picked) < count and seed < 4000:
        config = pm.sample_bond_config(pm.BoxSpec(2, 2), 0.45, seed)
        seed += 1
        try:
            cluster = pm.largest_cluster(config)
        except EmptyClusterError:
            continue
        if 2 <= cluster.num_vertices <= 22:
            picked.append(cluster)
    return picked


@pytest.mark.slow
def test_criterion_4_exact_inequality_suite(preset_run):
    _, report, _ = preset_run
    ineq_rows = [r for r in report.rows if r.quantity.startswith("ineq_")]
    assert ineq_rows, "preset produced no inequality rows"
    preset_violations = [r for r in ineq_rows if r.value != 1.0]

    checked = {"sandwich": 0, "cheeger": 0, "var": 0, "gap": 0, "lk": 0}
    failures = []
    for cluster in _tiny_instances():
        chain = pm.build_chain(cluster)
        spec = pm.spectral_gap(chain)
        mix = pm.mixing_time(chain, resolution=1e-3, tau2_hint=spec.tau2)
        try:
            pm.sandwich_check(mix.tau1, spec, chain.pi_min, atol=mix.resolution)
            checked["sandwich"] += 1
        except pm.InequalityViolationError as exc:
            failures.append(f"sandwich: {exc}")

        cheeger = cheeger_exact(chain)
        if spec.tau2 > 8.0 / cheeger.phi**2 * (1 + 1e-9):
            failures.append(f"cheeger: tau2={spec.tau2} phi={cheeger.phi}")
        checked["cheeger"] += 1

        var = pm.distance_variance_lower_bound(chain)
        if var.value > spec.tau2 * (1 + 1e-8):
            failures.append(f"var: {var.value} vs tau2={spec.tau2}")
        checked["var"] += 1

        cuts = [cheeger.phi, pm.sweep_cut(chain, spec).phi]
        cuts += [p.phi for p in pm.profile_upper_box(chain).points]
        if spec.gap > min(cuts) * (1 + 1e-9):
            failures.append(f"gap: {spec.gap} vs min cut {min(cuts)}")
        checked["gap"] += 1

        if chain.pi_min < 0.5:
            bound = pm.lk_bound(pm.profile_exact(chain), chain.pi_min)
            if mix.tau1 > bound + mix.resolution:
                failures.append(f"lk: tau1={mix.tau1} bound={bound}")
            checked["lk"] += 1

    ok = not preset_violations and not failures and all(checked[k] > 0 for k in checked)
    _report("4 (exact inequality suite)", ok,
            f"preset ineq rows={len(ineq_rows)} violations={len(preset_violations)}; "
            f"tiny-instance checks={checked} failures={failures[:3]}")


def test_criterion_5_oracle_equivalences():
    from tests.test_percolation import bfs_components

    mismatches = 0
    for seed in range(1000):
        config = pm.sample_bond_config(pm.BoxSpec(2, 3), 0.5, seed)
        if config.open_count == 0:
            continue
        comps = bfs_components(config)
        best_edges = max(e for _, e in comps)
        expected = min((c for c, e in comps if e == best_edges), key=min)
        cluster = pm.largest_cluster(config)
        if frozenset(int(v) for v in cluster.vertex_ids) != expected:
            mismatches += 1

    # restricted enumeration equals brute force on small connected graphs
    enum_checked = 0
    enum_bad = 0
    seed = 0
    while enum_checked < 200 and seed < 6000:
        config = pm.sample_bond_config(pm.BoxSpec(2, 3), 0.45, seed)
        seed += 1
        if config.open_count == 0:
            continue
        cluster = pm.largest_cluster(config)
        if not 2 <= cluster.num_vertices <= 14:
            continue
        chain = pm.build_chain(cluster)
        if cheeger_exact(chain).phi_fraction != cheeger_unrestricted(chain):
            enum_bad += 1
        enum_checked += 1
    for fixture in (single_edge(), cycle_graph(4), cycle_graph(6), cycle_graph(8)):
        chain = pm.build_chain(fixture)
        if cheeger_exact(chain).phi_fraction != cheeger_unrestricted(chain):
            enum_bad += 1

    two = pm.build_chain(single_edge())
    four = pm.build_chain(cycle_graph(4))
    tau1_two = pm.mixing_time(two, resolution=1e-4).tau1
    tau1_four = pm.mixing_time(four, resolution=1e-4).tau1
    gap_four = pm.spectral_gap(four).gap
    phi_four = cheeger_exact(four).phi_fraction

    ok = (mismatches == 0 and enum_checked == 200 and enum_bad == 0
          and abs(tau1_two - 0.5) <= 1e-3 and abs(tau1_four - 1.0) <= 1e-3
          and abs(gap_four - 1.0) <= 1e-10 and phi_four == Fraction(1))
    _report("5 (oracle equivalences)", ok,
            f"flood-fill mismatches={mismatches}/1000, enumeration "
            f"mismatches={enum_bad}/{enum_checked}+fixtures, "
            f"tau1(2v)={tau1_two:.5f} tau1(4cyc)={tau1_four:.5f} "
            f"gap(4cyc)={gap_four:.12f} phi(4cyc)={phi_four}")


def test_criterion_6_cluster_census():
    fracs, ratios = [], []
    for seed in range(50):
        census = pm.cluster_census(pm.sample_bond_config(pm.BoxSpec(2, 32), 0.7, seed))
        fracs.append(census.largest_vertex_fraction)
        ratios.append(census.second_largest_ratio)
    fr = np.asarray(fracs)
    cv = fr.std(ddof=1) / fr.mean()
    worst_ratio = max(ratios)
    ok = cv < 0.05 and worst_ratio < 0.02
    _report("6 (cluster census)", ok,
            f"vertex-fraction CV={cv:.4f} (<0.05), worst second/largest "
            f"ratio={worst_ratio:.4f} (<0.02); pilot recorded CV=0.0029 ratio=0.0038")


def test_criterion_7_dual_fpp():
    config = pm.sample_bond_config(pm.BoxSpec(2, 32), 0.7, 0)
    reg = pm.fpp_regression(config, n_pairs=300, l1_range=(10, 60), rng_seed=0)
    control_cfg = pm.sample_bond_config(pm.BoxSpec(2, 32), 1.0, 0)
    control = pm.fpp_regression(control_cfg, n_pairs=300, l1_range=(10, 60), rng_seed=0)
    control_exact = all(d == l1 for l1, d in control.pairs)
    ok = (reg.slope > 0 and reg.r_squared > 0.9 and reg.n_pairs >= 290
          and control_exact and control.slope == pytest.approx(1.0))
    _report("7 (dual first-passage growth)", ok,
            f"slope={reg.slope:.3f} r2={reg.r_squared:.3f} pairs={reg.n_pairs}; "
            f"p=1 control exact={control_exact}")


def test_criterion_8_renormalization_density_trend():
    box = pm.BoxSpec(2, 80)
    seeds = range(20)
    n_wins = 0
    for seed in seeds:
        config = pm.sample_bond_config(box, 0.7, seed)
        d8 = classify_good_vertices(config, 8).density()
        d24 = classify_good_vertices(config, 24).density()
        n_wins += d24 > d8

    p_wins = 0
    flips = 0
    sites = 0
    for seed in seeds:
        lo = classify_good_vertices(pm.sample_bond_config(box, 0.7, seed), 16)
        hi = classify_good_vertices(pm.sample_bond_config(box, 0.95, seed), 16)
        p_wins += hi.density() > lo.density()
        cond1_ok = not np.any(lo.crossing_cluster & ~hi.crossing_cluster)
        assert cond1_ok, "condition 1 must be monotone under the coupling"
        flips += int(np.sum(lo.good & ~hi.good))
        sites += lo.num_classified

    flip_rate = flips / sites
    ok = n_wins >= 18 and p_wins == len(list(seeds)) and flip_rate < 0.05
    _report("8 (renormalization density trend)", ok,
            f"N=24 beats N=8 on {n_wins}/20 seeds (need >= 18); p=0.95 beats "
            f"p=0.7 on {p_wins}/20; condition-2 flips {flips}/{sites}")


@pytest.mark.slow
def test_criterion_9_determinism(preset_run, tmp_path):
    cfg0, _, out0 = preset_run
    cfg = default_preset(out=str(tmp_path / "rerun"))
    run_scaling(cfg)
    first = (out0 / "rows.csv").read_bytes()
    second = (tmp_path / "rerun" / "rows.csv").read_bytes()
    ok = first == second
    _report("9 (byte determinism)", ok,
            f"rows.csv identical across two full preset runs: {ok} "
            f"({len(first)} bytes)")


def test_continuum_limits_pinned():
    for d, tau2, tau1 in ((2, 1.6211, 2.40147), (3, 2.4317, 4.08181)):
        got2, got1 = continuum_limits(d)
        assert got2 == 8.0 * d / math.pi**2 and abs(got2 - tau2) < 5e-5
        assert abs(got1 - tau1) < 5e-6


@pytest.mark.slow
@pytest.mark.parametrize("d, ns, rtol", [(2, (8, 16, 32), 3e-3), (3, (4, 6, 8), 1.5e-2)])
def test_full_box_times_extrapolate_to_the_continuum_limits(d, ns, rtol):
    # at p = 1, tau/n^2 = limit + c/n + O(1/n^2); the fit's intercept estimates the limit
    tau1, tau2 = [], []
    for n in ns:
        ch = pm.build_chain(full_box_cluster(d, n))
        spec = pm.spectral_gap(ch)
        mix = pm.mixing_time(ch, tau2_hint=spec.tau2)
        assert mix.certified
        tau1.append(mix.tau1 / n**2)
        tau2.append(spec.tau2 / n**2)
    inverse = [1.0 / n for n in ns]
    lim2, lim1 = continuum_limits(d)
    got1 = fit_linear(inverse, tau1).intercept
    got2 = fit_linear(inverse, tau2).intercept
    ok = abs(got1 / lim1 - 1.0) < rtol and abs(got2 / lim2 - 1.0) < rtol
    _report(f"continuum limits d={d}", ok,
            f"tau1 intercept {got1:.5f} vs {lim1:.5f}, tau2 {got2:.5f} vs {lim2:.5f}")
