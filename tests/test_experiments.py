import math
import os
from unittest import mock

import numpy as np
import pytest

import percmix as pm
from percmix import conductance, experiments, spectral
from percmix.chain import MixingResult
from percmix.errors import DomainError
from percmix.experiments import (
    SCHEMA_VERSION,
    ExperimentConfig,
    Row,
    compute_fits,
    default_preset,
    emit_report,
    read_rows,
    run_instance,
    run_scaling,
    write_rows,
)
from percmix.fitting import fit_linear, fit_loglog
from helpers import config_to_file, fit_through_origin


class Interrupted(Exception):
    """A crash in the middle of a sweep."""


def run_interrupted(cfg):
    """Run a serial sweep whose third instance raises, after two were recorded."""
    calls = []
    real = experiments.run_instance

    def run_instance_until_third(*args):
        calls.append(args)
        if len(calls) == 3:
            raise Interrupted
        return real(*args)

    with mock.patch.object(experiments, "run_instance", run_instance_until_third):
        with pytest.raises(Interrupted):
            run_scaling(cfg)


def test_fit_loglog_exact_square():
    pts = [(n, 3.7 * n**2) for n in (4, 8, 16, 32)]
    fit = fit_loglog(pts)
    assert abs(fit.slope - 2.0) < 1e-9
    assert fit.r_squared == pytest.approx(1.0)


def test_fit_loglog_exact_inverse():
    pts = [(n, 5.0 / n) for n in (4, 8, 16)]
    assert abs(fit_loglog(pts).slope + 1.0) < 1e-9


def test_fit_loglog_constant():
    pts = [(n, 2.5) for n in (4, 8, 16)]
    fit = fit_loglog(pts)
    assert abs(fit.slope) < 1e-9
    assert fit.r_squared == pytest.approx(1.0)


def test_fit_loglog_domain_errors():
    with pytest.raises(DomainError):
        fit_loglog([(4, 1.0), (8, 2.0)])  # fewer than 3 distinct n
    with pytest.raises(DomainError):
        fit_loglog([(4, 1.0), (8, -2.0), (16, 3.0)])
    with pytest.raises(DomainError):
        fit_loglog([(4, 1.0), (4, 2.0), (4, 3.0), (8, 1.0)])


def test_fit_linear_and_origin():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    fit = fit_linear(x, 2.0 * x + 1.0)
    assert fit.slope == pytest.approx(2.0)
    assert fit.intercept == pytest.approx(1.0)
    org = fit_through_origin(x, 3.0 * x)
    assert org.slope == pytest.approx(3.0)
    assert org.intercept == 0.0


def test_config_validation():
    with pytest.raises(DomainError):
        ExperimentConfig(seed_list=())
    with pytest.raises(DomainError):
        ExperimentConfig(p=0.0)
    with pytest.raises(DomainError):
        ExperimentConfig(n_list=(9, 6))
    with pytest.raises(DomainError):
        ExperimentConfig(quantities=())
    with pytest.raises(DomainError):
        ExperimentConfig(quantities=("tau9",))
    with pytest.raises(DomainError):
        ExperimentConfig(quantities=("tau1", "census", "tau1"))
    with pytest.raises(DomainError):
        ExperimentConfig(mode="warp")
    for bad in (dict(fpp_l1_lo=-1), dict(fpp_l1_lo=20, fpp_l1_hi=10),
                dict(fpp_l1_lo=6, fpp_l1_hi=6), dict(fpp_pairs=0), dict(fpp_pairs=-3)):
        with pytest.raises(DomainError):
            ExperimentConfig(**bad)


def test_config_rejects_repeated_instances_and_non_finite_tolerances():
    # a repeated n or seed would run its instances twice and count them twice in the fits
    for bad in (dict(n_list=(6, 6)), dict(n_list=(6, 9, 9)), dict(seed_list=(1, 1)),
                dict(seed_list=(0, 2, 0))):
        with pytest.raises(DomainError):
            ExperimentConfig(**bad)
    assert ExperimentConfig(n_list=(6, 9), seed_list=(3, 1)).seed_list == (3, 1)


@pytest.mark.parametrize("blocks", [(8, 8), (8, 16, 8), ()])
def test_config_rejects_repeated_or_empty_renorm_blocks(blocks):
    # a repeated scale writes its density row twice per instance, which a
    # resume reads as a torn rerun; an empty list writes no renorm row at all
    with pytest.raises(DomainError, match="renorm_blocks"):
        ExperimentConfig(renorm_blocks=blocks)


def test_tau2_detail_names_the_inertia_and_route():
    cfg = ExperimentConfig(n_list=(3, 10), seed_list=(0,), quantities=("tau2",))
    small = run_instance(cfg, 3, 0)[0]
    assert small.detail.endswith(" dense=1")  # at most SPARSE_EIGEN_MIN vertices
    large = run_instance(cfg, 10, 0)[0]
    assert large.detail.endswith(" dense=0")  # the certified sparse solve
    for row in (small, large):
        inertia = [t for t in row.detail.split() if t.startswith("inertia=")]
        assert len(inertia) == 1 and int(inertia[0].split("=")[1]) >= 2


def test_default_preset_is_desk_scale():
    cfg = default_preset()
    assert cfg.d == 2 and cfg.p == 0.7
    assert cfg.n_list == (6, 9, 12, 16, 21)
    assert len(cfg.seed_list) == 5
    # pairwise mixing stays exact on every preset instance
    assert (2 * max(cfg.n_list) + 1) ** 2 <= 5000


def test_config_refuses_renorm_windows_wider_than_the_smallest_box():
    # floor(5*block/4) > min(n_list): the smallest boxes classify no site
    with pytest.raises(DomainError, match="renorm_blocks"):
        ExperimentConfig(n_list=(6, 9), quantities=("renorm",))
    with pytest.raises(DomainError, match=r"renorm_blocks \[16\]"):
        ExperimentConfig(n_list=(10, 40), quantities=("census", "renorm"))
    assert ExperimentConfig(n_list=(10, 40), quantities=("renorm",),
                            renorm_blocks=(8,)).renorm_blocks == (8,)
    # without renorm the block scales are never used: the desk preset loads
    assert default_preset().renorm_blocks == (8, 16)


def test_config_refuses_fpp_ranges_the_smallest_box_cannot_hold():
    # faces 5 steps inside a box of radius n lie at most 2 * (2n - 11) apart;
    # a wider range wrote one error row per instance
    with pytest.raises(DomainError, match="boundary margin"):
        ExperimentConfig(n_list=(5, 40), quantities=("fpp",))
    with pytest.raises(DomainError, match="interior span"):
        ExperimentConfig(n_list=(20, 40), quantities=("census", "fpp"))
    assert ExperimentConfig(n_list=(21, 40), quantities=("fpp",)).fpp_l1_hi == 60
    assert ExperimentConfig(n_list=(16,), quantities=("fpp",), fpp_l1_hi=42).n_list == (16,)
    # without fpp, or at d=3 where each instance records its own error row, no check
    assert ExperimentConfig(n_list=(5,), quantities=("census",)).n_list == (5,)
    assert ExperimentConfig(d=3, n_list=(2,), quantities=("fpp",)).d == 3


def test_config_file_roundtrip(tmp_path):
    cfg = ExperimentConfig(n_list=(4, 6), seed_list=(1, 2, 3),
                           quantities=("tau2", "census"), out="somewhere",
                           renorm_blocks=(8,))
    path = tmp_path / "sweep.cfg"
    config_to_file(cfg, path)
    assert ExperimentConfig.from_file(path) == cfg


def test_config_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("d = 2\nwarp = 9\n")
    with pytest.raises(DomainError):
        ExperimentConfig.from_file(path)


@pytest.mark.parametrize("text", ["n_list = 6,9,12\nn_list = 6\n",
                                  "n_list = 6,9,12\nn-list = 6\n"])
def test_config_file_rejects_a_repeated_key(tmp_path, text):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(DomainError, match="n_list"):
        ExperimentConfig.from_file(path)


@pytest.mark.parametrize("line", ["d = two", "n_list = 6,x", "workers = 1.5", "p = tiny"])
def test_config_file_rejects_malformed_values(tmp_path, line):
    path = tmp_path / "bad.cfg"
    # the bad line replaces the base line of its key rather than repeating it
    base = "" if line.startswith("p ") else "p = 0.7\n"
    path.write_text(f"{base}{line}\n")
    with pytest.raises(DomainError):
        ExperimentConfig.from_file(path)


def small_config(tmp_path=None, **overrides):
    base = dict(n_list=(4, 6), seed_list=(0, 1), quantities=("tau2", "census"),
                out=None if tmp_path is None else str(tmp_path / "out"))
    base.update(overrides)
    return ExperimentConfig(**base)


def test_run_instance_rows_complete():
    cfg = small_config()
    rows = run_instance(cfg, 4, 0)
    names = {r.quantity for r in rows}
    assert "tau2" in names
    assert "census_vertex_fraction" in names
    assert "census_second_ratio" in names
    assert all(r.certification in ("exact", "upper-bound", "heuristic", "error")
               for r in rows)


def test_run_scaling_deterministic(tmp_path):
    cfg1 = small_config(tmp_path, out=str(tmp_path / "a"))
    cfg2 = small_config(tmp_path, out=str(tmp_path / "b"))
    r1 = run_scaling(cfg1)
    r2 = run_scaling(cfg2)
    assert (tmp_path / "a" / "rows.csv").read_bytes() == \
        (tmp_path / "b" / "rows.csv").read_bytes()
    assert r1.rows == r2.rows


def test_control_grid_relaxation_scaling():
    # p=1 boxes: relaxation time grows as the square of the radius
    cfg = ExperimentConfig(p=1.0, n_list=(4, 8, 16), seed_list=(0,),
                           quantities=("tau2",))
    report = run_scaling(cfg)
    fit = report.fits["tau2"]
    assert 1.9 <= fit.slope <= 2.1


def test_resume_matches_uninterrupted(tmp_path):
    cfg_full = small_config(tmp_path, out=str(tmp_path / "full"))
    full = run_scaling(cfg_full)

    cfg_resume = small_config(tmp_path, out=str(tmp_path / "resume"))
    run_interrupted(cfg_resume)
    resumed = run_scaling(cfg_resume, resume=True)
    assert resumed.rows == full.rows
    assert (tmp_path / "full" / "rows.csv").read_bytes() == \
        (tmp_path / "resume" / "rows.csv").read_bytes()


def test_error_rows_recorded_not_raised():
    # dual FPP needs d=2; at d=3 the quantity must fail into an error row
    cfg = ExperimentConfig(d=3, n_list=(2,), seed_list=(0,),
                           quantities=("census", "fpp"))
    report = run_scaling(cfg)
    errs = [r for r in report.rows if r.certification == "error"]
    assert errs and all(r.quantity == "fpp" for r in errs)
    assert any(r.quantity == "census_vertex_fraction" for r in report.rows)
    assert report.error_rows == len(errs)


def test_fits_refuse_mixed_certifications():
    rows = [
        Row(2, 0.7, 4, 0, "tau1", 10.0, "exact"),
        Row(2, 0.7, 6, 0, "tau1", 20.0, "heuristic"),
        Row(2, 0.7, 8, 0, "tau1", 30.0, "exact"),
    ]
    fits, refusals = compute_fits(rows)
    assert "tau1" not in fits
    assert "mixed" in refusals["tau1"]


def test_rows_csv_roundtrip(tmp_path):
    cfg = small_config(tmp_path)
    report = run_scaling(cfg)
    paths = emit_report(report, tmp_path / "out")
    text = paths["rows"].read_text()
    assert text.startswith(f"# schema={SCHEMA_VERSION}\n")
    back = read_rows(paths["rows"])
    assert back == report.rows
    refit, _ = compute_fits(back)
    assert refit == report.fits


def test_summary_contains_every_quantity(tmp_path):
    cfg = small_config(tmp_path)
    report = run_scaling(cfg)
    paths = emit_report(report, tmp_path / "out")
    summary = paths["summary"].read_text()
    assert summary.startswith(f"schema={SCHEMA_VERSION}\n")
    for q in ("tau2", "census_vertex_fraction", "census_second_ratio"):
        assert f"quantity.{q}.n_rows=" in summary
    assert "inequalities.violations=0" in summary


def test_summary_records_blas_threads(tmp_path, monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    report = run_scaling(small_config(tmp_path, n_list=(2,), quantities=("census",)))
    summary = emit_report(report, tmp_path / "out")["summary"].read_text()
    assert "env.OMP_NUM_THREADS=3\n" in summary
    assert "env.OPENBLAS_NUM_THREADS=unset\n" in summary
    for var in experiments.THREAD_ENV_VARS:
        assert f"env.{var}=" in summary


def test_plot_data_files(tmp_path):
    cfg = small_config(tmp_path)
    report = run_scaling(cfg)
    paths = emit_report(report, tmp_path / "out")
    plot = paths["plot_tau2"].read_text().splitlines()
    assert plot[0] == "x,y,series"
    assert len(plot) == 1 + len(cfg.n_list) * len(cfg.seed_list)


def test_emit_report_rejects_empty(tmp_path):
    report = pm.ScalingReport(config=small_config(), rows=[])
    with pytest.raises(DomainError):
        emit_report(report, tmp_path / "out")


def test_inequality_suite_present_and_clean():
    cfg = ExperimentConfig(n_list=(5,), seed_list=(0,),
                           quantities=("tau1", "tau2", "var_lower", "phi_upper"))
    rows = run_instance(cfg, 5, 0)
    ineq = {r.quantity: r.value for r in rows if r.quantity.startswith("ineq_")}
    assert ineq.get("ineq_sandwich") == 1.0
    assert ineq.get("ineq_var_lower") == 1.0
    assert ineq.get("ineq_gap_cuts") == 1.0


def test_inequality_suite_computes_only_what_was_asked(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("window profile failed")

    # a failed phi_upper is an error row; the gap-cut check needs it and is skipped
    monkeypatch.setattr(conductance, "profile_upper_box", broken)
    rows = {r.quantity: r for r in run_instance(
        small_config(quantities=("tau2", "phi_upper")), 6, 0)}
    assert rows["phi_upper"].certification == "error"
    assert "window profile failed" in rows["phi_upper"].detail
    assert rows["tau2"].certification == "exact"
    assert "ineq_gap_cuts" not in rows

    # tau2 alone starts neither the window profile, the sweep cut nor the
    # distance-variance bound
    calls = []
    for module, name in ((conductance, "profile_upper_box"), (conductance, "sweep_cut"),
                         (spectral, "distance_variance_lower_bound")):
        monkeypatch.setattr(module, name, lambda *a, _name=name, **k: calls.append(_name))
    rows = run_instance(small_config(quantities=("tau2",)), 6, 0)
    assert [(r.quantity, r.certification) for r in rows] == [("tau2", "exact")]
    assert calls == []


def test_tau2_exact_above_dense_cap():
    # dense_cap only labels the eigensolve by size; the gap is certified either way
    cfg = ExperimentConfig(n_list=(10,), seed_list=(0,), dense_cap=10,
                           quantities=("tau1", "tau2", "var_lower", "phi_upper"))
    rows = {r.quantity: r for r in run_instance(cfg, 10, 0)}
    assert rows["tau2"].certification == "exact"
    assert "method=iterative" in rows["tau2"].detail
    for name in ("ineq_sandwich", "ineq_var_lower", "ineq_gap_cuts"):
        assert rows[name].value == 1.0


def test_workers_pool_matches_serial(tmp_path):
    cfg_serial = small_config(tmp_path, out=str(tmp_path / "s"))
    cfg_pool = small_config(tmp_path, out=str(tmp_path / "p"), workers=2)
    assert run_scaling(cfg_serial).rows == run_scaling(cfg_pool).rows


_RUN_INSTANCE = experiments.run_instance


def _exit_on_n3_seed1(cfg, n, seed):
    if (n, seed) == (3, 1):
        os._exit(1)
    return _RUN_INSTANCE(cfg, n, seed)


def test_dead_worker_gives_error_rows_and_resume_reruns(tmp_path, monkeypatch):
    small = dict(n_list=(2, 3, 4), quantities=("census",), workers=2)
    cfg = small_config(tmp_path, out=str(tmp_path / "out"), **small)
    clean = run_scaling(small_config(tmp_path, out=str(tmp_path / "clean"), **small))
    monkeypatch.setattr(experiments, "run_instance", _exit_on_n3_seed1)
    report = run_scaling(cfg)
    lost = {(r.n, r.seed) for r in report.rows if r.certification == "error"}
    assert (3, 1) in lost
    for r in report.rows:
        if (r.n, r.seed) in lost:
            assert r.quantity == "census" and "BrokenProcessPool" in r.detail
        else:
            assert r in clean.rows
    assert {(r.n, r.seed) for r in report.rows} == {(r.n, r.seed) for r in clean.rows}
    monkeypatch.undo()
    assert run_scaling(cfg, resume=True).rows == clean.rows
    assert (tmp_path / "out" / "rows.csv").read_bytes() == \
        (tmp_path / "clean" / "rows.csv").read_bytes()


def test_resume_survives_torn_partial_file(tmp_path):
    # a crash mid-append leaves any prefix of the last instance's bytes
    small = dict(n_list=(2, 3), quantities=("census",))
    run_scaling(small_config(tmp_path, out=str(tmp_path / "full"), **small))
    expected = (tmp_path / "full" / "rows.csv").read_bytes()
    data = (tmp_path / "full" / "rows.partial.csv").read_bytes()
    sentinels = [i for i in range(len(data)) if data.startswith(b",_done,", i)]
    last_start = data.index(b"\n", sentinels[-2]) + 1

    for cut in range(last_start, len(data) + 1):
        out = tmp_path / f"cut{cut}"
        out.mkdir()
        (out / "rows.partial.csv").write_bytes(data[:cut])
        run_scaling(small_config(tmp_path, out=str(out), **small), resume=True)
        assert (out / "rows.csv").read_bytes() == expected, f"cut at byte {cut}"
        assert (out / "rows.partial.csv").read_bytes() == data, f"cut at byte {cut}"

    # rows of an instance that never reached its sentinel, left mid-file by an
    # earlier crash, never count: neither next to its rerun nor without one
    lines = data.splitlines(keepends=True)
    head, body = lines[:2], lines[2:]
    ends = [i + 1 for i, line in enumerate(body) if b",_done," in line]
    blocks = [body[lo:hi] for lo, hi in zip([0] + ends, ends)]
    assert len(blocks) == 4 and all(len(b) >= 3 for b in blocks)
    layouts = {
        "orphan before rerun": blocks[0][:2] + blocks[0] + blocks[1] + blocks[2],
        "orphan apart from rerun": blocks[0] + blocks[2][:1] + blocks[1] + blocks[2],
        "orphan never rerun": blocks[3][:2] + blocks[0] + blocks[1] + blocks[2],
    }
    for name, layout in layouts.items():
        out = tmp_path / name.replace(" ", "_")
        out.mkdir()
        (out / "rows.partial.csv").write_bytes(b"".join(head + layout))
        run_scaling(small_config(tmp_path, out=str(out), **small), resume=True)
        assert (out / "rows.csv").read_bytes() == expected, name


@pytest.mark.parametrize("margin, cert", [(1e-12, "heuristic"), (1e-4, "exact")])
def test_tau1_exact_needs_margin_above_kernel_error(monkeypatch, margin, cert):
    thr = math.exp(-1.0)

    def near_threshold(chain, mode, tau2_hint):
        # like mixing_time, report the mode that "auto" resolves to at this size
        assert mode == "auto"
        return MixingResult(tau1=10.5, t_lo=10.0, t_hi=11.0, d_lo=thr + margin,
                            d_hi=thr - 1e-3, mode="pairwise", resolution=1e-3,
                            error_bound=1e-10)

    monkeypatch.setattr(experiments, "mixing_time", near_threshold)
    rows = run_instance(small_config(quantities=("tau1",)), 4, 0)
    tau1 = next(r for r in rows if r.quantity == "tau1")
    assert tau1.certification == cert
    assert ("uncertified" in tau1.detail) == (cert == "heuristic")


def test_tau1_detail_counts_probes_and_pairs(tmp_path):
    small = dict(n_list=(9, 12), quantities=("tau1",))
    serial = run_scaling(small_config(tmp_path, out=str(tmp_path / "s"), **small))
    pool = run_scaling(small_config(tmp_path, out=str(tmp_path / "p"), workers=2, **small))
    cfg = small_config(tmp_path, out=str(tmp_path / "r"), **small)
    run_interrupted(cfg)
    resumed = run_scaling(cfg, resume=True)
    expected = (tmp_path / "s" / "rows.csv").read_bytes()
    assert (tmp_path / "p" / "rows.csv").read_bytes() == expected
    assert (tmp_path / "r" / "rows.csv").read_bytes() == expected
    assert serial.rows == pool.rows == resumed.rows
    tau1 = [r for r in serial.rows if r.quantity == "tau1"]
    assert len(tau1) == 4
    evaluated = []
    for row in tau1:
        mix = experiments._Instance(cfg, row.n, row.seed).mixing
        tokens = row.detail.split()
        assert f"probes={len(mix.trace)}" in tokens
        assert f"pairs_evaluated={mix.pairs_evaluated}" in tokens
        assert f"decided={len(mix.decided)}" in tokens
        assert f"modes={mix.modes}" in tokens
        assert f"landmarks={mix.landmarks}" in tokens
        assert 0 <= len(mix.decided) <= len(mix.trace)
        assert 1 <= mix.modes <= (2 * row.n + 1) ** 2  # at most one per box vertex
        evaluated.append(mix.pairs_evaluated)
    assert max(evaluated) > 0


def test_var_lower_detail_counts_sources(tmp_path):
    small = dict(n_list=(9, 12), quantities=("var_lower",))
    serial = run_scaling(small_config(tmp_path, out=str(tmp_path / "s"), **small))
    pool = run_scaling(small_config(tmp_path, out=str(tmp_path / "p"), workers=2, **small))
    cfg = small_config(tmp_path, out=str(tmp_path / "r"), **small)
    run_interrupted(cfg)
    resumed = run_scaling(cfg, resume=True)
    expected = (tmp_path / "s" / "rows.csv").read_bytes()
    assert (tmp_path / "p" / "rows.csv").read_bytes() == expected
    assert (tmp_path / "r" / "rows.csv").read_bytes() == expected
    assert serial.rows == pool.rows == resumed.rows
    rows = [r for r in serial.rows if r.quantity == "var_lower"]
    assert len(rows) == 4
    for row in rows:
        inst = experiments._Instance(cfg, row.n, row.seed)
        vb = inst.var_bound
        assert f"sources={vb.sources}" in row.detail.split()
        assert 1 <= vb.sources <= inst.chain.m


def test_phi_upper_detail_counts_windows(tmp_path):
    small = dict(n_list=(6, 9), quantities=("phi_upper",))
    serial = run_scaling(small_config(tmp_path, out=str(tmp_path / "s"), **small))
    run_scaling(small_config(tmp_path, out=str(tmp_path / "p"), workers=2, **small))
    assert (tmp_path / "p" / "rows.csv").read_bytes() == (tmp_path / "s" / "rows.csv").read_bytes()
    cfg = small_config(tmp_path, **small)
    rows = [r for r in serial.rows if r.quantity == "phi_upper"]
    assert len(rows) == 4
    for row in rows:
        profile = experiments._Instance(cfg, row.n, row.seed).box_profile
        assert f"windows={profile.cuts}" in row.detail.split()
        # every profile point has its own witness cut
        assert len(profile.points) <= profile.cuts
