import math
import os

import numpy as np
import pytest

import percmix as pm
from percmix import experiments
from percmix.chain import MixingResult
from percmix.errors import DomainError
from percmix.experiments import (
    SCHEMA_VERSION,
    ExperimentConfig,
    Row,
    SweepInterrupted,
    compute_fits,
    default_preset,
    emit_report,
    read_rows,
    run_instance,
    run_scaling,
    write_rows,
)
from percmix.fitting import fit_linear, fit_loglog, fit_through_origin


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


def test_default_preset_is_desk_scale():
    cfg = default_preset()
    assert cfg.d == 2 and cfg.p == 0.7
    assert cfg.n_list == (6, 9, 12, 16, 21)
    assert len(cfg.seed_list) == 5
    # pairwise mixing stays exact on every preset instance
    assert (2 * max(cfg.n_list) + 1) ** 2 <= 5000


def test_config_file_roundtrip(tmp_path):
    cfg = ExperimentConfig(n_list=(4, 6), seed_list=(1, 2, 3),
                           quantities=("tau2", "census"), out="somewhere",
                           renorm_blocks=(8,))
    path = tmp_path / "sweep.cfg"
    cfg.to_file(path)
    assert ExperimentConfig.from_file(path) == cfg


def test_config_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("d = 2\nwarp = 9\n")
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
    with pytest.raises(SweepInterrupted):
        run_scaling(cfg_resume, stop_after=2)
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

    def near_threshold(chain, resolution, mode, tol, tau2_hint):
        return MixingResult(tau1=10.5, t_lo=10.0, t_hi=11.0, d_lo=thr + margin,
                            d_hi=thr - 1e-3, mode=mode, resolution=resolution,
                            poisson_tol=tol, error_bound=1e-10)

    monkeypatch.setattr(experiments, "mixing_time", near_threshold)
    rows = run_instance(small_config(quantities=("tau1",)), 4, 0)
    tau1 = next(r for r in rows if r.quantity == "tau1")
    assert tau1.certification == cert
    assert ("uncertified" in tau1.detail) == (cert == "heuristic")
