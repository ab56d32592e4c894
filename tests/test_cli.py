import os

import numpy as np

import percmix as pm
from percmix import experiments
from percmix.cli import main


def test_generate_binary_roundtrip(tmp_path):
    out = tmp_path / "cfg.bin"
    code = main(["generate", "--d", "2", "--n", "4", "--p", "0.7",
                 "--seed", "3", "--out", str(out)])
    assert code == 0
    config = pm.BondConfig.from_bytes(out.read_bytes())
    expect = pm.sample_bond_config(pm.BoxSpec(2, 4), 0.7, 3)
    assert np.array_equal(config.open_mask, expect.open_mask)


def test_generate_text(tmp_path):
    out = tmp_path / "cfg.txt"
    assert main(["generate", "--n", "3", "--seed", "1", "--format", "text",
                 "--out", str(out)]) == 0
    config = pm.BondConfig.from_text(out.read_text())
    assert config.seed == 1


def test_analyze_prints_rows(tmp_path, capsys):
    code = main(["analyze", "--n", "4", "--seed", "0",
                 "--quantities", "tau2,census", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "tau2=" in out
    assert "census_vertex_fraction=" in out
    assert (tmp_path / "rows.csv").exists()


def test_profile_exact_csv(tmp_path):
    out = tmp_path / "profile.csv"
    # p=1 keeps the n=1 cluster at 9 vertices, inside the exhaustive cap
    code = main(["profile", "--n", "1", "--p", "1.0", "--seed", "0",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,phi,certification,witness_size"
    assert any("exact" in line for line in lines[1:])


def test_profile_upper_bound_csv(tmp_path):
    out = tmp_path / "profile.csv"
    code = main(["profile", "--n", "6", "--p", "0.7", "--seed", "0",
                 "--out", str(out)])
    assert code == 0
    assert any("upper-bound" in line for line in out.read_text().splitlines())


def test_scaling_with_flags_and_determinism(tmp_path):
    args = ["scaling", "--n", "4,6", "--p", "0.7", "--seeds", "0,1",
            "--quantities", "tau2,census"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "rows.csv").read_bytes() == \
        (tmp_path / "b" / "rows.csv").read_bytes()


def test_scaling_with_config_file(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "d = 2\np = 0.7\nn_list = 4,6\nseed_list = 0\n"
        "quantities = tau2,census\n"
    )
    code = main(["scaling", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "rows.csv").exists()
    assert (tmp_path / "out" / "summary.txt").exists()


def test_scaling_resume_flag(tmp_path):
    args = ["scaling", "--n", "4", "--seeds", "0,1", "--quantities", "census",
            "--out", str(tmp_path / "out")]
    assert main(args) == 0
    assert main(args + ["--resume"]) == 0


def test_scaling_partial_exit_code(tmp_path):
    # fpp is undefined at d=3: error rows recorded, exit code 3
    code = main(["scaling", "--d", "3", "--n", "2", "--seeds", "0",
                 "--quantities", "census,fpp", "--out", str(tmp_path / "out")])
    assert code == 3


_RUN_INSTANCE = experiments.run_instance


def _exit_on_seed1(cfg, n, seed):
    if seed == 1:
        os._exit(1)
    return _RUN_INSTANCE(cfg, n, seed)


def test_scaling_dead_worker_exit_code(tmp_path, monkeypatch):
    monkeypatch.setattr(experiments, "run_instance", _exit_on_seed1)
    code = main(["scaling", "--n", "3", "--seeds", "0,1", "--quantities", "census",
                 "--workers", "2", "--out", str(tmp_path / "out")])
    assert code == 3
    assert "BrokenProcessPool" in (tmp_path / "out" / "rows.csv").read_text()


def test_renorm_csv(tmp_path):
    out = tmp_path / "renorm.csv"
    code = main(["renorm", "--n", "24", "--p", "1.0", "--seeds", "0,1",
                 "--N", "8", "--out", str(out)])
    assert code == 0
    assert out.read_text().count("\n") == 3  # header + 2 rows


def test_fpp_csv(tmp_path):
    out = tmp_path / "fpp.csv"
    code = main(["fpp", "--n", "16", "--p", "1.0", "--seed", "0",
                 "--pairs", "40", "--l1", "4,16", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("p,n,seed")


def test_validation_exit_codes(tmp_path):
    assert main(["analyze", "--n", "4", "--p", "1.5"]) == 1  # bad probability
    assert main(["analyze", "--n", "4,6"]) == 1  # needs a single n
    assert main(["frobnicate"]) == 1  # unknown subcommand
    assert main([]) == 1
