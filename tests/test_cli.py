import os

import numpy as np
import pytest

import percmix as pm
from percmix import cli, experiments
from percmix.cli import main
from helpers import cheeger_exact


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


def test_scaling_checks_cheeger_on_every_tiny_instance(tmp_path):
    out = tmp_path / "out"
    assert main(["scaling", "--d", "2", "--n", "1,2", "--seeds", "0,1,2,3,4,5,6,7",
                 "--quantities", "tau1,tau2,phi_upper,lk,var_lower", "--out", str(out)]) == 0
    rows = [r for r in experiments.read_rows(out / "rows.csv")
            if r.quantity == "ineq_cheeger"]
    assert len(rows) == 11  # one per instance within the exhaustive cap
    for r in rows:
        config = pm.sample_bond_config(pm.BoxSpec(2, r.n), 0.7, r.seed)
        phi = cheeger_exact(pm.build_chain(pm.largest_cluster(config))).phi
        assert r.value == 1.0
        assert r.detail.split()[-1] == f"bound={8.0 / (phi * phi)!r}"


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


# --n 8 is smaller than every window at the default --N 8,16; a scale that
# classifies no site wrote n_classified=0 and density=0.0 and exited 0
@pytest.mark.parametrize("args", [["--n", "8"], ["--n", "6", "--seeds", "0", "--N", "8"],
                                  ["--n", "12", "--N", "8,16"]])
def test_renorm_window_wider_than_box_exits_1_before_writing(tmp_path, capsys, args):
    out = tmp_path / "renorm.csv"
    assert main(["renorm", *args, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: renorm_blocks ")
    assert not out.exists()


def test_scaling_fpp_range_wider_than_box_exits_1_before_writing(tmp_path, capsys):
    # it wrote one error row per instance and exited 3
    out = tmp_path / "out"
    assert main(["scaling", "--n", "16", "--seeds", "0", "--quantities", "fpp",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: L1 range exceeds the interior span\n"
    assert not out.exists()


def test_scaling_renorm_window_wider_than_box_exits_1_before_writing(tmp_path, capsys):
    # it wrote one error row per instance and exited 3
    out = tmp_path / "out"
    assert main(["scaling", "--n", "6,9", "--seeds", "0", "--quantities", "renorm",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: renorm_blocks ")
    assert not out.exists()


@pytest.mark.parametrize("command, out", [("renorm", "renorm_d2_n80.csv"),
                                          ("fpp", "fpp_d2_n32.csv")])
def test_defaults_describe_a_valid_run(tmp_path, monkeypatch, command, out):
    # the --n 8 shared by every subcommand was too small for either one's defaults
    monkeypatch.chdir(tmp_path)
    assert main([command]) == 0
    lines = (tmp_path / out).read_text().splitlines()
    assert len(lines) == 1 + (2 if command == "renorm" else 1)  # header + rows


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


@pytest.mark.parametrize("args", [["--n", "4,4"], ["--n", "4,6,6"],
                                  ["--n", "4", "--seeds", "1,1"]])
def test_scaling_repeated_instance_exits_1_before_writing(tmp_path, capsys, args):
    out = tmp_path / "out"
    assert main(["scaling", *args, "--quantities", "census", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["renorm", "--n", "24", "--p", "1.0", "--N", "8", "--seeds", "1,1"],
    ["renorm", "--n", "24", "--p", "1.0", "--N", "8", "--seeds", "0,1,0"],
    ["fpp", "--n", "16", "--p", "1.0", "--pairs", "40", "--l1", "4,16", "--seeds", "1,1"],
])
def test_repeated_seed_exits_1_before_writing(tmp_path, capsys, args):
    out = tmp_path / "out.csv"
    assert main([*args, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: seed_list repeats: ")
    assert not out.exists()


@pytest.mark.parametrize("blocks", ["8,8", "8,16,8", ",", "4"])
def test_renorm_bad_block_scales_exit_1_before_writing(tmp_path, capsys, blocks):
    # a repeated --N printed "over 2 seeds" for one seed and wrote every row twice
    out = tmp_path / "r.csv"
    assert main(["renorm", "--n", "40", "--N", blocks, "--seeds", "0",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: renorm_blocks ")
    assert not out.exists()


def test_malformed_numbers_exit_1(tmp_path, capsys):
    out = str(tmp_path / "out")
    cases = [
        ["analyze", "--n", "x"],
        ["scaling", "--n", "4", "--seeds", "a", "--quantities", "census", "--out", out],
        ["renorm", "--n", "24", "--N", "8,x", "--out", str(tmp_path / "r.csv")],
        ["fpp", "--n", "16", "--l1", "10", "--out", str(tmp_path / "f.csv")],
        ["fpp", "--n", "16", "--l1", "4,8,16", "--out", str(tmp_path / "f.csv")],
    ]
    for args in cases:
        assert main(args) == 1, args
        assert capsys.readouterr().err.startswith("error: "), args


@pytest.mark.parametrize("command", ["analyze", "scaling"])
@pytest.mark.parametrize("quantities", [",", ""], ids=["comma", "empty"])
def test_empty_quantity_list_exits_1_before_writing(tmp_path, capsys, command, quantities):
    # a list that parses empty is an error, not a request for the default list
    out = tmp_path / "out"
    assert main([command, "--n", "3", "--quantities", quantities, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: at least one quantity is required\n"
    assert not out.exists()


@pytest.mark.parametrize("args", [["--l1=-3,10"], ["--l1", "20,10"], ["--l1", "5,5"],
                                  ["--pairs", "0"], ["--pairs", "-4"], ["--n", "8"]])
def test_bad_fpp_request_exits_1_before_writing(tmp_path, capsys, args):
    out = tmp_path / "f.csv"
    assert main(["fpp", "--n", "16", "--out", str(out), *args]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_fpp_range_wider_than_box_exits_1_before_sampling(tmp_path, capsys, monkeypatch):
    # the fit check ran only inside fpp_regression, after the first seed was sampled
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled a configuration")

    monkeypatch.setattr(cli, "sample_bond_config", no_sampling)
    out = tmp_path / "f.csv"
    assert main(["fpp", "--n", "16", "--l1", "10,60", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: L1 range exceeds the interior span\n"
    assert not out.exists()


@pytest.mark.parametrize("line", ["n_list = 4,six", "d = 2.5", "renorm_blocks = 4",
                                  "rtol = 1e-10", "seed_list = 1,1",
                                  "renorm_blocks = 8,8", "renorm_blocks = "])
def test_bad_config_file_exits_1(tmp_path, capsys, line):
    cfg = tmp_path / "sweep.cfg"
    # the bad line replaces its key's valid value rather than repeating the key
    base = [f"{k} = {v}" for k, v in [("n_list", "4"), ("seed_list", "0"),
                                       ("quantities", "census")] if not line.startswith(k)]
    cfg.write_text("\n".join([*base, line]) + "\n")
    assert main(["scaling", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags", [
    ["--seeds", "3,4"], ["--n", "4"], ["--d", "2"], ["--p", "0.7"], ["--seed", "0"],
    ["--quantities", "census"], ["--mode", "auto"], ["--workers", "1"],
    ["--seeds", "3,4", "--workers", "2"],
])
def test_scaling_refuses_sweep_flags_next_to_config(tmp_path, capsys, flags):
    # the config file sets the sweep; a flag beside it would be ignored
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("n_list = 4\nseed_list = 0\nquantities = census\n")
    out = tmp_path / "out"
    assert main(["scaling", "--config", str(cfg), *flags, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert all(f in err for f in flags if f.startswith("--"))
    assert not out.exists()
    # --out and --resume still combine with --config
    assert main(["scaling", "--config", str(cfg), "--resume", "--out", str(out)]) == 0
