"""percmix benchmark: run one workload's sweep the way `percmix scaling` runs it.

    python3 perfbench/run.py [--workload desk_preset] [--seed 0] [--seconds 30] [--trace 0]

Run from the root of a checkout. Without ``--workload`` it runs every
workload in turn, each with its default seed unless ``--seed`` is given. Each sweep runs as a closed loop in a fresh
child process (workers=1, BLAS/OpenMP threads pinned to 1, output to a
temporary directory under the checkout, so the fsync'd partial-file path is
measured). The child is restarted for every sweep; sweeps repeat while
another one still fits in ``--seconds`` (and at least the workload's
``min_sweeps`` times), and medians are reported.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` each measured sweep runs once untraced
and once traced, and the object carries the per-layer metrics. Every sweep's
rows are checked against ``refs/``; a failed check makes the exit code 1.
Exit code 2 means the checkout holds no percmix sources, 3 that a child
process failed or ran out of time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import check
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
SCRATCH = ROOT / ".perfbench_tmp"

THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
SETUP_PROBES = 4  # set-up-only children per run, after one discarded warm-up
DEADLINE_S = 170.0  # a run must exit within 180 s

LAYER_SECONDS = (
    "chain.mixing_time", "chain.build_chain",
    "spectral.spectral_gap", "spectral.distance_variance_lower_bound",
    "conductance.profile_upper_box", "conductance.sweep_cut", "conductance.lk_bound",
    "geometry.fpp_regression", "geometry.classify_good_vertices",
    "percolation.sample_bond_config", "percolation.largest_cluster",
    "percolation.cluster_census", "lattice.build_box", "experiments.emit_report",
)
SELF_SECONDS = ("experiments.run_instance", "experiments.run_scaling")


class ChildFailed(RuntimeError):
    pass


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    """Spawns children inside one temporary directory and keeps the deadline."""

    def __init__(self, workdir: Path, started: float, deadline_s: float = DEADLINE_S):
        self.workdir = workdir
        self.started = started
        self.deadline_s = deadline_s
        # Bytecode goes to the run's own directory: the warm-up child compiles
        # percmix once and every measured child loads the cached bytecode.
        self.env = dict(os.environ, PYTHONPATH=str(SRC),
                        PYTHONPYCACHEPREFIX=str(workdir / "pycache"), **THREAD_ENV)
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.spawned = 0

    def remaining(self) -> float:
        return self.deadline_s - (_monotonic() - self.started)

    def child(self, config: Path, sweep=False, trace=False) -> dict:
        """Run child.py once; returns its result with the set-up time added."""
        self.spawned += 1
        result_path = self.workdir / f"result{self.spawned}.json"
        cmd = [sys.executable, str(CHILD), "--config", str(config),
               "--result", str(result_path)]
        cmd += ["--sweep"] if sweep else []
        cmd += ["--trace"] if trace else []
        spawned = _monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=self.workdir,
                                  capture_output=True, text=True,
                                  timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"child ran past the {self.deadline_s:.0f} s deadline") from exc
        if proc.returncode != 0:
            raise ChildFailed(f"child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        if not Path(result["percmix"]).resolve().is_relative_to(SRC.resolve()):
            raise ChildFailed(f"child imported percmix from {result['percmix']}, not {SRC}")
        result["setup_s"] = result["ready"] - spawned
        return result


def _git(*args) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_record(workload, seed, seconds, trace, versions, loadavg) -> dict:
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_revision": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_at_start": loadavg,
        "versions": versions,
        "thread_env": THREAD_ENV,
    }


def _largest_instance_s(result, largest_n) -> float:
    times = [s for n, _, s in result["instance_s"] if n == largest_n]
    return sum(times) / len(times)


def _bytes_under(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _layer_metrics(traced: list, untraced: list) -> dict:
    """Per-layer metrics: medians over the traced sweeps of the run."""
    def med(values):
        return statistics.median(values)

    metrics = {}
    for name in LAYER_SECONDS:
        metrics[f"{name}.s"] = _metric(med([t["self_s"].get(name, 0.0) for t in traced]), "s")
    for name in SELF_SECONDS:
        metrics[f"{name}.self_s"] = _metric(
            med([t["self_s"].get(name, 0.0) for t in traced]), "s")
    for name in check.EXACT_COUNTS:
        metrics[name] = _metric(traced[0]["totals"].get(name, 0), "count")
    metrics["spectral.spectral_gap.residual_max"] = _metric(
        max(t["residual_max"] for t in traced), "1")
    metrics["experiments.bytes_written"] = _metric(traced[0]["bytes_written"], "bytes")
    metrics["trace.sweep_s"] = _metric(med([t["sweep_s"] for t in traced]), "s")
    metrics["trace.overhead_s"] = _metric(
        med([t["sweep_s"] - u["sweep_s"] for t, u in zip(traced, untraced)]), "s")
    return metrics


def run_workload(workload, seed: int, seconds: float, trace: int) -> int:
    """Measure one workload and print its metrics; returns the exit code."""
    started = _monotonic()
    loadavg = os.getloadavg()
    seeds = workload.instance_seeds(seed)
    instances = [(n, s) for n in workload.settings["n_list"] for s in seeds]
    refs = check.load_refs(workload.name)
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    runner = Runner(workdir, started)
    attempted, problems = 0, []
    setups, sweeps, traced = [], [], []
    try:
        def config(tag):
            path = workdir / f"{tag}.cfg"
            path.write_text(workload.config_text(seeds, str(workdir / tag)), encoding="utf-8")
            return path

        def sweep(tag, traced_sweep):
            nonlocal attempted
            result = runner.child(config(tag), sweep=True, trace=traced_sweep)
            setups.append(result["setup_s"])
            a, p = check.check_rows(workload, check.read_rows(workdir / tag / "rows.csv"),
                                    instances, refs)
            attempted += a
            problems.extend(p)
            if traced_sweep:
                result["bytes_written"] = _bytes_under(workdir / tag)
                counts = {check.instance_key(n, s): c for n, s, c in result["counts"]}
                a, p = check.check_counts(counts, instances, refs)
                attempted += a
                problems.extend(p)
                result["per_instance"] = counts
                result["totals"] = {name: sum(c.get(name, 0) for c in counts.values())
                                    for name in check.EXACT_COUNTS}
            shutil.rmtree(workdir / tag)
            return result

        probe_cfg = config("probe")
        runner.child(probe_cfg)  # warm-up: byte-compile and fill the file cache
        setups.extend(runner.child(probe_cfg)["setup_s"] for _ in range(SETUP_PROBES))

        measured = 0.0
        while True:
            t0 = _monotonic()
            sweeps.append(sweep(f"sweep{len(sweeps)}", traced_sweep=False))
            if trace:
                traced.append(sweep(f"traced{len(traced)}", traced_sweep=True))
            spent = _monotonic() - t0
            measured += spent
            enough = len(sweeps) >= workload.min_sweeps and measured + spent > seconds
            if enough or spent > runner.remaining():
                break
    except ChildFailed as exc:
        print(f"benchmark child failed: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run is using it

    for t in traced[1:]:
        if t["per_instance"] != traced[0]["per_instance"]:
            problems.append("exact counts differ between traced sweeps of one run")
        attempted += 1

    record = run_record(workload.name, seed, seconds, trace, sweeps[0]["versions"], loadavg)
    record["sweeps"] = len(sweeps)
    record["setup_probes"] = len(setups)
    failed = len(problems)
    failed_fraction = failed / attempted

    if trace:
        metrics = _layer_metrics(traced, sweeps)
    else:
        metrics = {
            "sweep_s": _metric(statistics.median(s["sweep_s"] for s in sweeps), "s"),
            "cpu_s": _metric(statistics.median(s["cpu_s"] for s in sweeps), "s"),
            "peak_rss_mb": _metric(
                statistics.median(s["peak_rss_kb"] / 1024 for s in sweeps), "MB"),
            "setup_s": _metric(statistics.median(setups), "s"),
            "largest_instance_s": _metric(statistics.median(
                _largest_instance_s(s, workload.largest_n) for s in sweeps), "s"),
        }

    print(f"# record {json.dumps(record)}")
    for problem in problems:
        print(f"# FAILED {problem}")
    if trace:
        accounted = sum(metrics[f"{name}.s"]["value"] for name in LAYER_SECONDS) + \
            sum(metrics[f"{name}.self_s"]["value"] for name in SELF_SECONDS)
        print(f"# layer self times account for {accounted:.4f} s of the traced "
              f"sweep_s {metrics['trace.sweep_s']['value']:.4f} s "
              f"({sum(t['spans'] for t in traced)} spans)")
    for name, m in metrics.items():
        print(f"{workload.name:>18} {name:<44} {m['value']:>14.6g} {m['unit']}")
    print(f"{workload.name:>18} {'failed_fraction':<44} {failed_fraction:>14.6g} "
          f"{failed}/{attempted}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=None,
                    help="first percolation seed (default: the workload's)")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (SRC / "percmix" / "__init__.py").is_file():
        print(f"no percmix sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    codes = []
    for name in names:
        workload = WORKLOADS[name]
        seed = workload.default_seed if args.seed is None else args.seed
        codes.append(run_workload(workload, seed, args.seconds, args.trace))
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
