"""Repeat the benchmark over several seeds and summarise each metric.

    python3 perfbench/repeat.py --seeds 0-9 [--workloads desk_preset,...]
                                [--traced-seed 0] [--out summary.json]

Runs ``run.py`` once per (workload, seed) in sequence, with the run length
from BENCHMARK.json, and reports for every end-to-end metric the median,
the first and third quartiles (``statistics.quantiles(n=4)``) and the spread
(third minus first quartile, as a share of the median) next to the metric's
bound. ``--traced-seed`` adds one ``--trace 1`` run per workload. Use it for
the parent-versus-change comparison a performance claim needs, alternating
which commit runs first.
"""

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from record_refs import seed_range

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stdout[-3000:]}\n{proc.stderr[-3000:]}")
    result = json.loads(lines[-1])
    record = next(json.loads(line[len("# record "):]) for line in lines
                  if line.startswith("# record "))
    return {"seed": seed, "record": record, **result}


def summarise(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True, help="e.g. 0-9")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--traced-seed", type=int, default=None)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    seeds = seed_range(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"seconds": bench["run_seconds"], "seeds": seeds,
               "machine": platform.machine(), "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            runs.append(_run(workload, seed, bench["run_seconds"], 0))
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4f}" for k, v in runs[-1]["metrics"].items()),
                flush=True)
        entry = {"metrics": {}, "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "record": runs[0]["record"]}
        for name, bound in bounds.items():
            s = summarise([r["metrics"][name]["value"] for r in runs])
            s["bound"] = bound
            entry["metrics"][name] = s
            flag = "" if s["spread"] < bound / 3 else "  (spread above a third of the bound)"
            print(f"{workload:>18} {name:<20} median={s['median']:.4f} "
                  f"q1={s['q1']:.4f} q3={s['q3']:.4f} spread={s['spread']:.4f} "
                  f"bound={bound}{flag}", flush=True)
        if args.traced_seed is not None:
            traced = _run(workload, args.traced_seed, bench["run_seconds"], 1)
            entry["traced"] = {"seed": args.traced_seed,
                               "metrics": {k: v["value"] for k, v in traced["metrics"].items()}}
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
