"""Record reference rows and exact work counts for the output checks.

    python3 perfbench/record_refs.py --workload desk_preset --seeds 0-20

Runs one traced sweep per instance seed at the current commit, in the same
child process set-up as the benchmark, and merges every (n, seed) instance
into ``refs/<workload>.json``. Rows that already fail the workload's
expected certifications or inequality suite are refused, not recorded.
Re-record only when a change is meant to alter results, and say why in the
change's notes.
"""

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import check
import run
from workloads import WORKLOADS


def seed_range(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record_seed(workload, seed: int, workdir: Path) -> dict:
    runner = run.Runner(workdir, run._monotonic())
    cfg = workdir / f"seed{seed}.cfg"
    out = workdir / f"seed{seed}"
    cfg.write_text(workload.config_text((seed,), str(out)), encoding="utf-8")
    result = runner.child(cfg, sweep=True, trace=True)
    rows = check.read_rows(out / "rows.csv")
    instances = [(n, seed) for n in workload.settings["n_list"]]
    _, problems = check.check_rows(workload, rows, instances, {})
    if problems:
        raise SystemExit(f"seed {seed} fails its expectations: {problems}")
    counts = {check.instance_key(n, s): c for n, s, c in result["counts"]}
    entries = {}
    for n, s in instances:
        key = check.instance_key(n, s)
        entries[key] = {
            "rows": {q: [v, cert, check.resolution(detail) if q == "tau1" else None]
                     for q, (v, cert, detail) in sorted(rows[key].items())},
            "counts": {name: counts.get(key, {}).get(name, 0)
                       for name in check.EXACT_COUNTS},
        }
    print(f"{workload.name} seed {seed}: sweep_s={result['sweep_s']:.3f}", flush=True)
    return entries


def _dumps(doc: dict) -> str:
    """JSON with one line per instance, so a re-recording diffs by instance."""
    head = {k: v for k, v in doc.items() if k != "instances"}
    lines = [f" {json.dumps(k)}: {json.dumps(v)}" for k, v in doc["instances"].items()]
    return (json.dumps(head)[:-1] + ', "instances": {\n' + ",\n".join(lines)
            + "\n}}\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seeds", required=True, help="instance seeds, e.g. 0-20 or 0,3,5")
    args = ap.parse_args()
    workload = WORKLOADS[args.workload]
    path = check.REFS_DIR / f"{workload.name}.json"
    doc = {"instances": {}}
    if path.exists():
        doc = json.loads(path.read_text(encoding="utf-8"))
    run.SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="record-", dir=run.SCRATCH))
    try:
        for seed in seed_range(args.seeds):
            doc["instances"].update(record_seed(workload, seed, workdir))
            doc["recorded_at"] = run._git("rev-parse", "HEAD")
            doc["settings"] = {k: list(v) if isinstance(v, tuple) else v
                               for k, v in workload.settings.items()}
            doc["instances"] = dict(sorted(
                doc["instances"].items(),
                key=lambda kv: tuple(int(x) for x in kv[0].split(":"))))
            check.REFS_DIR.mkdir(exist_ok=True)
            path.write_text(_dumps(doc), encoding="utf-8")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
