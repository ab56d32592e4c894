"""Output checks: compare a sweep's rows.csv with the stored references.

References live in ``refs/<workload>.json``, one entry per (n, seed)
instance, recorded by ``record_refs.py`` at the commit named in the file.
Each entry holds every row (value, certification and, for tau1, the row's
resolution) and the exact work counts of a traced run.

Row rules:
- tau1 agrees within the larger of the two rows' resolutions;
- tau2, var_lower and lk agree within a relative tolerance of 1e-8;
- every other quantity (census, phi_upper, fpp, renorm) matches exactly;
- the certification equals both the workload's expected one and the
  reference's, and every ineq_* row reads 1.

An instance without a stored reference is still held to the expected
certifications, the expected row set and the inequality suite.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFS_DIR = Path(__file__).resolve().parent / "refs"
RELATIVE_TOL = 1e-8
RELATIVE_QUANTITIES = ("tau2", "var_lower", "lk")
EXACT_COUNTS = (
    "chain.mixing_time.probes",
    "conductance.profile_upper_box.points",
    "spectral.spectral_gap.iterative_calls",
    "geometry.fpp_regression.pairs",
    "geometry.classify_good_vertices.classified",
    "percolation.cluster_vertices",
)


def instance_key(n, seed) -> str:
    return f"{int(n)}:{int(seed)}"


def read_rows(path) -> dict:
    """rows.csv -> {instance key: {quantity: (value, certification, detail)}}."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("d,") or not line.strip():
                continue
            d, p, n, seed, quantity, value, cert, detail = line.rstrip("\n").split(",", 7)
            out.setdefault(instance_key(n, seed), {})[quantity] = (float(value), cert, detail)
    return out


def resolution(detail: str) -> float:
    for token in detail.split():
        if token.startswith("resolution="):
            return float(token.split("=", 1)[1])
    raise ValueError(f"tau1 row has no resolution: {detail!r}")


def load_refs(workload: str) -> dict:
    path = REFS_DIR / f"{workload}.json"
    if not path.exists():
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["instances"]


def _row_problem(quantity, got, ref, expected_cert):
    value, cert, detail = got
    if cert != expected_cert:
        return f"certification {cert}, expected {expected_cert}"
    if not math.isfinite(value):
        return f"value {value!r}"
    if quantity.startswith("ineq_"):
        return None if value == 1.0 else "inequality violated"
    if ref is None:
        return None
    ref_value, ref_cert = ref[0], ref[1]
    if cert != ref_cert:
        return f"certification {cert}, reference {ref_cert}"
    if quantity == "tau1":
        tol = max(resolution(detail), ref[2])
        ok = abs(value - ref_value) <= tol
    elif quantity in RELATIVE_QUANTITIES:
        ok = abs(value - ref_value) <= RELATIVE_TOL * abs(ref_value)
    else:
        ok = value == ref_value
    return None if ok else f"value {value!r}, reference {ref_value!r}"


def check_rows(workload, rows: dict, instances, refs: dict) -> tuple:
    """Return (attempted, problems) for one sweep's rows against its instances."""
    attempted, problems = 0, []
    for n, seed in instances:
        key = instance_key(n, seed)
        got = rows.get(key, {})
        ref_rows = refs.get(key, {}).get("rows")
        for quantity in sorted(set(workload.expected) | set(got)):
            attempted += 1
            if quantity not in workload.expected:
                problems.append(f"{key} {quantity}: unexpected row")
            elif quantity not in got:
                problems.append(f"{key} {quantity}: missing")
            else:
                ref = ref_rows.get(quantity) if ref_rows is not None else None
                if ref_rows is not None and ref is None:
                    problems.append(f"{key} {quantity}: not in reference")
                    continue
                why = _row_problem(quantity, got[quantity], ref,
                                   workload.expected[quantity])
                if why:
                    problems.append(f"{key} {quantity}: {why}")
    return attempted, problems


def check_counts(counts: dict, instances, refs: dict) -> tuple:
    """Exact work counts of a traced run against the reference's traced run."""
    attempted, problems = 0, []
    for n, seed in instances:
        key = instance_key(n, seed)
        if key not in refs:
            continue
        got = counts.get(key, {})
        want = refs[key]["counts"]
        for name in EXACT_COUNTS:
            attempted += 1
            if got.get(name, 0) != want.get(name, 0):
                problems.append(f"{key} {name}: {got.get(name, 0)}, "
                                f"reference {want.get(name, 0)}")
    return attempted, problems
