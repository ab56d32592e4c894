#!/usr/bin/env python3
"""Run the desk-scale sweep (d=2, p=0.7, n in {6,9,12,16,21}, 5 seeds).

Writes rows.csv / summary.txt / plot data under --out and prints the headline
scaling fits, both per-seed and disorder-averaged.
"""

import argparse
import time

from percmix.experiments import default_preset, run_scaling
from percmix.fitting import fit_loglog, fit_loglog_geomean


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="preset_out")
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--resume", action="store_true")
    args = ap.parse_args()

    cfg = default_preset(out=args.out, workers=args.workers)
    t0 = time.time()
    report = run_scaling(cfg, resume=args.resume)
    print(f"finished in {time.time() - t0:.1f} s: "
          f"{len(report.rows)} rows, {report.error_rows} errors, "
          f"{report.violations} inequality violations -> {args.out}")
    for quantity in ("tau1", "tau2", "phi_upper", "var_lower"):
        pts = [(r.n, r.value) for r in report.rows
               if r.quantity == quantity and r.certification != "error"]
        if not pts:
            continue
        per_seed = fit_loglog(pts)
        averaged = fit_loglog_geomean(pts)
        print(f"{quantity:>10}: slope={averaged.slope:+.3f} "
              f"r2={averaged.r_squared:.3f} "
              f"(per-seed slope={per_seed.slope:+.3f} r2={per_seed.r_squared:.3f})")


if __name__ == "__main__":
    main()
