#!/usr/bin/env python3
"""Time the pairwise mixing search on single clusters, one fresh process each.

For each box (d, n) it samples the bond configuration at --p and --seed,
takes the largest cluster, solves the spectral gap and runs the pairwise
`mixing_time` from it. It prints the gap and mixing wall times, the peak
RSS of the process, tau1 with its certification, and the counted tokens
rows=, pairs_evaluated=, modes= and landmarks=. A cluster above the
pairwise cap gets one "skipped" line, and the report goes on to the next
box. Each run is a new process, so its peak RSS is its own. To compare two
versions, run it once with each source tree on PYTHONPATH:

    PYTHONPATH=src python3 scripts/mixing_report.py --box 3,8 --box 2,32
"""

import argparse
import multiprocessing
import resource
import time


def run(d, n, p, seed):
    import percmix as pm
    from percmix.caps import PAIRWISE_CAP

    chain = pm.build_chain(pm.largest_cluster(pm.sample_bond_config(pm.BoxSpec(d, n), p, seed)))
    if chain.m > PAIRWISE_CAP:
        return f"d={d} n={n} m={chain.m} skipped: above the pairwise cap {PAIRWISE_CAP}"
    t0 = time.perf_counter()
    tau2 = pm.spectral_gap(chain).tau2
    t1 = time.perf_counter()
    mix = pm.mixing_time(chain, mode="pairwise", tau2_hint=tau2)
    t2 = time.perf_counter()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux
    return (f"d={d} n={n} m={chain.m} gap_s={t1 - t0:.3f} mixing_s={t2 - t1:.3f} "
            f"peak_rss_mb={peak_mb:.1f} tau1={mix.tau1!r} certified={int(mix.certified)} "
            f"rows={mix.rows_made} pairs_evaluated={mix.pairs_evaluated} modes={mix.modes} "
            f"landmarks={mix.landmarks}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--box", action="append", help="d,n (repeatable; default 3,8 and 2,32)")
    ap.add_argument("--p", type=float, default=0.7)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--repeats", type=int, default=1, help="runs per box")
    args = ap.parse_args()

    boxes = [tuple(int(x) for x in box.split(",")) for box in args.box or ["3,8", "2,32"]]
    ctx = multiprocessing.get_context("spawn")
    for d, n in boxes:
        for _ in range(args.repeats):
            with ctx.Pool(1) as pool:
                print(pool.apply(run, (d, n, args.p, args.seed)), flush=True)


if __name__ == "__main__":
    main()
