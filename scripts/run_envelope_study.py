#!/usr/bin/env python3
"""Conductance-profile upper envelope of one cluster, swept across masses.

Builds the largest cluster at (d=2, n, p, seed), records the window/sweep
upper-bound profile, fits log(phi) against log(x) at fixed n, and writes the
profile CSV. The envelope mixes the small-mass plateau (short dangling
pieces, phi of order one) with the window regime, so the measured in-x slope
sits well above the pure window prediction of -1/2; see the pilot notes in
tests/test_acceptance.py.
"""

import argparse

import numpy as np

import percmix as pm
from percmix.fitting import fit_linear


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=32)
    ap.add_argument("--p", type=float, default=0.7)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="envelope.csv")
    args = ap.parse_args()

    config = pm.sample_bond_config(pm.BoxSpec(2, args.n), args.p, args.seed)
    chain = pm.build_chain(pm.largest_cluster(config))
    profile = pm.profile_upper_box(chain)
    profile.to_csv(args.out)

    xs = np.array([pt.x for pt in profile.points])
    phis = np.array([pt.phi for pt in profile.points])
    full = fit_linear(np.log(xs), np.log(phis))
    window = None
    keep = xs >= 0.01
    if keep.sum() >= 3:
        window = fit_linear(np.log(xs[keep]), np.log(phis[keep]))
    print(f"cluster: {chain.m} vertices; envelope points: {len(xs)} -> {args.out}")
    print(f"full-range slope {full.slope:+.3f} (r2={full.r_squared:.3f})")
    if window is not None:
        print(f"x >= 0.01 slope {window.slope:+.3f} (r2={window.r_squared:.3f})")


if __name__ == "__main__":
    main()
