"""Command-line interface.

Subcommands: generate (emit a configuration), analyze (one instance, all
quantities), profile (conductance profile of one instance), scaling (full
sweep), renorm (good-site density curves), fpp (dual first-passage
regression). Exit codes: 0 success, 1 validation error, 2 runtime error,
3 sweep finished with per-instance errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import conductance as cond
from .chain import build_chain
from .errors import DomainError, PercmixError
from .experiments import (
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_RUNTIME,
    EXIT_VALIDATION,
    ExperimentConfig,
    check_seed_list,
    parse_quantities,
    run_instance,
    run_scaling,
)
from .geometry import (check_block_scales, check_fpp_fits, check_fpp_request,
                       density_rows_to_csv, fpp_regression, good_density_curve)
from .lattice import BoxSpec
from .percolation import largest_cluster, sample_bond_config

# The defaults of the instance flags that ExperimentConfig has no field for;
# --d, --p, --mode and --workers default to its fields. `scaling` leaves its
# sweep flags unset, so that it can refuse them next to --config, which sets
# the sweep itself.
_DEFAULTS = {"n": "8", "seed": 0}
_SWEEP_FLAGS = ("d", "n", "p", "seed", "seeds", "quantities", "mode", "workers")


def _int_list(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise DomainError(f"expected a comma list of integers, got {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="percmix",
        description="Percolation clusters, random-walk mixing, and conductance profiles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeds=False):
        p.add_argument("--d", type=int, default=ExperimentConfig.d, help="lattice dimension")
        p.add_argument("--n", type=str, default=_DEFAULTS["n"],
                       help="box radius (comma list allowed where a sweep makes sense)")
        p.add_argument("--p", type=float, default=ExperimentConfig.p, help="open-edge probability")
        p.add_argument("--seed", type=int, default=_DEFAULTS["seed"], help="configuration seed")
        if seeds:
            p.add_argument("--seeds", type=str, default=None,
                           help="comma list of seeds (overrides --seed)")
        p.add_argument("--out", type=str, default=None, help="output file or directory")

    g = sub.add_parser("generate", help="emit a bond configuration block")
    common(g)
    g.add_argument("--format", choices=("binary", "text"), default="binary")

    a = sub.add_parser("analyze", help="all quantities for one instance")
    common(a)
    a.add_argument("--quantities", type=str, default=None,
                   help="comma list (default: all desk-scale quantities)")
    a.add_argument("--mode", choices=("pairwise", "stationarity", "auto"),
                   default=ExperimentConfig.mode)

    pr = sub.add_parser("profile", help="conductance profile for one instance")
    common(pr)

    sc = sub.add_parser("scaling", help="full (n, seed) sweep with fits")
    common(sc, seeds=True)
    sc.add_argument("--quantities", type=str, default=None)
    sc.add_argument("--mode", choices=("pairwise", "stationarity", "auto"))
    sc.add_argument("--config", type=str, default=None, help="config file (key = value)")
    sc.add_argument("--resume", action="store_true",
                    help="reuse completed instances from a previous partial run")
    sc.add_argument("--workers", type=int)
    sc.set_defaults(**dict.fromkeys(_SWEEP_FLAGS))

    rn = sub.add_parser("renorm", help="good-site density curves")
    common(rn, seeds=True)
    rn.add_argument("--N", type=str, default="8,16", help="comma list of block scales")
    rn.set_defaults(n="80")  # the windows of --N 16 need a box radius of at least 20

    fp = sub.add_parser("fpp", help="dual first-passage distance regression")
    common(fp, seeds=True)
    fp.add_argument("--pairs", type=int, default=300)
    fp.add_argument("--l1", type=str, default="10,60", help="L1 separation range lo,hi")
    fp.set_defaults(n="32")  # the default --l1 needs a box radius of at least 21
    return parser


def _single_n(args) -> int:
    ns = _int_list(args.n)
    if len(ns) != 1:
        raise DomainError(f"{args.command} needs a single --n, got {args.n!r}")
    return ns[0]


def _seed_list(args) -> tuple:
    seeds = _int_list(args.seeds) if getattr(args, "seeds", None) else (args.seed,)
    check_seed_list(seeds)
    return seeds


def _quantities(args) -> tuple:
    """The --quantities list, or the default list only when the flag is absent."""
    if args.quantities is None:
        return ExperimentConfig().quantities
    return parse_quantities(args.quantities)


def _cmd_generate(args) -> int:
    box = BoxSpec(args.d, _single_n(args))
    config = sample_bond_config(box, args.p, args.seed)
    out = Path(args.out) if args.out else Path(
        f"bond_d{box.d}_n{box.n}_s{args.seed}.{'bin' if args.format == 'binary' else 'txt'}"
    )
    if args.format == "binary":
        out.write_bytes(config.to_bytes())
    else:
        out.write_text(config.to_text(), encoding="utf-8")
    print(f"wrote {out} ({config.open_count} open of {box.edge_count} edges)")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    cfg = ExperimentConfig(
        d=args.d, p=args.p, n_list=(_single_n(args),), seed_list=(args.seed,),
        quantities=_quantities(args), mode=args.mode,
    )
    rows = run_instance(cfg, cfg.n_list[0], args.seed)
    for r in rows:
        print(f"{r.quantity}={r.value!r} certification={r.certification} {r.detail}")
    if args.out:
        from .experiments import write_rows

        write_rows(Path(args.out) / "rows.csv", rows)
    return EXIT_PARTIAL if any(r.certification == "error" for r in rows) else EXIT_OK


def _cmd_profile(args) -> int:
    n = _single_n(args)
    config = sample_bond_config(BoxSpec(args.d, n), args.p, args.seed)
    chain = build_chain(largest_cluster(config))
    if chain.m <= cond.EXHAUSTIVE_CAP:
        profile = cond.profile_exact(chain)
    else:
        profile = cond.profile_upper_box(chain)
    out = Path(args.out) if args.out else Path(f"profile_d{args.d}_n{n}_s{args.seed}.csv")
    profile.to_csv(out)
    kind = profile.points[0].certification if profile.points else "empty"
    print(f"wrote {out} ({len(profile.points)} breakpoints, {kind})")
    return EXIT_OK


def _cmd_scaling(args) -> int:
    if args.config:
        given = [f"--{k}" for k in _SWEEP_FLAGS if getattr(args, k) is not None]
        if given:
            raise DomainError(f"--config sets the sweep; drop {', '.join(given)}")
        cfg = ExperimentConfig.from_file(args.config)
        if args.out:
            cfg = replace(cfg, out=args.out)
    else:
        for k, default in _DEFAULTS.items():
            if getattr(args, k) is None:
                setattr(args, k, default)
        given = {k: getattr(args, k) for k in ("d", "p", "mode", "workers")
                 if getattr(args, k) is not None}
        cfg = ExperimentConfig(
            n_list=_int_list(args.n), seed_list=_seed_list(args),
            quantities=_quantities(args), out=args.out, **given,
        )
    if cfg.out is None:
        cfg = replace(cfg, out="percmix_out")
    report = run_scaling(cfg, resume=args.resume)
    print(f"rows={len(report.rows)} errors={report.error_rows} "
          f"violations={report.violations} out={cfg.out}")
    for q, fit in sorted(report.fits.items()):
        print(f"fit {q}: slope={fit.slope:.4f} r2={fit.r_squared:.4f}")
    for q, reason in sorted(report.fit_refusals.items()):
        print(f"fit {q}: refused ({reason})")
    return EXIT_PARTIAL if report.error_rows else EXIT_OK


def _cmd_renorm(args) -> int:
    n = _single_n(args)
    blocks = _int_list(args.N)
    check_block_scales(blocks)
    rows = good_density_curve(args.d, n, args.p, blocks, _seed_list(args))
    out = Path(args.out) if args.out else Path(f"renorm_d{args.d}_n{n}.csv")
    density_rows_to_csv(rows, out)
    for block in blocks:
        vals = [r.density for r in rows if r.block == block]
        print(f"N={block}: mean_density={sum(vals) / len(vals):.4f} over {len(vals)} seeds")
    print(f"wrote {out}")
    return EXIT_OK


def _cmd_fpp(args) -> int:
    n = _single_n(args)
    l1 = _int_list(args.l1)
    if len(l1) != 2:
        raise DomainError(f"--l1 needs two values lo,hi, got {args.l1!r}")
    lo, hi = l1
    check_fpp_request(args.pairs, (lo, hi))
    if args.d == 2:  # other dimensions fail in the field, which names the cause
        check_fpp_fits(n, hi)
    out = Path(args.out) if args.out else Path(f"fpp_d{args.d}_n{n}.csv")
    lines = ["p,n,seed,pairs,slope,intercept,r_squared\n"]
    for seed in _seed_list(args):  # every fit first: a failure writes no file
        config = sample_bond_config(BoxSpec(args.d, n), args.p, seed)
        reg = fpp_regression(config, n_pairs=args.pairs, l1_range=(lo, hi),
                             rng_seed=seed)
        lines.append(f"{args.p!r},{n},{seed},{reg.n_pairs},{reg.slope!r},"
                     f"{reg.intercept!r},{reg.r_squared!r}\n")
        print(f"seed={seed}: slope={reg.slope:.4f} r2={reg.r_squared:.4f}")
    out.write_text("".join(lines), encoding="utf-8")
    print(f"wrote {out}")
    return EXIT_OK


_COMMANDS = {
    "generate": _cmd_generate,
    "analyze": _cmd_analyze,
    "profile": _cmd_profile,
    "scaling": _cmd_scaling,
    "renorm": _cmd_renorm,
    "fpp": _cmd_fpp,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (PercmixError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
