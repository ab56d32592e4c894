"""Configuration-driven experiment sweeps over (n, seed) instances.

Every instance runs the same pipeline: sample a bond configuration, extract
the largest cluster, build the walk, then evaluate the requested quantities.
Results are long-form rows (one row per instance and quantity) carrying a
certification tag, so exact values, certified upper bounds and heuristics
never mix silently; log-log fits refuse mixed certifications outright.
Instance rows are appended to a partial file as they finish, which makes
interrupted sweeps resumable by (n, seed) key, and the final CSV is written
in canonical order so identical configurations produce identical bytes.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from pathlib import Path

from . import conductance as cond
from . import spectral as spec
from .caps import DENSE_CAP
from .chain import Chain, build_chain, mixing_time
from .errors import DomainError, InequalityViolationError
from .fitting import fit_loglog
from .geometry import (check_block_scales, check_fpp_fits, check_fpp_request,
                       check_windows_fit, classify_good_vertices, fpp_regression)
from .lattice import BoxSpec
from .percolation import cluster_census, largest_cluster, sample_bond_config

SCHEMA_VERSION = 1
QUANTITIES = ("tau1", "tau2", "phi_upper", "lk", "var_lower", "census", "fpp", "renorm")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_PARTIAL = 3

# Environment variables that set the BLAS/OpenMP thread count.
THREAD_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_quantities(text: str) -> tuple:
    """Quantity names from a comma list; a dash in a name reads as an underscore."""
    return tuple(q.strip().replace("-", "_") for q in text.split(",") if q.strip())


def check_seed_list(seeds) -> None:
    """Reject an empty seed list or one that repeats a seed."""
    if not seeds:
        raise DomainError("seed_list must be nonempty")
    if len(set(seeds)) != len(seeds):
        raise DomainError(f"seed_list repeats: {list(seeds)}")


@dataclass(frozen=True)
class ExperimentConfig:
    d: int = 2
    p: float = 0.7
    n_list: tuple = (6, 9, 12, 16, 21)
    seed_list: tuple = (0, 1, 2, 3, 4)
    quantities: tuple = ("tau1", "tau2", "phi_upper", "lk", "var_lower", "census")
    mode: str = "auto"  # mixing mode: pairwise | stationarity | auto
    out: str | None = None
    workers: int = 1
    fpp_pairs: int = 300
    fpp_l1_lo: int = 10
    fpp_l1_hi: int = 60
    renorm_blocks: tuple = (8, 16)
    dense_cap: int = DENSE_CAP  # labels tau2's method by size only

    def __post_init__(self):
        if not 0.0 < self.p <= 1.0:
            raise DomainError(f"p must be in (0, 1], got {self.p}")
        if not self.n_list:
            raise DomainError("n_list must be nonempty")
        if any(a >= b for a, b in zip(self.n_list, self.n_list[1:])):
            raise DomainError(f"n_list must be strictly ascending, got {list(self.n_list)}")
        check_seed_list(self.seed_list)
        if not self.quantities:
            raise DomainError("at least one quantity is required")
        unknown = set(self.quantities) - set(QUANTITIES)
        if unknown:
            raise DomainError(f"unknown quantities: {sorted(unknown)}")
        if len(set(self.quantities)) != len(self.quantities):
            raise DomainError(f"quantities repeat: {list(self.quantities)}")
        if self.mode not in ("pairwise", "stationarity", "auto"):
            raise DomainError(f"unknown mixing mode {self.mode!r}")
        if self.workers < 1:
            raise DomainError("workers must be >= 1")
        check_block_scales(self.renorm_blocks)
        if "renorm" in self.quantities:
            check_windows_fit(self.n_list[0], self.renorm_blocks)
        check_fpp_request(self.fpp_pairs, (self.fpp_l1_lo, self.fpp_l1_hi))
        if "fpp" in self.quantities and self.d == 2:  # other d fail per instance
            check_fpp_fits(self.n_list[0], self.fpp_l1_hi)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        raw = {}
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise DomainError(f"bad config line: {line!r}")
                key, val = (s.strip() for s in line.split("=", 1))
                key = key.replace("-", "_")
                if key in raw:
                    raise DomainError(f"config key {key} is set more than once")
                raw[key] = val
        kwargs = {}
        for f in fields(cls):
            if f.name not in raw:
                continue
            val = raw.pop(f.name)
            try:
                if f.name in ("n_list", "seed_list", "renorm_blocks"):
                    kwargs[f.name] = tuple(int(x) for x in val.split(",") if x)
                elif f.name == "quantities":
                    kwargs[f.name] = parse_quantities(val)
                elif f.name in ("d", "workers", "fpp_pairs", "fpp_l1_lo", "fpp_l1_hi",
                                "dense_cap"):
                    kwargs[f.name] = int(val)
                elif f.name == "p":
                    kwargs[f.name] = float(val)
                else:
                    kwargs[f.name] = val
            except ValueError:
                raise DomainError(f"bad value for config key {f.name}: {val!r}") from None
        if raw:
            raise DomainError(f"unknown config keys: {sorted(raw)}")
        return cls(**kwargs)


def default_preset(**overrides) -> ExperimentConfig:
    """Desk-scale preset: d=2, p=0.7, n in {6,9,12,16,21}, 5 seeds.

    Sized so that pairwise mixing stays exact on every instance.
    """
    return replace(ExperimentConfig(), **overrides)


@dataclass(frozen=True)
class Row:
    d: int
    p: float
    n: int
    seed: int
    quantity: str
    value: float
    certification: str
    detail: str = ""

    def key(self):
        return (self.n, self.seed, self.quantity)


def _clean_detail(text: str) -> str:
    return str(text).replace(",", ";").replace("\n", " ")


class _Instance:
    """Lazy, shared intermediates for one (n, seed) instance."""

    def __init__(self, cfg: ExperimentConfig, n: int, seed: int):
        self.cfg = cfg
        self.n = n
        self.seed = seed
        self.box = BoxSpec(cfg.d, n)

    @cached_property
    def config(self):
        return sample_bond_config(self.box, self.cfg.p, self.seed)

    @cached_property
    def cluster(self):
        return largest_cluster(self.config)

    @cached_property
    def chain(self) -> Chain:
        return build_chain(self.cluster)

    @cached_property
    def spectral(self) -> spec.SpectralResult:
        return spec.spectral_gap(self.chain, dense_cap=self.cfg.dense_cap)

    @cached_property
    def mixing(self):
        return mixing_time(self.chain, mode=self.cfg.mode, tau2_hint=self.spectral.tau2)

    @cached_property
    def sweep(self) -> cond.CutValue:
        return cond.sweep_cut(self.chain, self.spectral)

    @cached_property
    def box_profile(self) -> cond.ConductanceProfile:
        return cond.profile_upper_box(self.chain)

    @cached_property
    def exact_profile(self):
        if self.chain.m > cond.EXHAUSTIVE_CAP:
            return None
        return cond.profile_exact(self.chain)

    @cached_property
    def var_bound(self) -> spec.DistanceVarianceBound:
        return spec.distance_variance_lower_bound(self.chain)

    @cached_property
    def census(self):
        return cluster_census(self.config)

    def phi_upper_value(self) -> tuple:
        """Smallest certified upper bound on the Cheeger constant seen."""
        best = self.sweep.phi
        source = f"sweep(size={len(self.sweep.members)})"
        for point in self.box_profile.points:
            if point.phi < best:
                best = point.phi
                source = f"window(size={point.witness_size})"
        return best, source


def _quantity_rows(inst: _Instance) -> list:
    cfg = inst.cfg
    rows = []

    def add(quantity, value, certification, detail=""):
        rows.append(Row(cfg.d, cfg.p, inst.n, inst.seed, quantity,
                        float(value), certification, _clean_detail(detail)))

    def fail(quantity, exc):
        rows.append(Row(cfg.d, cfg.p, inst.n, inst.seed, quantity,
                        float("nan"), "error", _clean_detail(f"{type(exc).__name__}: {exc}")))

    for quantity in cfg.quantities:
        try:
            if quantity == "tau2":
                s = inst.spectral
                add("tau2", s.tau2, "exact",
                    f"gap={s.gap!r} method={s.method} residual={s.residual:.2e} "
                    f"inertia={s.inertia} dense={int(s.dense)}")
            elif quantity == "tau1":
                mix = inst.mixing
                detail = (f"t_lo={mix.t_lo!r} t_hi={mix.t_hi!r} mode={mix.mode} "
                          f"resolution={mix.resolution!r} probes={len(mix.trace)} "
                          f"pairs_evaluated={mix.pairs_evaluated} rows={mix.rows_made} "
                          f"decided={len(mix.decided)} modes={mix.modes} "
                          f"landmarks={mix.landmarks}")
                cert = "heuristic"
                if mix.mode == "pairwise" and mix.certified:
                    cert = "exact"
                elif mix.mode == "pairwise":
                    # a bracket end within the kernel error of e^-1 is not certified
                    detail += f" uncertified error_bound={mix.error_bound:.1e}"
                add("tau1", mix.tau1, cert, detail)
            elif quantity == "phi_upper":
                value, source = inst.phi_upper_value()
                add("phi_upper", value, "upper-bound",
                    f"source={source} windows={inst.box_profile.cuts}")
            elif quantity == "lk":
                if inst.exact_profile is not None and inst.chain.pi_min < 0.5:
                    value = cond.lk_bound(inst.exact_profile, inst.chain.pi_min)
                    add("lk", value, "exact",
                        f"points={len(inst.exact_profile.points)} profile=exact")
                else:
                    profile = inst.box_profile
                    if not profile.points or profile.x_min > inst.chain.pi_min:
                        # pad with the rigorous small-set floor at pi_min
                        floor = cond.small_set_floor(inst.chain, inst.chain.pi_min)
                        pts = [cond.ProfilePoint(inst.chain.pi_min, floor,
                                                 "upper-bound", 1)] + profile.points
                        profile = cond.ConductanceProfile(pts)
                    value = cond.lk_bound(profile, inst.chain.pi_min)
                    add("lk", value, "heuristic",
                        f"points={len(profile.points)} profile=upper-bound")
            elif quantity == "var_lower":
                vb = inst.var_bound
                add("var_lower", vb.value, "exact", f"source={vb.source} sources={vb.sources}")
            elif quantity == "census":
                c = inst.census
                add("census_vertex_fraction", c.largest_vertex_fraction, "exact",
                    f"components={c.num_components}")
                add("census_second_ratio", c.second_largest_ratio, "exact",
                    f"largest_edges={int(c.component_edges[0])}")
            elif quantity == "fpp":
                reg = fpp_regression(
                    inst.config, n_pairs=cfg.fpp_pairs,
                    l1_range=(cfg.fpp_l1_lo, cfg.fpp_l1_hi), rng_seed=inst.seed,
                )
                add("fpp_slope", reg.slope, "heuristic", f"pairs={reg.n_pairs}")
                add("fpp_r2", reg.r_squared, "heuristic", f"pairs={reg.n_pairs}")
            elif quantity == "renorm":
                for block in cfg.renorm_blocks:
                    field_ = classify_good_vertices(inst.config, block)
                    add(f"renorm_density_N{block}", field_.density(), "exact",
                        f"classified={field_.num_classified}")
        except Exception as exc:  # recorded, never aborts the sweep
            fail(quantity, exc)

    rows.extend(_inequality_rows(inst, rows))
    return rows


def _inequality_rows(inst: _Instance, quantity_rows: list) -> list:
    """Exact-inequality suite on whatever this instance computed exactly.

    Each inequality reads only quantities whose rows were asked for and came
    out without error; the one thing it may add is the exact profile of a
    chain within ``EXHAUSTIVE_CAP``, whose last point is the Cheeger constant.
    """
    cfg = inst.cfg
    have = {r.quantity: r for r in quantity_rows if r.certification != "error"}
    rows = []

    def add(name, ok, detail):
        rows.append(Row(cfg.d, cfg.p, inst.n, inst.seed, name,
                        1.0 if ok else 0.0, "exact", _clean_detail(detail)))

    tau1_exact = "tau1" in have and have["tau1"].certification == "exact"
    tau2_exact = "tau2" in have and have["tau2"].certification == "exact"

    if tau1_exact and tau2_exact:
        try:
            rep = spec.sandwich_check(
                inst.mixing.tau1, inst.spectral, inst.chain.pi_min,
                atol=inst.mixing.resolution,
            )
            add("ineq_sandwich", True,
                f"lower_slack={rep.lower_slack:.3e} upper_slack={rep.upper_slack:.3e}")
        except InequalityViolationError as exc:
            add("ineq_sandwich", False, f"side={exc.side} margin={exc.margin:.3e}")

    if tau2_exact:
        profile = inst.exact_profile
        cheeger = None if profile is None else profile.points[-1].phi
        if cheeger is not None:
            bound = 8.0 / (cheeger * cheeger)
            ok = inst.spectral.tau2 <= bound * (1 + 1e-9)
            add("ineq_cheeger", ok, f"tau2={inst.spectral.tau2!r} bound={bound!r}")
        if "var_lower" in have:
            vb = inst.var_bound
            ok = vb.value <= inst.spectral.tau2 * (1 + 1e-8)
            add("ineq_var_lower", ok,
                f"var={vb.value!r} tau2={inst.spectral.tau2!r}")
        if "phi_upper" in have:
            cuts = [inst.sweep.phi]
            cuts.extend(p.phi for p in inst.box_profile.points)
            if cheeger is not None:
                cuts.append(cheeger)
            min_phi = min(cuts)
            ok = inst.spectral.gap <= min_phi * (1 + 1e-9)
            add("ineq_gap_cuts", ok, f"gap={inst.spectral.gap!r} min_phi={min_phi!r}")

    if (tau1_exact and inst.exact_profile is not None
            and inst.chain.pi_min < 0.5):
        bound = cond.lk_bound(inst.exact_profile, inst.chain.pi_min)
        ok = inst.mixing.tau1 <= bound * (1 + 1e-9) + inst.mixing.resolution
        add("ineq_lk", ok, f"tau1={inst.mixing.tau1!r} lk={bound!r}")

    return rows


def run_instance(cfg: ExperimentConfig, n: int, seed: int) -> list:
    return _quantity_rows(_Instance(cfg, n, seed))


# ---------------------------------------------------------------------------
# sweep driver with resumable partial files


_SENTINEL = "_done"


def _partial_path(cfg: ExperimentConfig) -> Path | None:
    if cfg.out is None:
        return None
    return Path(cfg.out) / "rows.partial.csv"


def _append_instance(path: Path, cfg, n, seed, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    new_file = not path.exists()
    with open(path, "a", encoding="utf-8") as fh:
        if new_file:
            fh.write(f"# schema={SCHEMA_VERSION}\n")
            fh.write("d,p,n,seed,quantity,value,certification,detail\n")
        for r in rows:
            fh.write(_format_row(r))
        fh.write(_format_row(Row(cfg.d, cfg.p, n, seed, _SENTINEL, 1.0, "exact")))
        fh.flush()
        os.fsync(fh.fileno())


def _truncate_after_last_sentinel(path: Path) -> None:
    """Cut a partial file back to the end of its last complete ``_done`` line.

    A crash inside ``_append_instance`` leaves a torn tail: rows, possibly a
    half row, of an instance without its sentinel. Dropping the tail reruns
    that instance and keeps the file appendable; with no sentinel at all the
    file goes.
    """
    data = path.read_bytes()
    sentinel = _SENTINEL.encode()
    start = end = 0
    while (stop := data.find(b"\n", start)) >= 0:
        parts = data[start:stop].split(b",", 7)
        if len(parts) == 8 and parts[4] == sentinel:
            end = stop + 1
        start = stop + 1
    if end == 0:
        path.unlink()
    elif end < len(data):
        with open(path, "r+b") as fh:
            fh.truncate(end)
            fh.flush()
            os.fsync(fh.fileno())


def _format_row(r: Row) -> str:
    return (f"{r.d},{r.p!r},{r.n},{r.seed},{r.quantity},{r.value!r},"
            f"{r.certification},{r.detail}\n")


def _parse_row(line: str) -> Row:
    parts = line.rstrip("\n").split(",", 7)
    if len(parts) != 8:
        raise DomainError(f"malformed row: {line!r}")
    d, p, n, seed, quantity, value, certification, detail = parts
    return Row(int(d), float(p), int(n), int(seed), quantity,
               float(value), certification, detail)


def read_rows(path) -> list:
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("d,"):
                continue
            if line.strip():
                rows.append(_parse_row(line))
    return rows


def write_rows(path, rows) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# schema={SCHEMA_VERSION}\n")
        fh.write("d,p,n,seed,quantity,value,certification,detail\n")
        for r in rows:
            fh.write(_format_row(r))


@dataclass
class ScalingReport:
    config: ExperimentConfig
    rows: list
    fits: dict = field(default_factory=dict)
    fit_refusals: dict = field(default_factory=dict)

    @property
    def violations(self) -> int:
        return sum(1 for r in self.rows
                   if r.quantity.startswith("ineq_") and r.value == 0.0)

    @property
    def error_rows(self) -> int:
        return sum(1 for r in self.rows if r.certification == "error")

    def values(self, quantity: str) -> list:
        return [(r.n, r.value) for r in self.rows if r.quantity == quantity]


def compute_fits(rows) -> tuple:
    """Per-quantity log-log fits over rows of uniform certification."""
    fits, refusals = {}, {}
    quantities = sorted({r.quantity for r in rows
                         if not r.quantity.startswith("ineq_")
                         and r.quantity != _SENTINEL})
    for q in quantities:
        qrows = [r for r in rows if r.quantity == q and r.certification != "error"]
        if not qrows:
            refusals[q] = "no usable rows"
            continue
        certs = {r.certification for r in qrows}
        if len(certs) > 1:
            refusals[q] = f"mixed certifications: {sorted(certs)}"
            continue
        try:
            fits[q] = fit_loglog([(r.n, r.value) for r in qrows])
        except DomainError as exc:
            refusals[q] = str(exc)
    return fits, refusals


def _lost_instance_rows(cfg: ExperimentConfig, n: int, seed: int, exc) -> list:
    """Error rows, one per quantity, for an instance whose worker died."""
    detail = _clean_detail(f"{type(exc).__name__}: {exc}")
    return [Row(cfg.d, cfg.p, n, seed, q, float("nan"), "error", detail)
            for q in cfg.quantities]


def run_scaling(cfg: ExperimentConfig, resume: bool = False) -> ScalingReport:
    """Run the sweep, appending per-instance rows for resumability.

    ``resume`` reuses completed instances from a previous partial file,
    after cutting it back to its last completed instance. When a worker
    process dies, every instance the pool lost gets one ``error`` row per
    quantity and the sweep goes on.
    """
    partial = _partial_path(cfg)
    done = {}
    if partial is not None and partial.exists():
        if resume:
            _truncate_after_last_sentinel(partial)
        else:
            partial.unlink()
    if resume and partial is not None and partial.exists():
        # an instance's rows directly precede its sentinel, each quantity once;
        # rows of a run that never reached its sentinel (a crash before torn
        # tails were cut) are dropped, also when the instance's rerun follows
        pending = {}
        for r in read_rows(partial):
            key = (r.n, r.seed)
            if r.quantity == _SENTINEL:
                done[key] = pending.pop(key, [])
                continue
            rows = pending.setdefault(key, [])
            if any(q.quantity == r.quantity for q in rows):
                rows.clear()
            rows.append(r)

    jobs = [(n, seed) for n in cfg.n_list for seed in cfg.seed_list
            if (n, seed) not in done]
    all_rows = [r for rows in done.values() for r in rows]

    def record(n, seed, rows, finished=True):
        all_rows.extend(rows)
        if finished and partial is not None:
            _append_instance(partial, cfg, n, seed, rows)

    if cfg.workers > 1 and jobs:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            futures = [pool.submit(run_instance, cfg, n, s) for n, s in jobs]
            for (n, seed), future in zip(jobs, futures):
                try:
                    rows = future.result()
                except BrokenProcessPool as exc:
                    # a dead worker takes its instance and every pending one
                    # with it; they stay out of the partial file so a resume
                    # reruns them
                    record(n, seed, _lost_instance_rows(cfg, n, seed, exc),
                           finished=False)
                    continue
                record(n, seed, rows)
    else:
        for n, seed in jobs:
            record(n, seed, run_instance(cfg, n, seed))

    all_rows.sort(key=lambda r: (r.n, r.seed, r.quantity))
    fits, refusals = compute_fits(all_rows)
    report = ScalingReport(config=cfg, rows=all_rows, fits=fits, fit_refusals=refusals)
    if cfg.out is not None:
        emit_report(report, cfg.out)
    return report


def emit_report(report: ScalingReport, out_dir) -> dict:
    """Write rows.csv, a key-value summary, and per-quantity plot data."""
    if not report.rows:
        raise DomainError("report is empty")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}

    rows_path = out / "rows.csv"
    write_rows(rows_path, report.rows)
    paths["rows"] = rows_path

    summary_path = out / "summary.txt"
    cfg = report.config
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write(f"schema={SCHEMA_VERSION}\n")
        fh.write(f"config.d={cfg.d}\nconfig.p={cfg.p!r}\n")
        fh.write(f"config.n_list={';'.join(str(n) for n in cfg.n_list)}\n")
        fh.write(f"config.seed_list={';'.join(str(s) for s in cfg.seed_list)}\n")
        fh.write(f"config.quantities={';'.join(cfg.quantities)}\n")
        quantities = sorted({r.quantity for r in report.rows
                             if not r.quantity.startswith("ineq_")})
        for q in quantities:
            n_rows = sum(1 for r in report.rows if r.quantity == q)
            fh.write(f"quantity.{q}.n_rows={n_rows}\n")
            if q in report.fits:
                fit = report.fits[q]
                fh.write(f"quantity.{q}.fit.slope={fit.slope!r}\n")
                fh.write(f"quantity.{q}.fit.intercept={fit.intercept!r}\n")
                fh.write(f"quantity.{q}.fit.r_squared={fit.r_squared!r}\n")
            elif q in report.fit_refusals:
                fh.write(f"quantity.{q}.fit.refused={_clean_detail(report.fit_refusals[q])}\n")
        checked = sum(1 for r in report.rows if r.quantity.startswith("ineq_"))
        fh.write(f"inequalities.checked={checked}\n")
        fh.write(f"inequalities.violations={report.violations}\n")
        fh.write(f"rows.errors={report.error_rows}\n")
        # the last digits of dense eigensolves depend on the BLAS thread count
        for var in THREAD_ENV_VARS:
            fh.write(f"env.{var}={os.environ.get(var, 'unset')}\n")
    paths["summary"] = summary_path

    quantities = sorted({r.quantity for r in report.rows
                         if not r.quantity.startswith("ineq_")
                         and r.certification != "error"})
    for q in quantities:
        plot_path = out / f"plot_{q}.csv"
        with open(plot_path, "w", encoding="utf-8") as fh:
            fh.write("x,y,series\n")
            for r in report.rows:
                if r.quantity == q and r.certification != "error" \
                        and math.isfinite(r.value):
                    fh.write(f"{r.n},{r.value!r},{r.seed}\n")
        paths[f"plot_{q}"] = plot_path
    return paths
