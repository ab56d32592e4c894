"""Least-squares fits used by the experiment harness and the probes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r_squared: float


def fit_linear(x, y) -> FitResult:
    """Ordinary least squares y = slope * x + intercept with R^2."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise DomainError("x and y must be 1-d arrays of equal length")
    if x.size < 2:
        raise DomainError("need at least 2 points to fit a line")
    xm, ym = x.mean(), y.mean()
    sxx = float(((x - xm) ** 2).sum())
    if sxx == 0.0:
        raise DomainError("all x values identical; slope undefined")
    slope = float(((x - xm) * (y - ym)).sum()) / sxx
    intercept = ym - slope * xm
    resid = y - (slope * x + intercept)
    ss_res = float((resid**2).sum())
    ss_tot = float(((y - ym) ** 2).sum())
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res <= 1e-24 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return FitResult(slope=slope, intercept=intercept, r_squared=r2)


def fit_loglog(points) -> FitResult:
    """Power-law exponent fit: least squares on (ln n, ln value).

    ``points`` is an iterable of (n, value); repeated n values (e.g. one per
    seed) enter as separate points. Requires at least 3 distinct n and
    strictly positive values.
    """
    pts = list(points)
    ns = np.asarray([p[0] for p in pts], dtype=float)
    vals = np.asarray([p[1] for p in pts], dtype=float)
    if np.unique(ns).size < 3:
        raise DomainError("log-log fit needs at least 3 distinct n values")
    if np.any(vals <= 0.0) or np.any(ns <= 0.0):
        raise DomainError("log-log fit needs strictly positive data")
    return fit_linear(np.log(ns), np.log(vals))


def fit_loglog_geomean(points) -> FitResult:
    """Power-law fit after geometric disorder-averaging at each n.

    Replicates at the same n are collapsed to their geometric mean before the
    log-log least squares, which is the standard way to extract a scaling
    exponent from realizations with heavy instance-to-instance scatter.
    """
    groups = {}
    for n, v in points:
        groups.setdefault(n, []).append(v)
    if any(v <= 0 for vals in groups.values() for v in vals):
        raise DomainError("log-log fit needs strictly positive data")
    means = [(n, float(np.exp(np.mean(np.log(vals)))))
             for n, vals in sorted(groups.items())]
    return fit_loglog(means)
