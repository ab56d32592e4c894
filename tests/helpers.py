"""Test-only helpers shared by several test modules."""

import numpy as np

from percmix.errors import DomainError
from percmix.fitting import FitResult


def fit_through_origin(x, y) -> FitResult:
    """Least squares y = slope * x (no intercept); R^2 is uncentered.

    The natural estimator for growth laws with no offset: if y >= x pointwise
    the fitted slope cannot drop below 1.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise DomainError("x and y must be 1-d arrays of equal length")
    sxx = float((x * x).sum())
    if sxx == 0.0:
        raise DomainError("all x values zero; slope undefined")
    slope = float((x * y).sum()) / sxx
    resid = y - slope * x
    ss_res = float((resid**2).sum())
    ss_tot = float((y * y).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return FitResult(slope=slope, intercept=0.0, r_squared=r2, n_points=x.size)
