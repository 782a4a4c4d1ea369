"""Least-squares line shared by the time-domain and frequency-domain fits."""

import numpy as np


def lsq_line(x, y):
    """Slope of the least-squares line y ~ a x + b and its R^2 (1 when y is
    constant)."""
    A = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(resid @ resid) / ss_tot if ss_tot > 0 else 1.0
    return float(coef[0]), r2
