"""Least-squares line shared by the time-domain and frequency-domain fits."""

import numpy as np

from .errors import InsufficientDataError


def lsq_line(x, y, overwrite_x=False):
    """Slope of the least-squares line y ~ a x + b and its R^2 (1 when y is
    constant), from centered sums: no design matrix and no copy beyond the
    two centered samples (one, when x may be centered in place).  One
    distinct x has no line (``lsq-points``)."""
    dx = np.subtract(x, x.mean(), out=x if overwrite_x else None)
    dy = y - y.mean()
    sxx, sxy, syy = float(dx @ dx), float(dx @ dy), float(dy @ dy)
    if sxx == 0.0:
        raise InsufficientDataError("a line needs two distinct x values",
                                    invariant="lsq-points")
    return sxy / sxx, (sxy * sxy / (sxx * syy) if syy > 0 else 1.0)
