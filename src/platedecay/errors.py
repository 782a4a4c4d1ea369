"""Exception types shared across the package: a base class and one class per
command-line outcome.

* ``InvalidArgumentError``: an input outside its contract (a config, a
  domain or mesh, a penalty below its floor, an untabulated Poisson ratio,
  a pencil that overflows).  The CLI exits 2.
* ``InsufficientDataError``: too few data for a fit.  The CLI exits 3.
* ``SolverError``: a solve or eigensolve failed.  The CLI exits 3.

A fit that ``simulate``, ``spectrum`` or ``resolvent`` can do without is
recorded as skipped when it raises ``InsufficientDataError`` or
``InvalidArgumentError``.  Every error carries an optional ``invariant`` tag
naming the violated contract, so the CLI can emit machine-readable error
reports.
"""


class PlateDecayError(Exception):
    """Base class for all package errors."""

    def __init__(self, message, invariant=None):
        super().__init__(message)
        self.invariant = invariant


class InvalidArgumentError(PlateDecayError, ValueError):
    """An input violates its contract; the run is refused."""


class InsufficientDataError(PlateDecayError, ValueError):
    """Not enough data points to perform the requested fit."""


class SolverError(PlateDecayError, RuntimeError):
    """A linear solve or eigensolve failed to converge."""
