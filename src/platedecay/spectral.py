"""Frequency-domain certification of the damped plate surrogate.

The second-order system is linearized as E z' = A z with E = blockdiag(K, M)
and A = [[0, K], [-K, -D]], so the first-order norm sqrt(z' E z) is exactly
the discrete energy norm.  The module computes the pencil spectrum, the
resolvent norm along the imaginary axis in that norm, and log-log fits of

* the upper envelope of the resolvent sweep (growth exponent), and
* the weakly damped eigenvalue branch (distance to the axis vs frequency),

which are the one-sided quantities the decay theory constrains.  The
resolvent works on the n x n pencil K - omega^2 M + i omega D: one sparse LU
per frequency and a Lanczos solve for the largest singular value in the
energy inner product (Wright & Trefethen, SISC 23, 2001).
"""

from __future__ import annotations

import gc
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError, LinearOperator, eigs, eigsh, splu

from ._lsq import lsq_line
from .errors import (InsufficientDataError, InvalidArgumentError, SolverError)

_DENSE_LIMIT = 4096  # first-order dofs beyond which dense solves are refused


@dataclass
class SpectrumReport:
    """Eigenvalues, axis-distance flags, sweep data and fitted exponents."""

    eigenvalues: np.ndarray = None
    spectral_abscissa: float = None
    zero_in_resolvent: bool = None
    sweep: np.ndarray = None          # rows (omega, resolvent norm)
    theta_hat: float = None
    theta_r_squared: float = None
    branch_slope: float = None
    branch_r_squared: float = None
    band: tuple = None

    def to_dict(self):
        out = {}
        if self.eigenvalues is not None:
            out["n_eigenvalues"] = int(len(self.eigenvalues))
            out["spectral_abscissa"] = float(self.spectral_abscissa)
            out["zero_in_resolvent"] = bool(self.zero_in_resolvent)
        for name in ("theta_hat", "theta_r_squared", "branch_slope",
                     "branch_r_squared"):
            val = getattr(self, name)
            if val is not None:
                out[name] = float(val)
        if self.band is not None:
            out["band"] = [float(self.band[0]), float(self.band[1])]
        return out


def first_order_matrices(system):
    """E = blockdiag(K, M) and A = [[0, K], [-K, -D]] as sparse matrices."""
    K, M, D = system.K, system.M, system.D
    n = K.shape[0]
    E = sp.block_diag([K, M], format="csr")
    Z = sp.csr_matrix((n, n))
    A = sp.bmat([[Z, K], [-K, -D]], format="csr")
    return E, A


def _not_positive_definite():
    return SolverError(
        "energy factorization failed: K or M not positive definite",
        invariant="energy-pd")


def pencil_eigenvalues(system, count="all", shift=None):
    """Eigenvalues of the first-order generator (roots of the damped pencil).

    ``count = 'all'`` performs a dense solve (refused above 4096 first-order
    dofs); an integer count uses sparse shift-invert iteration for the
    ``count`` eigenvalues nearest ``shift`` (default 1e-3, near the origin).
    A real shift keeps the pencil real; a complex one makes it complex.
    """
    if count == "all":
        # Solve in energy coordinates: L^{-1} A L^{-T} is similar to the
        # generator and dissipative in the Euclidean product, so the
        # balanced standard eigensolve keeps Re(lambda) <= 0 where the badly
        # scaled QZ pencil (stiffness vs mass blocks) loses that structure.
        lam = np.linalg.eigvals(_energy_generator(system)[0])
    else:
        E, A = first_order_matrices(system)
        k = int(count)
        if not 0 < k < E.shape[0] - 1:
            raise InvalidArgumentError("count out of range", invariant="count")
        target = 1e-3 if shift is None else shift
        if np.iscomplexobj(target):
            # scipy rebuilds the eigenvalues of a real pencil with a complex
            # shift from Ritz vectors, which it does not form here
            A, E = A.astype(complex), E.astype(complex)
        try:
            lam = eigs(A, k=k, M=E, sigma=target, which="LM",
                       return_eigenvectors=False)
        except Exception as exc:
            raise SolverError(f"shift-invert eigensolve failed: {exc}",
                              invariant="eigensolver") from exc
        finally:
            # scipy's ARPACK wrapper holds its factor of A - target E in a
            # reference cycle; free it now, not at the next cyclic collection
            gc.collect()
    lam = np.asarray(lam)
    lam = lam[np.lexsort((lam.real, lam.imag))]
    report = SpectrumReport(
        eigenvalues=lam,
        spectral_abscissa=float(np.max(lam.real)),
        zero_in_resolvent=bool(np.min(np.abs(lam)) > 0.0),
    )
    return report


def _energy_generator(system):
    """Dense G = L^{-1} A L^{-T} and L, with E = L L': the generator in
    energy coordinates, where the energy norm is the Euclidean one."""
    E, A = first_order_matrices(system)
    n2 = E.shape[0]
    if n2 > _DENSE_LIMIT:
        raise InvalidArgumentError(
            f"dense eigensolve refused for {n2} first-order dofs; "
            "request a count with shift-invert instead",
            invariant="dense-limit")
    try:
        L = sla.block_diag(sla.cholesky(system.K.toarray(), lower=True),
                           sla.cholesky(system.M.toarray(), lower=True))
    except np.linalg.LinAlgError as exc:
        raise _not_positive_definite() from exc
    G = sla.solve_triangular(L, A.toarray(), lower=True)
    return sla.solve_triangular(L, G.T, lower=True).T, L


def _spd_factor(matrix):
    """Sparse LU of a symmetric matrix with diagonal pivots in a symmetric
    ordering, so that diag(U) is the D of P A P' = L D L'; by Sylvester's
    law the matrix is positive definite exactly when every pivot is."""
    try:
        lu = splu(sp.csc_matrix(matrix), permc_spec="MMD_AT_PLUS_A",
                  diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    except RuntimeError as exc:  # exactly singular
        raise _not_positive_definite() from exc
    if not (np.array_equal(lu.perm_r, lu.perm_c)
            and np.all(lu.U.diagonal() > 0.0)):
        raise _not_positive_definite()
    return lu


class _PencilResolvent:
    """Energy-norm resolvent R = (i omega E - A)^{-1} E on the n x n pencil.

    For f = (f1, f2), z = R f is z = (u, i omega u - f1) with
    P(omega) u = M f2 + (i omega M + D) f1, P(omega) = K - omega^2 M
    + i omega D.  The adjoint solve reuses the factor of P (trans='H'), so
    R^H E R costs two sparse solves, and ||R||_E^2 is the largest
    eigenvalue of R^H E R x = lambda E x (ARPACK, with E^{-1} from the
    factors of K and M, made once per system).
    """

    def __init__(self, system):
        K, M, D = (sp.csc_matrix(X) for X in (system.K, system.M, system.D))
        n = K.shape[0]
        self.K, self.M, self.D, self.n = K, M, D, n
        self.E = sp.block_diag([K, M], format="csr")
        factors = ((slice(0, n), _spd_factor(K)),
                   (slice(n, 2 * n), _spd_factor(M)))

        def solve_e(b):
            b = np.asarray(b).reshape(-1)
            x = np.empty(2 * n, dtype=complex)
            for part, lu in factors:
                y = lu.solve(np.column_stack([b[part].real, b[part].imag]))
                x[part] = y[:, 0] + 1j * y[:, 1]
            return x

        self.E_inv = LinearOperator((2 * n, 2 * n), matvec=solve_e,
                                    dtype=complex)
        # a fixed start vector makes every sweep reproducible bit for bit
        self.v0 = np.random.default_rng(0).standard_normal(2 * n)

    def norm(self, omega):
        # P(-omega) is the conjugate of P(omega), so the norm is even in
        # omega; evaluating at |omega| makes it so bit for bit
        w = abs(float(omega))
        K, M, D, n = self.K, self.M, self.D, self.n
        try:
            lu = splu(sp.csc_matrix(K - (w * w) * M + (1j * w) * D))
        except RuntimeError:  # exactly singular: omega is an eigenfrequency
            return np.inf

        def normal_op(f):  # R^H E R f
            f = np.asarray(f).reshape(-1)
            f1, f2 = f[:n], f[n:]
            u = lu.solve(M @ (f2 + 1j * w * f1) + D @ f1)
            v = 1j * w * u - f1
            y = lu.solve(D @ u - M @ (1j * w * u + v), trans="H")
            return np.concatenate([K @ y, M @ (1j * w * y + u)])

        op = LinearOperator((2 * n, 2 * n), matvec=normal_op, dtype=complex)
        try:
            lam = eigsh(op, k=1, M=self.E, Minv=self.E_inv, v0=self.v0,
                        ncv=min(10, 2 * n), return_eigenvectors=False)
        except ArpackError as exc:
            raise SolverError(
                f"Lanczos solve for the resolvent norm at omega = {w:.17g} "
                f"did not converge: {exc}",
                invariant="sweep-converged") from exc
        return float(np.sqrt(lam[0]))


def resolvent_norm(system, omega):
    """Energy-norm resolvent norm ||(i omega - generator)^{-1}|| at one omega."""
    return _PencilResolvent(system).norm(omega)


def resolvent_sweep(system, omegas):
    """Resolvent norms at many frequencies; returns rows (omega, norm).

    K and M are factored once; each frequency costs one sparse LU of the
    pencil and one Lanczos solve, started from the same vector.
    """
    op = _PencilResolvent(system)
    omegas = np.asarray(omegas, dtype=float)
    norms = np.array([op.norm(w) for w in omegas], dtype=float)
    return np.stack([omegas, norms], axis=1)


# ---------------------------------------------------------------------------
# fits
# ---------------------------------------------------------------------------

def _local_maxima(values):
    """Indices of local maxima (ties included); boundaries compare one side."""
    n = len(values)
    idx = []
    for i in range(n):
        left_ok = i == 0 or values[i] >= values[i - 1]
        right_ok = i == n - 1 or values[i] >= values[i + 1]
        if left_ok and right_ok:
            idx.append(i)
    return np.array(idx, dtype=int)


def _monotone_front(x, y, increasing):
    """Keep the points forming the monotone envelope of (x, y), x sorted.

    ``increasing`` keeps running maxima left to right; otherwise running
    maxima scanning from the right (a decreasing upper envelope).
    """
    keep = []
    if increasing:
        run = -np.inf
        for i in range(len(x)):
            if y[i] > run:
                keep.append(i)
                run = y[i]
    else:
        run = -np.inf
        for i in range(len(x) - 1, -1, -1):
            if y[i] > run:
                keep.append(i)
                run = y[i]
        keep.reverse()
    return np.array(keep, dtype=int)


def growth_fit(sweep, band, n_bins=24):
    """Slope of log(resolvent norm) vs log(omega) on the sweep's upper envelope.

    The resolvent oscillates between eigenvalue branches, so the fit keeps
    local maxima, reduces them to per-frequency-bin peaks, and follows the
    monotone front in the direction of the overall trend; raw in-band points
    are used when the band is too sparse for an envelope (e.g. clean
    synthetic power laws).
    """
    sweep = np.asarray(sweep, dtype=float)
    lo, hi = float(band[0]), float(band[1])
    if not hi > lo:
        raise InvalidArgumentError("empty frequency band", invariant="band")
    mask = (sweep[:, 0] >= lo) & (sweep[:, 0] <= hi) & np.isfinite(sweep[:, 1])
    pts = sweep[mask]
    if len(pts) < 10:
        raise InvalidArgumentError(
            f"need at least 10 sweep points in band, found {len(pts)}",
            invariant="band-points")
    pts = pts[np.argsort(pts[:, 0])]
    env = _local_maxima(pts[:, 1])
    if len(env) < 3:
        env = np.arange(len(pts))
    w, val = pts[env, 0], pts[env, 1]
    edges = np.logspace(np.log10(w[0]), np.log10(w[-1]),
                        min(n_bins, len(w)) + 1)
    edges[-1] *= 1.0 + 1e-12
    xs, ys = [], []
    for b in range(len(edges) - 1):
        m = (w >= edges[b]) & (w < edges[b + 1])
        if np.any(m):
            i = np.argmax(val[m])
            xs.append(w[m][i])
            ys.append(val[m][i])
    lx, ly = np.log(np.array(xs)), np.log(np.array(ys))
    slope0, _ = lsq_line(lx, ly)
    front = _monotone_front(lx, ly, increasing=slope0 > 0)
    if len(front) >= 3:
        lx, ly = lx[front], ly[front]
    slope, r2 = lsq_line(lx, ly)
    return slope, r2


def damping_branch_fit(report, band, n_bins=24):
    """Slope of log(-Re) vs log|Im| along the weakly damped eigenvalue branch.

    Per frequency bin the eigenvalue closest to the imaginary axis is kept,
    then the monotone front of those minima (the branch envelope; raw bin
    minima when the front is too short, e.g. flat synthetic branches).
    A slope of -2 matches quadratic approach to the axis.
    """
    if report.eigenvalues is None:
        raise InvalidArgumentError("report has no eigenvalues",
                                   invariant="eigenvalues")
    lo, hi = float(band[0]), float(band[1])
    if not hi > lo:
        raise InvalidArgumentError("empty frequency band", invariant="band")
    lam = report.eigenvalues
    lam = lam[(lam.imag > 0) & (lam.real < 0)]
    freq = lam.imag
    sel = (freq >= lo) & (freq <= hi)
    lam = lam[sel]
    if len(lam) < 10:
        raise InsufficientDataError(
            f"need at least 10 branch eigenvalues in band, found {len(lam)}",
            invariant="branch-points")
    freq = lam.imag
    decay = -lam.real
    edges = np.logspace(np.log10(freq.min()), np.log10(freq.max()),
                        min(n_bins, len(lam)) + 1)
    edges[-1] *= 1.0 + 1e-12
    xs, ys = [], []
    for b in range(len(edges) - 1):
        mask = (freq >= edges[b]) & (freq < edges[b + 1])
        if not np.any(mask):
            continue
        i = np.argmin(decay[mask])
        xs.append(freq[mask][i])
        ys.append(decay[mask][i])
    if len(xs) < 3:
        raise InsufficientDataError("too few branch bins", invariant="branch-bins")
    lx = np.log(np.array(xs))
    ly = np.log(np.array(ys))
    slope0, _ = lsq_line(lx, ly)
    # lower envelope of the bin minima, in the direction of the trend
    front = _monotone_front(lx, -ly, increasing=slope0 <= 0)
    if len(front) >= 3:
        lx, ly = lx[front], ly[front]
    slope, r2 = lsq_line(lx, ly)
    return slope, r2


def suggest_sweep_omegas(report, band, n_grid=40, n_peaks=60):
    """Frequencies for a resolvent sweep: log grid plus eigenvalue peaks.

    Resolvent peaks are only a few linewidths wide, so a bare log grid
    misses them; adding the imaginary parts of the weakly damped in-band
    eigenvalues puts sample points on the envelope itself.
    """
    if report.eigenvalues is None:
        raise InvalidArgumentError("report has no eigenvalues",
                                   invariant="eigenvalues")
    lo, hi = float(band[0]), float(band[1])
    if not hi > lo:
        raise InvalidArgumentError("empty frequency band", invariant="band")
    grid = np.logspace(np.log10(lo), np.log10(hi), n_grid)
    lam = report.eigenvalues
    lam = lam[(lam.imag >= lo) & (lam.imag <= hi) & (lam.real < 0)]
    if len(lam):
        order = np.argsort(-lam.real)  # smallest -Re first: closest to axis
        peaks = lam.imag[order][:n_peaks]
        grid = np.concatenate([grid, peaks])
    return np.unique(grid)


def resolved_band(report, skip=10, top_fraction=2.0 / 3.0):
    """Deterministic frequency band for fits: from the ``skip``-th smallest
    eigenfrequency to ``top_fraction`` of the largest resolved one."""
    if report.eigenvalues is None:
        raise InvalidArgumentError("report has no eigenvalues",
                                   invariant="eigenvalues")
    freqs = np.sort(report.eigenvalues.imag[report.eigenvalues.imag > 1e-9])
    if len(freqs) < skip + 2:
        raise InsufficientDataError("too few eigenfrequencies for a band",
                                    invariant="band-data")
    return float(freqs[skip - 1]), float(top_fraction * freqs[-1])
