"""Frequency-domain certification of the damped plate surrogate.

The second-order system is linearized as E z' = A z with E = blockdiag(K, M)
and A = [[0, K], [-K, -D]], so the first-order norm sqrt(z' E z) is exactly
the discrete energy norm.  The module computes the pencil spectrum, the
resolvent norm along the imaginary axis in that norm, and log-log fits of

* the upper envelope of the resolvent sweep (growth exponent), and
* the weakly damped eigenvalue branch (distance to the axis vs frequency),

which are the one-sided quantities the decay theory constrains.  A and E
are never assembled: ``_Pencil`` answers the sparse questions from n x n
factors of P(s) = s^2 M + s D + K, eigenvalues near a shift by the spectral
transformation (Ericsson & Ruhe, Math. Comp. 35, 1980) and the resolvent
norm by a Lanczos iteration in the energy inner product (Wright & Trefethen,
SISC 23, 2001), and the dense generator from the undamped modes of (K, M).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, eigs, splu

from ._lsq import lsq_line
from .errors import (InsufficientDataError, InvalidArgumentError, SolverError)

_DENSE_LIMIT = 4096  # first-order dofs beyond which dense solves are refused
_LANCZOS_STEPS = 60  # cap on Lanczos steps per frequency (2n if fewer)


def pencil_eigenvalues(system, count="all"):
    """Eigenvalues of the first-order generator (roots of the damped pencil),
    as a complex array sorted by imaginary part, then by real part.

    ``count = 'all'`` performs a dense solve (refused above 4096 first-order
    dofs) on the G of ``_modal_generator``, which LAPACK overwrites, so the
    solve holds little more than G itself.  It stops on a G that is not
    finite (``generator-finite``) and on a real part above 4 eps max|lambda|
    (``spectrum-dissipative``), which the dissipative G cannot round to.  An
    integer count gives the ``count`` eigenvalues nearest the real shift
    1e-3 from one sparse n x n factor (``_Pencil.eigenvalues``).  Both stop
    with ``energy-pd`` unless K and M are positive definite.
    """
    if count == "all":
        # G + G' = diag(0, -2 Phi'D Phi) <= 0, kept up to rounding by the
        # balanced standard eigensolve, not by the badly scaled QZ pencil;
        # Phi is cut to the support of D (the damped dofs) before G exists
        omega, Phi = _undamped_modes(system)
        S = np.union1d(*system.D.nonzero())
        Phi = Phi[S]  # the full Phi is freed here
        G = _modal_generator(omega, Phi, system.D[S][:, S])
        if not np.isfinite([G.min(), G.max()]).all():  # no mask of G
            raise SolverError("dense generator is not finite",
                              invariant="generator-finite")
        lam = sla.eigvals(G, overwrite_a=True, check_finite=False)
        top = lam.real.max()
        if top > 4.0 * np.finfo(float).eps * np.abs(lam).max():
            raise SolverError(f"dense spectrum has max Re(lambda) = {top:.3g}"
                              " > 4 eps max|lambda| for a dissipative G",
                              invariant="spectrum-dissipative")
    else:
        k = int(count)
        if not 0 < k < 2 * system.K.shape[0] - 1:
            raise InvalidArgumentError("count out of range", invariant="count")
        lam = _Pencil(system).eigenvalues(k, 1e-3)
    return lam[np.lexsort((lam.real, lam.imag))]


def _undamped_modes(system):
    """omega and Phi, K Phi = M Phi diag(omega^2) and Phi'M Phi = I, by the
    dense ``sygvd`` (a Cholesky of M), which overwrites the Fortran-order K
    with Phi; refused above the dense limit before anything is allocated
    (``dense-limit``), and with ``energy-pd`` unless K and M are definite."""
    n = system.K.shape[0]
    if 2 * n > _DENSE_LIMIT:
        raise InvalidArgumentError(
            f"dense eigensolve refused for {2 * n} first-order dofs, "
            f"above the dense limit of {_DENSE_LIMIT}",
            invariant="dense-limit")
    for X in (system.K, system.M):  # one factor alive at a time
        _spd_checked(X)
    w2, Phi = sla.eigh(system.K.toarray(order="F"),
                       system.M.toarray(order="F"), overwrite_a=True,
                       overwrite_b=True, check_finite=False)
    return np.sqrt(w2), Phi


def _modal_generator(omega, X, D):
    """Dense G = [[0, W], [-W, -X'D X]], W = diag(omega), in Fortran order
    (LAPACK's, which may overwrite it): the generator in the coordinates
    y = (W q, q') of u = Phi q, where the energy is |y|^2 / 2 (Lancaster,
    Lambda-Matrices and Vibrating Systems, 1966).  X'D X is Phi'D Phi for
    rows X of Phi that cover the support of D, with D their block."""
    n = len(omega)
    G, i = np.zeros((2 * n, 2 * n), order="F"), np.arange(n)
    G[i, n + i], G[n + i, i] = omega, -omega  # exactly skew
    np.matmul(X.T, -D @ X, out=G[n:, n:])
    return G


def _symmetric_lu(matrix, pivot):
    """The package's one factorization: sparse LU of a (complex) symmetric
    matrix, minimum degree on A' + A, keeping each diagonal pivot unless it is
    below ``pivot`` times its column's largest entry (Demmel et al., SIMAX
    20, 1999).  Relaxed supernodes are capped at two columns (``relax=2``):
    scipy's default pads them with explicit zeros, which every solve reads
    (52,728 stored entries for K at h = 1/12 against 41,072).  Raises
    RuntimeError when the matrix is exactly singular."""
    return splu(sp.csc_matrix(matrix), permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=pivot, relax=2,
                options={"SymmetricMode": True})


def _spd_checked(matrix):
    """``_symmetric_lu`` with diagonal pivots only, so that diag(U) is the D
    of P A P' = L D L'; by Sylvester's law the matrix is positive definite
    exactly when every pivot is (else ``energy-pd``).  Reading diag(U) makes
    scipy's SuperLU keep CSC copies of L and U as long as the factor lives,
    so only the energy's K and M (the check before ``_undamped_modes`` and
    ``_Pencil``, ``_spd_root``) and single solves use this factor.  A
    factor kept for many solves is made once by ``_symmetric_lu`` and never
    read: the step operator and P(s) at s > 0 are positive combinations of
    K and M, checked here, plus a multiple of D, positive semidefinite by
    construction (boundary Gram matrices with positive weights, d1, d2 >= 0
    and diagonal corner gains >= 0)."""
    try:
        lu = _symmetric_lu(matrix, 0.0)
    except RuntimeError:  # exactly singular
        lu = None
    if lu is None or not (np.array_equal(lu.perm_r, lu.perm_c)
                          and np.all(lu.U.diagonal() > 0.0)):
        raise SolverError("energy factorization failed: not positive "
                          "definite", invariant="energy-pd")
    return lu


def _spd_root(matrix):
    """Sparse F with F F' = matrix, F = Pr' L diag(sqrt(d)) from the L D L'
    of ``_spd_checked``, and that factor lu: F^{-T} x = lu.solve(F x)."""
    lu = _spd_checked(matrix)
    return (lu.L @ sp.diags(np.sqrt(lu.U.diagonal())))[lu.perm_r].tocsr(), lu


class _Pencil:
    """The damped pencil P(s) = s^2 M + s D + K, which answers both
    frequency questions from n x n factors.

    ``eigenvalues``: lambda = s + 1/mu for the largest mu of
    (A - s E)^{-1} E, which maps y = (y1, y2) to (u, s u + y1) with
    P(s) u = -(M y2 + (D + s M) y1), one factor of P(s) for every product.
    P(s) at s > 0 is definite once K and M are checked, D being positive
    semidefinite (``_spd_checked``), so its one factor is never read.

    ``norm``: the energy-norm resolvent R = (i omega E - A)^{-1} E maps
    f = (f1, f2) to z = (u, i omega u - f1) with
    P(i omega) u = M f2 + (i omega M + D) f1, P(i omega) = K - omega^2 M
    + i omega D, refused when an entry overflowed (``pencil-finite``); an
    exactly singular P gives the norm inf.  The adjoint solve reuses the
    factor of P (trans='H'), so X = E^{-1} R^H E R costs two sparse solves.
    ||R||_E^2 is the largest eigenvalue of X, which is self-adjoint in
    <a, b>_E = a^H E b: Lanczos in that product needs only products with E
    (Parlett 1998, ch. 13), formed after each orthogonalization so that a
    badly conditioned E cannot skew the basis.  The iteration stops when the
    residual r = b |s_k| of the top Ritz pair is below eps theta_1 (the Ritz
    vector has converged), or once
    r^2 <= eps theta_1 (theta_1 - theta_2) / 2: by the bound
    lambda_max - theta_1 <= r^2 / gap for a self-adjoint operator (Parlett
    1998, sec. 11.7) the Ritz value is then exact to working precision,
    about two steps (four solves) before its vector.
    """

    def __init__(self, system):
        K, M, D = (sp.csc_matrix(X) for X in (system.K, system.M, system.D))
        self.K, self.M, self.D, self.n = K, M, D, K.shape[0]
        for X in (K, M):  # the energy-pd check, one factor alive at a time
            _spd_checked(X)
        # a fixed start vector makes every solve reproducible bit for bit;
        # the first Lanczos vector and its E product do not depend on omega
        self.v0 = np.random.default_rng(0).standard_normal(2 * self.n)
        x = self.v0.astype(complex)
        ex = self._e_prod(x)
        b = np.sqrt(np.einsum("i,i", x.conj(), ex).real)
        self._q0, self._eq0 = x / b, ex / b

    def _e_prod(self, x):  # E x
        return np.concatenate([self.K @ x[:self.n], self.M @ x[self.n:]])

    def eigenvalues(self, k, s):
        """The k eigenvalues of the generator nearest the real shift s."""
        K, M, D, n = self.K, self.M, self.D, self.n
        lu = _symmetric_lu(K + s * D + (s * s) * M, 0.0)

        def apply(y):  # (A - s E)^{-1} E y
            y1 = y[:n]
            u = -lu.solve(M @ (y[n:] + s * y1) + D @ y1)
            return np.concatenate([u, s * u + y1])

        op = LinearOperator((2 * n, 2 * n), matvec=apply, dtype=float)
        try:
            mu = eigs(op, k=k, which="LM", v0=self.v0,
                      return_eigenvectors=False)
        except Exception as exc:
            raise SolverError(f"shift-invert eigensolve failed: {exc}",
                              invariant="eigensolver") from exc
        return s + 1.0 / mu

    def norm(self, omega):
        # P(-i omega) is the conjugate of P(i omega), so the norm is even in
        # omega; evaluating at |omega| makes it so bit for bit
        w = abs(float(omega))
        K, M, D, n = self.K, self.M, self.D, self.n
        with np.errstate(over="ignore"):
            P = K - (w * w) * M + (1j * w) * D
        if not np.all(np.isfinite(P.data)):
            raise InvalidArgumentError(
                f"P(i omega) at omega = {w:.17g} has a non-finite entry",
                invariant="pencil-finite")
        try:  # P(i omega) is indefinite: pivots may leave the diagonal
            lu = _symmetric_lu(P, 0.1)
        except RuntimeError:  # exactly singular, and finite: an eigenfrequency
            return np.inf

        def apply(f):  # X f
            f1, f2 = f[:n], f[n:]
            u = lu.solve(M @ (f2 + 1j * w * f1) + D @ f1)
            v = 1j * w * u - f1
            y = lu.solve(D @ u - M @ (1j * w * u + v), trans="H")
            return np.concatenate([y, 1j * w * y + u])

        Q, EQ, alpha, beta = [self._q0], [self._eq0], [], []
        for _ in range(_LANCZOS_STEPS):
            x = apply(Q[-1])
            # two classical Gram-Schmidt passes in the E product; einsum,
            # not BLAS, whose threads would keep spinning into the next splu
            basis, e_basis, a = np.array(Q), np.array(EQ), 0.0
            for _ in range(2):
                c = np.einsum("ij,j->i", e_basis.conj(), x)
                x -= np.einsum("i,ij->j", c, basis)
                a += c[-1].real
            alpha.append(a)
            ex = self._e_prod(x)
            b = np.sqrt(max(np.einsum("i,i", x.conj(), ex).real, 0.0))
            theta, s = sla.eigh_tridiagonal(alpha, beta)
            # ARPACK's tol = 0 test on the residual r = b |s_k|, or the gap
            # bound on theta_1 alone; theta is exact once the basis spans all
            # 2n dimensions
            r, eps = b * abs(s[-1, -1]), np.finfo(float).eps
            if (r <= eps * theta[-1] or len(Q) == 2 * n
                    or (len(theta) > 1 and r * r <= 0.5 * eps * theta[-1]
                        * (theta[-1] - theta[-2]))):
                return float(np.sqrt(theta[-1]))
            beta.append(b)
            Q.append(x / b), EQ.append(ex / b)
        raise SolverError(
            f"Lanczos solve for the resolvent norm at omega = {w:.17g} "
            f"did not converge in {len(alpha)} steps",
            invariant="sweep-converged")


def resolvent_sweep(system, omegas):
    """Resolvent norms at many frequencies; returns rows (omega, norm).

    K and M are checked positive definite once; each frequency costs one
    sparse LU of the pencil and a few Lanczos steps from the same vector.
    """
    op = _Pencil(system)
    omegas = np.asarray(omegas, dtype=float)
    norms = np.array([op.norm(w) for w in omegas], dtype=float)
    return np.stack([omegas, norms], axis=1)


# ---------------------------------------------------------------------------
# fits
# ---------------------------------------------------------------------------

_N_BINS = 24  # log-spaced frequency bins of an envelope fit


def _band(band):
    """A frequency band (lo, hi) with 0 < lo < hi (``band``)."""
    lo, hi = float(band[0]), float(band[1])
    if not 0 < lo < hi:
        raise InvalidArgumentError("frequency band must satisfy 0 < lo < hi",
                                   invariant="band")
    return lo, hi


def _envelope_fit(x, y, ly):
    """Log-log line through the upper envelope of the points (x, y).

    The points may come in any order.  The range of x is cut into at most
    ``_N_BINS`` log-spaced bins, and each non-empty bin keeps its point of
    largest y (the first one on ties).  Of those bin peaks, the
    running-maximum front of ``ly`` (a monotone transform of y) in the
    direction of their least-squares trend is fitted against log x; a zero
    trend scans from the right.  When the front has fewer than 3 points,
    every bin peak is fitted.  Returns the slope, R^2 and the number of bins
    with a peak.
    """
    edges = np.logspace(np.log10(x.min()), np.log10(x.max()),
                        min(_N_BINS, len(x)) + 1)
    edges[0], edges[-1] = x.min(), edges[-1] * (1.0 + 1e-12)
    bins = np.searchsorted(edges, x, side="right") - 1
    idx = np.flatnonzero((bins >= 0) & (bins < len(edges) - 1))
    idx = idx[np.lexsort((-y[idx], bins[idx]))]  # stable: first on ties
    peaks = idx[np.r_[True, bins[idx[1:]] != bins[idx[:-1]]]]
    lx, ly = np.log(x[peaks]), ly[peaks]
    trend, _ = lsq_line(lx, ly)
    scan = slice(None) if trend > 0 else slice(None, None, -1)
    ahead = ly[scan]
    front = (ahead > np.maximum.accumulate(np.r_[-np.inf, ahead[:-1]]))[scan]
    if np.count_nonzero(front) >= 3:
        lx, ly = lx[front], ly[front]
    slope, r2 = lsq_line(lx, ly)
    return slope, r2, len(peaks)


def growth_fit(sweep, band):
    """Slope of log(resolvent norm) vs log(omega) on the sweep's upper envelope.

    The resolvent oscillates between eigenvalue branches, so the fit keeps
    local maxima (all in-band points when fewer than 3, e.g. clean synthetic
    power laws) and fits their envelope (``_envelope_fit``).
    """
    sweep = np.asarray(sweep, dtype=float)
    lo, hi = _band(band)
    mask = (sweep[:, 0] >= lo) & (sweep[:, 0] <= hi) & np.isfinite(sweep[:, 1])
    pts = sweep[mask]
    if len(pts) < 10:
        raise InvalidArgumentError(
            f"need at least 10 sweep points in band, found {len(pts)}",
            invariant="band-points")
    w, v = pts[np.argsort(pts[:, 0])].T.copy()  # contiguous rows
    # local maxima, ties included; the ends compare one side
    peak = np.r_[True, v[1:] >= v[:-1]] & np.r_[v[:-1] >= v[1:], True]
    if np.count_nonzero(peak) >= 3:
        w, v = w[peak], v[peak]
    slope, r2, _ = _envelope_fit(w, v, np.log(v))
    return slope, r2


def damping_branch_fit(lam, band):
    """Slope of log(-Re) vs log|Im| along the weakly damped eigenvalue branch.

    Per frequency bin the eigenvalue closest to the imaginary axis is kept,
    then the lower envelope of those minima is fitted (``_envelope_fit`` on
    -Re; raw bin minima when the front is too short, e.g. flat synthetic
    branches).  A slope of -2 matches quadratic approach to the axis.
    """
    lo, hi = _band(band)
    lam = lam[(lam.imag > 0) & (lam.real < 0)]
    lam = lam[(lam.imag >= lo) & (lam.imag <= hi)]
    if len(lam) < 10:
        raise InsufficientDataError(
            f"need at least 10 branch eigenvalues in band, found {len(lam)}",
            invariant="branch-points")
    decay = -lam.real
    # -log(d), not log(1/d): the slope is then the exact negative of the
    # fit of log(d)
    slope, r2, n_bins = _envelope_fit(lam.imag, -decay, -np.log(decay))
    if n_bins < 3:
        raise InsufficientDataError("too few branch bins", invariant="branch-bins")
    return -slope, r2


def suggest_sweep_omegas(lam, band, n_grid=40, n_peaks=60):
    """Frequencies for a resolvent sweep: log grid plus eigenvalue peaks.

    Resolvent peaks are only a few linewidths wide, so a bare log grid
    misses them; adding the imaginary parts of the weakly damped in-band
    eigenvalues puts sample points on the envelope itself.
    """
    lo, hi = _band(band)
    grid = np.logspace(np.log10(lo), np.log10(hi), n_grid)
    grid[0], grid[-1] = lo, hi  # 10**log10(x) can miss x by an ulp
    lam = lam[(lam.imag >= lo) & (lam.imag <= hi) & (lam.real < 0)]
    if len(lam):
        order = np.argsort(-lam.real)  # smallest -Re first: closest to axis
        peaks = lam.imag[order][:n_peaks]
        grid = np.concatenate([grid, peaks])
    return np.unique(grid)


def resolved_band(lam):
    """Deterministic frequency band for fits: from the 10th smallest
    eigenfrequency to 2/3 of the largest resolved one."""
    freqs = np.sort(lam.imag[lam.imag > 1e-9])
    if len(freqs) < 12:
        raise InsufficientDataError("too few eigenfrequencies for a band",
                                    invariant="band-data")
    return float(freqs[9]), float((2.0 / 3.0) * freqs[-1])
