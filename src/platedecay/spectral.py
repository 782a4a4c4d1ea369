"""Frequency-domain certification of the damped plate surrogate.

The second-order system is linearized as E z' = A z with E = blockdiag(K, M)
and A = [[0, K], [-K, -D]], so the first-order norm sqrt(z' E z) is exactly
the discrete energy norm.  The module computes the pencil spectrum, the
resolvent norm along the imaginary axis in that norm, and log-log fits of

* the upper envelope of the resolvent sweep (growth exponent), and
* the weakly damped eigenvalue branch (distance to the axis vs frequency),

which are the one-sided quantities the decay theory constrains.  A and E
are never assembled, nor is any 2n x 2n matrix but the dense generator of
``_modal_generator`` (kept for ``eigenpacket_data``).  The spectrum starts
from the undamped modes of (K, M), whose light-damping guesses (Lancaster,
Lambda-Matrices and Vibrating Systems, 1966) carry an estimated error;
they are refined on P(s) = s^2 M + s D + K wherever a certified number
reads them or could read them within that error (``_READERS``).
The system's ``pencil`` (``_Pencil``) checks K and M positive definite once
per system, and its K and M give the undamped modes; it answers the sparse
questions from n x n factors of P, all on the ordering of its K check: that
refinement by inverse iteration (Tisseur & Meerbergen, SIAM Rev. 43, 2001),
eigenvalues near a shift by the spectral transformation (Ericsson & Ruhe,
Math. Comp. 35, 1980) and the resolvent norm by a Lanczos iteration in the
energy inner product (Wright & Trefethen, SISC 23, 2001).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, eigs, splu

from ._lsq import lsq_line
from .errors import (InsufficientDataError, InvalidArgumentError, SolverError)

_DENSE_LIMIT = 4096  # order beyond which a dense eigensolve is refused
_LANCZOS_STEPS = 60  # cap on Lanczos steps per frequency (2n if fewer)
_REFINE_SOLVES = 10  # cap on inverse-iteration solves per refined eigenvalue
_BACKWARD_TOL = 1e-13  # backward error a refined eigenvalue must reach
_COUPLING = 0.5  # largest coupling of a guess to a mode it leaves out
_CLUSTER = 8  # most modes whose guesses come from one eigensolve (_guesses)
_SWEEP_PEAKS = 60  # eigenfrequencies a resolvent sweep samples
_FREQ_FLOOR = 1e-9  # Im above which an eigenvalue is a frequency


def pencil_eigenvalues(system, count="all", band=None):
    """Eigenvalues of the first-order generator (roots of the damped pencil)
    and their backward errors, both sorted by imaginary part, then by real
    part.

    ``count = 'all'`` gives all 2n eigenvalues without a 2n x 2n eigensolve
    (``_refined``; ``band`` is the fit band, None for ``resolved_band``); a
    guess's backward error is NaN.  An integer count gives the ``count``
    eigenvalues nearest the real shift 1e-3 from one sparse n x n factor
    (``_Pencil.eigenvalues``), whose backward errors are NaN.  Both stop
    with ``energy-pd`` unless K and M are positive definite.
    """
    if count == "all":
        lam, backward = _refined(system, band)[:2]
    else:
        k = int(count)
        if not 0 < k < 2 * system.K.shape[0] - 1:
            raise InvalidArgumentError("count out of range", invariant="count")
        lam = system.pencil.eigenvalues(k, 1e-3)
        backward = np.full(k, np.nan)
    order = np.lexsort((lam.real, lam.imag))
    return lam[order], backward[order]


def _quadratic_roots(a, b, c):
    """The roots (near, far) of a l^2 + b l + c = 0 for real a > 0, b >= 0
    and c > 0 (arrays or scalars): -p + i r and its conjugate when
    r^2 = q - p^2 > 0 (p = b / 2a, q = c / a), else the real roots
    -q / (p + r) and -(p + r), r^2 = p^2 - q, the small one without the
    cancellation of -p + r.  p^2 may overflow to a non-finite far root."""
    p, q = b / (2.0 * a), c / a
    with np.errstate(over="ignore", invalid="ignore"):
        d = p * p - q
        r = np.sqrt(np.abs(d))
        near = np.where(d < 0, -p + 1j * r, -q / (p + r))
        far = np.where(d < 0, -p - 1j * r, -(p + r))
    return near, far


def _refined(system, band):
    """All 2n eigenvalues, their backward errors (NaN for a guess) and their
    estimated errors (0 once refined): the guesses of ``_guesses`` from
    ``_undamped_modes``, with the values that ``_unsettled`` names refined
    by ``_Pencil.refine`` until it names none, so that every reader of
    ``_READERS`` reads refined values only.  A refined value is accepted
    only with a backward error of at most ``_BACKWARD_TOL``, within the
    error of its own guess, nearest it of all 2n guesses and on the same
    side of the real axis, else ``eigenvalue-refined``; a refined complex
    value's conjugate is its pair's other member.  An n above the dense
    limit is refused first (``dense-limit``); the system's pencil, which
    checks K and M once per system, gives the undamped modes and refines."""
    _dense_limited(system.K.shape[0], "dofs")
    pencil = system.pencil
    omega, Phi = _undamped_modes(pencil)
    S = np.union1d(*system.D.nonzero())
    X = Phi[S]  # the damped rows: Phi'D Phi by D's block on them
    guess, coords, radius = _guesses(omega, X.T @ (system.D[S][:, S] @ X))
    del X
    n = len(omega)
    lam, backward, err = guess.copy(), np.full(2 * n, np.nan), radius.copy()
    while True:
        order = np.lexsort((lam.real, lam.imag))
        todo = sorted({i - n if i >= n and guess[i].imag else i
                       for i in order[_unsettled(lam[order], err[order],
                                                 band)]})
        if not todo:
            return lam, backward, err
        for i in todo:
            modes, y = coords.get(i, ([i % n], [1.0]))  # mode i % n alone
            value, eta = pencil.refine(guess[i], Phi[:, modes] @ y)
            dist = np.abs(guess - value)
            if not (eta <= _BACKWARD_TOL and dist[i] <= radius[i]
                    and dist[i] <= dist.min()
                    and (value.imag > 0) == (guess[i].imag > 0)):
                raise SolverError(
                    f"eigenvalue guess {guess[i]:.6g} refined to "
                    f"{value:.6g}: backward error {eta:.2g} (at most "
                    f"{_BACKWARD_TOL:.0e}), {dist[i]:.2g} from the guess "
                    f"(at most its error {radius[i]:.2g}), nearest guess "
                    f"{guess[np.argmin(dist)]:.6g}",
                    invariant="eigenvalue-refined")
            lam[i], backward[i], err[i] = value, eta, 0.0
            if guess[i].imag:
                lam[i + n], backward[i + n], err[i + n] = (np.conj(value),
                                                           eta, 0.0)


def _guesses(omega, C):
    """The eigenvalue guesses of ``_refined`` from the undamped modes and
    C = Phi'D Phi, the coordinates of their start vectors in the modes, and
    their estimated errors.

    A mode k alone gives the roots of q_k(s) = s^2 + C_kk s + omega_k^2,
    -C_kk/2 +- i (omega_k^2 - C_kk^2/4)^(1/2) (Lancaster, Lambda-Matrices
    and Vibrating Systems, 1966; ``_quadratic_roots``), the upper or small
    one at k and the other at n + k, its start vector the mode.  A guess g
    with unit coordinates y (e_k for mode k alone) leaves out the modes j
    outside its cluster, coupled to it by b = C y; its error is estimated
    as 4 times the second-order term |g|^2 sum_j |b_j|^2 / |q_j(g)| over
    those j, divided by |y'Q'(g) y| (the Schur complement of the cluster
    in s^2 I + s C + Omega^2, Q the cluster's block), plus
    4 n eps max(omega)^2 / |g| for the rounding of the undamped modes.
    Measured on the damped square (h = 1/4, 1/8, 1/12, d1 = d2 up to 10),
    every guess lies within 0.29 of that estimate of its refined value,
    and an undamped mode's rounding reaches 0.3 n eps max(omega)^2 / omega.

    The term holds while each coupling |g b_j| / |q_j(g)| stays below
    ``_COUPLING``.  Above it, mode j joins the guess's cluster, whose m
    modes give 2m guesses together: the eigenvalues of the cluster's
    quadratic s^2 I + s C_cc + Omega_c^2 by a dense eigensolve of its
    2m x 2m companion matrix, an upper one and its conjugate at k and
    n + k of one mode k of the cluster, a real pair likewise, with the
    eigenvector's coordinates y.  Refused unless every guess is finite
    (``guess-finite``) and every cluster has at most ``_CLUSTER`` modes
    (``guess-decoupled``)."""
    n = len(omega)
    c = np.maximum(C.diagonal(), 0.0)
    label = np.arange(n)  # the cluster of each mode
    while True:
        guess = np.concatenate(_quadratic_roots(1.0, c, omega * omega))
        coords = {}
        for k in np.flatnonzero(np.bincount(label) > 1):
            _cluster_roots(np.flatnonzero(label == k), omega, C, guess,
                           coords)
        if not np.all(np.isfinite(guess)):
            raise SolverError("an eigenvalue guess from the undamped modes "
                              "is not finite", invariant="guess-finite")
        term, coupling, partner = _couplings(guess, coords, omega, C, c)
        over = np.flatnonzero(~(coupling <= _COUPLING))
        if not len(over):
            break
        for i in over:  # join the clusters of the guess and its partner
            label[label == label[i % n]] = label[partner[i]]
        size = np.bincount(label).max()
        if size > _CLUSTER:
            worst = over[np.argmax(coupling[over])]
            raise SolverError(
                f"eigenvalue guess {guess[worst]:.6g} couples to another "
                f"mode at {coupling[worst]:.2g} of their gap, above "
                f"{_COUPLING}, in a cluster of {size} modes, above "
                f"{_CLUSTER}: the guesses do not hold",
                invariant="guess-decoupled")
    eps = np.finfo(float).eps
    with np.errstate(divide="ignore"):
        floor = 4.0 * n * eps * omega.max() ** 2 / np.abs(guess)
    return guess, coords, 4.0 * term + floor


def _cluster_roots(modes, omega, C, guess, coords):
    """Write the 2m guesses of the cluster ``modes`` into ``guess`` and
    their coordinates into ``coords`` (``_guesses``)."""
    n, m = len(omega), len(modes)
    companion = np.zeros((2 * m, 2 * m))
    companion[:m, m:] = np.eye(m)
    companion[m:, :m] = -np.diag(omega[modes] ** 2)
    companion[m:, m:] = -C[np.ix_(modes, modes)]
    values, vectors = sla.eig(companion, check_finite=False)
    upper = np.flatnonzero(values.imag > 0)
    upper = upper[np.argsort(values.imag[upper])]
    real = np.flatnonzero(values.imag == 0)
    real = real[np.argsort(-values.real[real])]  # the small root first
    slots = [(k, n + k) for k in modes]
    pairs = [(i, None) for i in upper]
    pairs += list(zip(real[0::2], real[1::2]))
    for (near, far), (k, other) in zip(pairs, slots):
        for i, slot in ((near, k), (far, other)):
            if i is not None:
                y = vectors[:m, i]
                guess[slot] = values[i]
                coords[slot] = (modes, y / np.linalg.norm(y))
        if far is None:  # the conjugate of a complex guess
            guess[other] = np.conj(guess[k])


def _couplings(guess, coords, omega, C, c):
    """The second-order term, the largest coupling and the mode of that
    coupling of each guess (``_guesses``); a conjugate at n + k has those
    of its pair at k."""
    n = len(omega)
    term, coupling = np.zeros(2 * n), np.empty(2 * n)
    partner = np.zeros(2 * n, dtype=int)
    conj = np.flatnonzero(guess.imag[n:])
    own = np.setdiff1d(np.arange(2 * n), n + conj)
    for start in range(0, len(own), 64):  # 64 x n blocks of the couplings
        rows = own[start:start + 64]
        g, k = guess[rows], rows % n
        b = np.abs(C[k])
        b[np.arange(len(k)), k] = 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.abs(g)[:, None] * b / np.abs(
                (g * g)[:, None] + np.outer(g, c) + omega ** 2)
        t[b == 0.0] = 0.0  # j == k, where q_k(g) is 0
        coupling[rows], partner[rows] = t.max(axis=1), t.argmax(axis=1)
        sums = np.abs(g) * np.einsum("ij,ij->i", t, b)
        coupled = sums > 0.0  # else the guess is exact, if a double root
        with np.errstate(divide="ignore"):
            term[rows[coupled]] = sums[coupled] / np.abs(
                2.0 * g + c[k])[coupled]
    for slot, (modes, y) in coords.items():  # a cluster's guesses
        g, b = guess[slot], np.abs(C[:, modes] @ y)
        b[modes] = 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.abs(g) * b / np.abs(g * g + g * c + omega ** 2)
        t[b == 0.0] = 0.0
        coupling[slot], partner[slot] = t.max(), t.argmax()
        slope = y @ (2.0 * g * y + C[np.ix_(modes, modes)] @ y)  # y'Q'(g)y
        with np.errstate(divide="ignore", invalid="ignore"):
            term[slot] = np.abs(g) * (t @ b) / np.abs(slope)
    for values in (term, coupling, partner):
        values[n + conj] = values[conj]
    return term, coupling, partner


def _unsettled(lam, err, band):
    """Indices of the values of ``lam`` to refine next: the guesses that a
    reader of ``_READERS`` reads, else, once there are none, the guesses
    that could within their error change which values one reads."""
    reads, could = zip(*(read_set(lam, err, band) for read_set in _READERS))
    read, guessed = np.unique(np.concatenate(reads)).astype(int), err > 0.0
    near = np.logical_or.reduce(np.broadcast_arrays(*could))
    if np.any(guessed[read]):
        return read[guessed[read]]
    return np.flatnonzero(near & guessed)


def _undamped_modes(pencil):
    """omega and Phi, K Phi = M Phi diag(omega^2) and Phi'M Phi = I, for the
    K and M that ``pencil`` checked definite (``energy-pd``), by the dense
    ``sygvd`` (a Cholesky of M), which overwrites the Fortran-order K with
    Phi.  Callers refuse an n above the dense limit (``dense-limit``) before
    the pencil is built."""
    w2, Phi = sla.eigh(pencil.K.toarray(order="F"),
                       pencil.M.toarray(order="F"), overwrite_a=True,
                       overwrite_b=True, check_finite=False)
    return np.sqrt(w2), Phi


def _dense_limited(order, dofs):  # dense-limit
    if order > _DENSE_LIMIT:
        raise InvalidArgumentError(
            f"dense eigensolve refused for {order} {dofs}, above the dense "
            f"limit of {_DENSE_LIMIT}", invariant="dense-limit")


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


def _symmetric_lu(matrix, pivot, ordered=False):
    """The package's one factorization: sparse LU of a (complex) symmetric
    matrix, minimum degree on A' + A, keeping each diagonal pivot unless it is
    below ``pivot`` times its column's largest entry (Demmel et al., SIMAX
    20, 1999).  ``ordered``: the matrix comes in its fill-reducing order
    already (``_Pencil.factor``, on the ordering of its K check), so SuperLU
    keeps it (``NATURAL``) instead of recomputing minimum degree.  Relaxed
    supernodes are capped at two columns (``relax=2``): scipy's default pads
    them with explicit zeros, which every solve reads (52,728 stored entries
    for K at h = 1/12 against 41,072).  Raises RuntimeError when the matrix
    is exactly singular."""
    return splu(sp.csc_matrix(matrix),
                permc_spec="NATURAL" if ordered else "MMD_AT_PLUS_A",
                diag_pivot_thresh=pivot, relax=2,
                options={"SymmetricMode": True})


def _aligned(matrices, at):
    """The union of the matrices' patterns with row and column i moved to
    ``at[i]``, as CSC (indices, indptr), and each matrix's data on it, so
    that a combination of the matrices is that of their data arrays."""
    n = len(at)
    coo = [X.tocoo() for X in matrices]
    keys = [at[X.col].astype(np.int64) * n + at[X.row] for X in coo]
    union = np.sort(np.concatenate(keys))  # column-major, sorted rows
    union = union[np.r_[True, union[1:] != union[:-1]]]
    data = [np.bincount(np.searchsorted(union, key), weights=X.data,
                        minlength=len(union)) for X, key in zip(coo, keys)]
    indptr = np.searchsorted(union // n, np.arange(n + 1))
    return ((union % n).astype(np.intc), indptr.astype(np.intc)), data


def _spd_checked(matrix):
    """``_symmetric_lu`` with diagonal pivots only, so that diag(U) is the D
    of P A P' = L D L'; by Sylvester's law the matrix is positive definite
    exactly when every pivot is (else ``energy-pd``).  Reading diag(U) makes
    scipy's SuperLU keep CSC copies of L and U as long as the factor lives,
    so only the energy's K and M (the checks of a system's pencil, made
    once per system, whose K and M give the undamped modes and whose K
    check gives its ordering, and those of ``_spd_root``) and single solves
    use this factor.  A factor kept for many solves is made once by
    ``_symmetric_lu`` and never read: the step operator and P(s) at s > 0
    are positive combinations of K and M, checked here, plus a multiple of
    D, positive semidefinite by construction (boundary Gram matrices with
    positive weights, d1, d2 >= 0 and diagonal corner gains >= 0)."""
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
    of ``_spd_checked``."""
    lu = _spd_checked(matrix)
    return (lu.L @ sp.diags(np.sqrt(lu.U.diagonal())))[lu.perm_r].tocsr()


class _Pencil:
    """The damped pencil P(s) = s^2 M + s D + K, which answers the
    frequency questions from n x n factors: ``refine`` (its docstring),
    ``eigenvalues`` and ``norm``.

    Every P(s) has the union pattern of K, M and D, ordered once by the
    minimum-degree ordering of K's check on it (``energy-pd``); K, D and M
    are held as data arrays on it, which ``factor`` combines, beside the
    system's own K, M and D, which the products read.

    ``eigenvalues``: lambda = s + 1/mu for the largest mu of
    (A - s E)^{-1} E, which maps y = (y1, y2) to (u, s u + y1) with
    P(s) u = -(M y2 + (D + s M) y1), one factor of P(s) for every product,
    never read: P(s) at s > 0 is definite (``_spd_checked``).

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
        K, M, D = system.K, system.M, system.D
        n = K.shape[0]
        self.K, self.M, self.D, self.n = K, M, D, n
        # |M|, |D|, |K| in the infinity norm, for backward errors
        self._norms = [abs(X).sum(axis=1).max() for X in (M, D, K)]
        # energy-pd, one factor alive at a time; the K check's ordering
        # (its perm_c, perm_r = perm_c) moves index i to at[i] in every P(s),
        # copied: perm_c is a view that would keep the check's factor alive
        pattern, (kd, _, _) = _aligned((K, M, D), np.arange(n))
        checked = sp.csc_matrix((kd, *pattern), shape=(n, n))
        at = _spd_checked(checked).perm_c.astype(np.intp)
        _spd_checked(M)
        self._pattern, self._data = _aligned((K, D, M), at)
        self._at, self._order = at, np.argsort(at)
        # a fixed start vector makes every solve reproducible bit for bit;
        # the first Lanczos vector and its E product do not depend on omega
        self.v0 = np.random.default_rng(0).standard_normal(2 * self.n)
        x = self.v0.astype(complex)
        ex = self._e_prod(x)
        b = np.sqrt(np.einsum("i,i", x.conj(), ex).real)
        self._q0, self._eq0 = x / b, ex / b

    def refine(self, lam, x):
        """Inverse iteration for the eigenpair of P near (lam, x).

        Each step solves P(sigma) y = ((lam + sigma) M + D) x, the step of
        (A - sigma E)^{-1} E on z = (x, lam x) (Tisseur & Meerbergen, SIAM
        Rev. 43, 2001), and takes lam from the real quadratic
        (x*Mx) l^2 + (x*Dx) l + x*Kx = 0, the root nearest the last one, so
        Re lam = -x*Dx / (2 x*Mx) <= 0 for every x.  The backward error is
        eta = |P(lam) x| / ((|lam|^2 |M| + |lam| |D| + |K|) |x|) in the
        infinity norms (Tisseur, Linear Algebra Appl. 309, 2000).  One
        factor of P(sigma) (pivot 0.1: P(sigma) is indefinite), sigma the
        first lam, serves every solve until eta stalls (falls by less than
        10 in a solve); at or below ``_BACKWARD_TOL`` a stall ends the
        iteration, its rounding floor reached, and above it P is factored
        again at the current lam.  The iteration also stops after
        ``_REFINE_SOLVES`` solves or on an exactly singular P(sigma).
        Returns the (lam, eta) of least eta; the first lam is the Rayleigh
        value of x.
        """
        K, M, D = self.K, self.M, self.D
        x, solve, best = np.asarray(x, dtype=complex), None, (lam, np.inf)
        for step in range(_REFINE_SOLVES + 1):
            Kx, Dx, Mx = K @ x, D @ x, M @ x
            a, b, c = (np.einsum("i,i", x.conj(), v).real
                       for v in (Mx, Dx, Kx))
            # x*Dx >= 0 up to its rounding, which can exceed it: a mode the
            # boundary locks at d1 = d2 = 1e10 (h = 1/8) rounds it to
            # -2e-4 x*Mx
            near, far = _quadratic_roots(a, max(b, 0.0), c)
            lam = complex(near if abs(near - lam) <= abs(far - lam) else far)
            eta = np.abs(Kx + lam * Dx + (lam * lam) * Mx).max() / (
                (abs(lam) ** 2 * self._norms[0] + abs(lam) * self._norms[1]
                 + self._norms[2]) * np.abs(x).max())
            stalled = eta > 0.1 * best[1]
            best = min(best, (lam, eta), key=lambda pair: pair[1])
            if step == _REFINE_SOLVES or (stalled and eta <= _BACKWARD_TOL):
                break
            if solve is None or stalled:
                sigma = lam
                try:
                    solve = self.factor(sigma, 0.1)
                except RuntimeError:  # exactly singular
                    break
            x = solve((lam + sigma) * Mx + Dx)
            x /= np.abs(x).max()
        return best

    def factor(self, s, pivot):
        """The solve b -> P(s)^{-1} b (``trans="H"``: P(s)^H) by one factor
        of P(s) = K + s D + s^2 M at diagonal pivot threshold ``pivot``,
        made on the pencil's ordering: x = lu.solve(b[order])[at].  Refused
        when an entry overflowed (``pencil-finite``); RuntimeError when P(s)
        is exactly singular."""
        kd, dd, md = self._data
        with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 is NaN
            data = kd + s * dd + (s * s) * md
        if not np.all(np.isfinite(data)):
            raise InvalidArgumentError(
                f"P(s) at s = {s:.17g} has a non-finite entry",
                invariant="pencil-finite")
        n = self.n
        lu = _symmetric_lu(sp.csc_matrix((data, *self._pattern), shape=(n, n)),
                           pivot, ordered=True)
        order, at = self._order, self._at

        def solve(b, trans="N"):
            return lu.solve(b[order], trans=trans)[at]

        return solve

    def _e_prod(self, x):  # E x
        return np.concatenate([self.K @ x[:self.n], self.M @ x[self.n:]])

    def eigenvalues(self, k, s):
        """The k eigenvalues of the generator nearest the real shift s."""
        M, D, n = self.M, self.D, self.n
        solve = self.factor(s, 0.0)

        def apply(y):  # (A - s E)^{-1} E y
            y1 = y[:n]
            u = -solve(M @ (y[n:] + s * y1) + D @ y1)
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
        M, D, n = self.M, self.D, self.n
        try:  # P(i omega) is indefinite: pivots may leave the diagonal
            solve = self.factor(1j * w, 0.1)
        except RuntimeError:  # exactly singular, and finite: an eigenfrequency
            return np.inf

        def apply(f):  # X f
            f1, f2 = f[:n], f[n:]
            u = solve(M @ (f2 + 1j * w * f1) + D @ f1)
            v = 1j * w * u - f1
            y = solve(D @ u - M @ (1j * w * u + v), trans="H")
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

    The system's pencil checks K and M positive definite once per system
    (a spectrum of the same system shares it), and its K check orders
    every P(i omega); each frequency costs one sparse LU of the pencil on
    that ordering and a few Lanczos steps from the same vector.
    """
    op = system.pencil
    omegas = np.asarray(omegas, dtype=float)
    norms = np.array([op.norm(w) for w in omegas], dtype=float)
    return np.stack([omegas, norms], axis=1)


def spectral_abscissa(lam):
    """The largest real part of the eigenvalues ``lam``."""
    return float(np.max(lam.real))


def _abscissa_reads(lam, err, band):
    """The rightmost value, and the guesses that could pass it."""
    top = int(np.argmax(lam.real))
    return [top], lam.real + err >= lam.real[top]


def zero_in_resolvent(lam):
    """Whether 0 is in the resolvent set: no eigenvalue ``lam`` is 0."""
    return bool(np.min(np.abs(lam)) > 0.0)


def _zero_reads(lam, err, band):
    """No value, and the guesses whose error disc reaches 0."""
    return [], np.abs(lam) <= err


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


def _bins(x):
    """The edges of at most ``_N_BINS`` log-spaced bins over the range of
    the points x > 0, and the bin of each point."""
    edges = np.logspace(np.log10(x.min()), np.log10(x.max()),
                        min(_N_BINS, len(x)) + 1)
    edges[0], edges[-1] = x.min(), edges[-1] * (1.0 + 1e-12)
    return edges, np.searchsorted(edges, x, side="right") - 1


def _bin_peaks(x, y):
    """Indices of the bin peaks of the points (x, y), in bin order: each
    non-empty bin of ``_bins`` keeps its point of largest y (the first one
    on ties)."""
    edges, bins = _bins(x)
    idx = np.flatnonzero((bins >= 0) & (bins < len(edges) - 1))
    idx = idx[np.lexsort((-y[idx], bins[idx]))]  # stable: first on ties
    return idx[np.r_[True, bins[idx[1:]] != bins[idx[:-1]]]]


def _envelope_fit(x, y, ly):
    """Log-log line through the upper envelope of the points (x, y).

    The points may come in any order.  Of the bin peaks (``_bin_peaks``),
    the running-maximum front of ``ly`` (a monotone transform of y) in the
    direction of their least-squares trend is fitted against log x; a zero
    trend scans from the right.  When the front has fewer than 3 points,
    every bin peak is fitted.  Returns the slope, R^2 and the number of bins
    with a peak.
    """
    peaks = _bin_peaks(x, y)
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


def _branch(lam, band):
    """Indices of the branch eigenvalues, those with Re < 0 and Im in the
    band (Im > 0); refused below 10 (``branch-points``)."""
    lo, hi = _band(band)
    branch = np.flatnonzero((lam.imag > 0) & (lam.real < 0)
                            & (lam.imag >= lo) & (lam.imag <= hi))
    if len(branch) < 10:
        raise InsufficientDataError(
            f"need at least 10 branch eigenvalues in band, found "
            f"{len(branch)}", invariant="branch-points")
    return branch


def damping_branch_fit(lam, band):
    """Slope of log(-Re) vs log|Im| along the weakly damped eigenvalue branch.

    Per frequency bin the eigenvalue closest to the imaginary axis is kept,
    then the lower envelope of those minima is fitted (``_envelope_fit`` on
    -Re; raw bin minima when the front is too short, e.g. flat synthetic
    branches).  A slope of -2 matches quadratic approach to the axis.
    """
    lam = lam[_branch(lam, band)]
    decay = -lam.real
    # -log(d), not log(1/d): the slope is then the exact negative of the
    # fit of log(d)
    slope, r2, n_bins = _envelope_fit(lam.imag, -decay, -np.log(decay))
    if n_bins < 3:
        raise InsufficientDataError("too few branch bins", invariant="branch-bins")
    return -slope, r2


def _branch_reads(lam, err, band):
    """The branch ends (which set the bins) and each bin minimum of
    ``damping_branch_fit``, and the guesses that could move those ends or
    pass the minimum of a bin they may fall in."""
    try:
        lo, hi = _fit_band(lam, band)
        branch = _branch(lam, (lo, hi))
    except (InsufficientDataError, InvalidArgumentError):
        return [], False
    re, below, above = lam.real, lam.imag - err, lam.imag + err
    x = lam.imag[branch]
    edges, bins = _bins(x)
    peaks = _bin_peaks(x, re[branch])
    peak = np.full(len(edges) - 1, -np.inf)  # an empty bin's is -inf
    peak[bins[peaks]] = re[branch[peaks]]
    first, last = (np.clip(np.searchsorted(edges, y, side="right") - 1,
                           0, len(peak) - 1) for y in (below, above))
    near = ((below <= x.min()) & (above >= lo)
            | (above >= x.max()) & (below <= hi)
            | (above >= edges[0]) & (below <= edges[-1])
            & ((last - first > 1)
               | (re + err >= np.minimum(peak[first], peak[last]))))
    return [branch[np.argmin(x)], branch[np.argmax(x)], *branch[peaks]], near


def _sweep_peaks(lam, band):
    """Indices of the ``_SWEEP_PEAKS`` eigenvalues with Re < 0 and Im in the
    band nearest the imaginary axis, nearest first."""
    lo, hi = _band(band)
    weak = np.flatnonzero((lam.imag >= lo) & (lam.imag <= hi)
                          & (lam.real < 0))
    return weak[np.argsort(-lam.real[weak])][:_SWEEP_PEAKS]


def suggest_sweep_omegas(lam, band, n_grid=40):
    """Frequencies for a resolvent sweep: log grid plus eigenvalue peaks.

    Resolvent peaks are only a few linewidths wide, so a bare log grid
    misses them; adding the imaginary parts of the weakly damped in-band
    eigenvalues (``_sweep_peaks``, as many as their read set
    ``_sweep_reads`` settles) puts sample points on the envelope itself.
    """
    lo, hi = _band(band)
    grid = np.logspace(np.log10(lo), np.log10(hi), n_grid)
    grid[0], grid[-1] = lo, hi  # 10**log10(x) can miss x by an ulp
    peaks = lam.imag[_sweep_peaks(lam, band)]
    return np.unique(np.concatenate([grid, peaks]))


def _sweep_reads(lam, err, band):
    """No value (the samples of ``suggest_sweep_omegas`` are a sampling
    choice), and the samples whose error is above a tenth of their distance
    to the axis, as each must sit on its resonance peak."""
    try:
        sweep = _sweep_peaks(lam, _fit_band(lam, band))
    except (InsufficientDataError, InvalidArgumentError):
        return [], False
    near = np.zeros(len(lam), dtype=bool)
    near[sweep] = err[sweep] > -0.1 * lam.real[sweep]
    return [], near


def _band_ends(lam):
    """Indices of the 10th smallest and the largest eigenfrequency Im > 0
    (above ``_FREQ_FLOOR``); refused below 12 (``band-data``)."""
    freqs = np.flatnonzero(lam.imag > _FREQ_FLOOR)
    if len(freqs) < 12:
        raise InsufficientDataError("too few eigenfrequencies for a band",
                                    invariant="band-data")
    freqs = freqs[np.argsort(lam.imag[freqs], kind="stable")]
    return int(freqs[9]), int(freqs[-1])


def resolved_band(lam):
    """Deterministic frequency band for fits: from the 10th smallest
    eigenfrequency to 2/3 of the largest resolved one (``_band_ends``)."""
    lo, hi = _band_ends(lam)
    return float(lam.imag[lo]), float((2.0 / 3.0) * lam.imag[hi])


def _fit_band(lam, band):
    """The band of the fits, ``band`` or else ``resolved_band`` (``_band``)."""
    return _band(resolved_band(lam) if band is None else band)


def _band_reads(lam, err, band):
    """The fit band's: the ends of ``resolved_band`` when ``band`` is None,
    and the guesses that could cross the 10th frequency, pass the highest,
    become a frequency (``_FREQ_FLOOR``; with a band given too) or cross an
    end of the fit band."""
    im, read = lam.imag, []
    near = (im <= _FREQ_FLOOR) & (im + err > _FREQ_FLOOR)
    try:
        if band is None:
            lo, hi = read = list(_band_ends(lam))
            near |= _crosses(lam, err, im[lo]) | (im + err >= im[hi])
        blo, bhi = _fit_band(lam, band)
        near |= _crosses(lam, err, blo) | _crosses(lam, err, bhi)
    except (InsufficientDataError, InvalidArgumentError):
        pass  # no band
    return read, near


def _crosses(lam, err, freq):
    """The guesses whose error reaches the frequency ``freq``."""
    return (lam.imag - err <= freq) & (lam.imag + err >= freq)


# Each reader's read set, beside it: on the sorted spectrum lam of
# ``_refined``, its errors err (0 once refined) and the given band, the
# values it reads and the guesses that could change which values they are
_READERS = (_abscissa_reads, _zero_reads, _band_reads, _branch_reads,
            _sweep_reads)
