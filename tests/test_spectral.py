import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from platedecay import spectral
from platedecay.assembly import AssembledSystem
from platedecay.cli import RunConfig, _build_system
from platedecay.errors import (InsufficientDataError, InvalidArgumentError,
                               SolverError)
from platedecay.plate_forms import PlateMaterial
from platedecay.spectral import (damping_branch_fit, growth_fit,
                                 pencil_eigenvalues, resolved_band,
                                 resolvent_sweep, spectral_abscissa,
                                 suggest_sweep_omegas, zero_in_resolvent)

from damped_square import build
from dense_oracle import dense_eigenvalues


def scalar_system(m, d, k):
    return AssembledSystem(K=sp.csr_matrix(np.array([[float(k)]])),
                           M=sp.csr_matrix(np.array([[float(m)]])),
                           D=sp.csr_matrix(np.array([[float(d)]])),
                           damping_parts=None, dofs=None)


def test_scalar_surrogate_critically_damped():
    lam, _ = pencil_eigenvalues(scalar_system(1.0, 2.0, 1.0))
    assert np.allclose(lam, [-1.0, -1.0], atol=1e-9)
    assert np.min(np.abs(lam)) > 0


def test_undamped_spectrum_purely_imaginary():
    mat0 = PlateMaterial(mu=0.3, rho=1.0, inertia=1.0, d1=0.0, d2=0.0)
    system = build(mat0, gains=[0, 0, 0, 0])
    lam, _ = pencil_eigenvalues(system)
    assert np.max(np.abs(lam.real)) < 1e-8 * np.max(np.abs(lam))
    w2 = sla.eigh(system.K.toarray(), system.M.toarray(),
                  eigvals_only=True)
    freqs = np.sort(lam.imag[lam.imag > 0])
    assert np.allclose(freqs, np.sqrt(w2), rtol=1e-7)


def test_spectrum_conjugate_symmetric():
    lam, _ = pencil_eigenvalues(build())
    lam_sorted = lam[np.lexsort((lam.real, lam.imag))]
    conj_sorted = lam.conj()[np.lexsort((lam.conj().real, lam.conj().imag))]
    assert np.allclose(lam_sorted, conj_sorted, atol=1e-7 * np.abs(lam).max())


def test_count_eigenvalues_nearest_shift_match_dense():
    key = lambda lam: lam[np.lexsort((lam.real, lam.imag))]
    for h, k in ((0.25, 6), (0.125, 40)):
        system = build(h=h)
        dense = dense_eigenvalues(system)
        lam, _ = pencil_eigenvalues(system, count=k)
        nearest = dense[np.argsort(np.abs(dense - 1e-3))[:k]]
        assert np.allclose(key(lam), key(nearest), rtol=1e-8, atol=0.0)
        assert np.max(lam.real) < 0 and np.min(np.abs(lam)) > 0


def read_values(lam):
    """The eigenvalues that the readers of the spectrum read on the sorted
    ``lam`` with no error, reader by reader (``spectral._READERS``)."""
    err = np.zeros(len(lam))
    reads = [read_set(lam, err, None)[0] for read_set in spectral._READERS]
    return lam[np.concatenate(reads).astype(int)]


def theta_hat(system, lam):
    band = resolved_band(lam)
    sweep = resolvent_sweep(system, suggest_sweep_omegas(lam, band))
    return growth_fit(sweep, band)[0]


@pytest.mark.parametrize("h, d, theta_tol", [
    (0.125, 1.0, 1e-8), (1.0 / 12.0, 1.0, 1e-8),
    # two modes coupled beyond half their gap form a cluster; the sweep's
    # samples sit within a tenth of a linewidth of the dense ones, which
    # moves theta_hat by 1.0e-7
    (0.125, 20.0, 1e-6)], ids=["h8", "h12", "h8-d20"])
def test_refined_values_match_dense_oracle(h, d, theta_tol):
    system = build(PlateMaterial(mu=0.3, rho=1.0, inertia=1.0, d1=d, d2=d),
                   h=h)
    lam, backward = pencil_eigenvalues(system)
    dense = dense_eigenvalues(system)
    got, want = read_values(lam), read_values(dense)
    assert np.all(np.isin(got, lam[np.isfinite(backward)]))
    assert len(got) == len(want)
    top = np.abs(dense).max()
    unit = np.finfo(float).eps * top
    # real parts within the dense values' own error: measured 2.7 (h = 1/8),
    # 10.8 (h = 1/12) and 12.2 (d = 20) eps max|lambda|
    assert np.all(np.abs(got.real - want.real) <= 16.0 * unit)
    # the imaginary parts also carry the rounding of the oracle's undamped
    # modes, up to 0.3 n eps max|lambda|^2 / |lambda| (``_guesses``; 784
    # eps max|lambda| at the lower band end at h = 1/12); it depends on the
    # BLAS thread count, measured up to 0.22 n times eps max|lambda|^2 /
    # |lambda| (h = 1/8, one thread), where the refined values do not
    n = system.n_free
    assert np.all(np.abs(got - want) <= n * unit * top / np.abs(want))
    # measured 2.1e-10, 2.5e-9 and 3.6e-11
    slope = damping_branch_fit(lam, resolved_band(lam))[0]
    assert abs(slope / damping_branch_fit(dense, resolved_band(dense))[0]
               - 1.0) <= 1e-8
    assert abs(theta_hat(system, lam) / theta_hat(system, dense)
               - 1.0) <= theta_tol


def certified(lam, band):
    """The certified numbers read off the spectrum ``lam``, sorted as
    ``pencil_eigenvalues`` sorts it: the abscissa, whether 0 is in the
    resolvent set, the fit band and the branch fit on it."""
    lam = lam[np.lexsort((lam.real, lam.imag))]
    band = resolved_band(lam) if band is None else tuple(band)
    return (spectral_abscissa(lam), zero_in_resolvent(lam), band,
            damping_branch_fit(lam, band))


def moved_changes(lam, err, band, trials=200):
    """How many moves of every guess (``err`` > 0) to a point of its error
    disc change a certified number: to the disc's edge in each of the 4
    axis directions, then to ``trials`` seeded points.  A complex guess at
    k has its conjugate at n + k (``spectral._guesses``), which moves with
    it, mirrored."""
    n, want = len(lam) // 2, certified(lam, band)
    rng = np.random.default_rng(0)
    moves = [err * 1j ** k for k in range(4)]
    moves += [err * np.sqrt(rng.random(2 * n))
              * np.exp(2j * np.pi * rng.random(2 * n)) for _ in range(trials)]
    pair = lam[:n].imag != 0.0
    changed = 0
    for step in moves:
        step[n:][pair] = np.conj(step[:n][pair])
        changed += certified(lam + step, band) != want
    return changed


def config_system(name, band=None):
    data = json.loads((Path(__file__).resolve().parents[1] / "configs"
                       / name).read_text())
    return _build_system(RunConfig.from_dict(data)), band


@pytest.mark.parametrize("case", [
    lambda: (build(h=0.125), None), lambda: (build(h=1.0 / 12.0), None),
    lambda: config_system("lens.json"),
    lambda: config_system("square.json", [20.0, 5000.0])],
    ids=["h8", "h12", "lens", "square-band"])
def test_certified_numbers_read_refined_values_only(case):
    # every number a reader certifies stays bit for bit where the guesses
    # left unrefined move within their errors; the sweep's samples, a
    # sampling choice, each lie within a tenth of their distance to the axis
    system, band = case()
    lam, _, err = spectral._refined(system, band)
    assert np.any(err > 0.0)
    assert moved_changes(lam, err, band) == 0
    order = np.lexsort((lam.real, lam.imag))
    lam, err = lam[order], err[order]
    band = resolved_band(lam) if band is None else band
    peaks = lam.imag[spectral._sweep_peaks(lam, band)]
    assert np.all(np.isin(peaks, suggest_sweep_omegas(lam, band)))
    sampled = np.isin(lam.imag, peaks)
    assert np.count_nonzero(sampled) == len(peaks) > 0
    assert np.all(err[sampled] <= -0.1 * lam.real[sampled])


def test_certified_numbers_contract_sees_fit_only_bin_count(monkeypatch):
    # the branch fit on 20 bins, while its read set keeps those of 24
    system = build(h=0.125)
    lam, _, err = spectral._refined(system, None)
    envelope_fit = spectral._envelope_fit

    def on_20_bins(*args):
        with monkeypatch.context() as patch:
            patch.setattr(spectral, "_N_BINS", 20)
            return envelope_fit(*args)

    monkeypatch.setattr(spectral, "_envelope_fit", on_20_bins)
    assert moved_changes(lam, err, None, trials=20) == 24  # every move


def test_first_refinement_round_reads_only(monkeypatch):
    """While any value a reader reads is a guess, ``_unsettled`` names those
    values alone, the guesses that could change them waiting a round: at
    h = 1/8 with d1 = d2 = 10 the first round refines the rightmost guess,
    the 10th smallest and the largest frequency, the branch's lowest and
    highest frequency and the least damped guess of each of its 24 log
    bins, computed here without the package's helpers.  Measured: 27
    values, while 46 guesses are near.  Without the bin minima among the
    reads, or with every near guess refined in the first round, a spectrum
    refines other values (n_refined 42 here becomes 44 either way)."""
    rounds, unsettled = [], spectral._unsettled

    def recorded(lam, err, band):
        rounds.append((lam, err, unsettled(lam, err, band)))
        return rounds[-1][2]

    monkeypatch.setattr(spectral, "_unsettled", recorded)
    spectral._refined(build(PlateMaterial(mu=0.3, rho=1.0, inertia=1.0,
                                          d1=10.0, d2=10.0), h=0.125), None)
    lam, err, named = rounds[0]
    assert np.all(err > 0.0)  # every value a guess
    freqs = np.flatnonzero(lam.imag > 1e-9)
    freqs = freqs[np.argsort(lam.imag[freqs], kind="stable")]
    lo, hi = lam.imag[freqs[9]], (2.0 / 3.0) * lam.imag[freqs[-1]]
    branch = np.flatnonzero((lam.imag > 0) & (lam.real < 0)
                            & (lam.imag >= lo) & (lam.imag <= hi))
    x = lam.imag[branch]
    edges = np.logspace(np.log10(x.min()), np.log10(x.max()), 25)
    edges[0], edges[-1] = x.min(), edges[-1] * (1.0 + 1e-12)
    bins = np.searchsorted(edges, x, side="right") - 1
    minima = [branch[bins == b][np.argmax(lam.real[branch[bins == b]])]
              for b in np.unique(bins)]
    want = {int(np.argmax(lam.real)), freqs[9], freqs[-1],
            branch[np.argmin(x)], branch[np.argmax(x)], *minima}
    assert sorted(named) == sorted(int(i) for i in want)
    assert len(want) == 27


@pytest.mark.parametrize("error, named", [(0.5, [0, 3]), (0.1, [])])
def test_abscissa_names_the_guesses_that_could_pass_it(error, named):
    # the rightmost value -1 +- 10i is refined; a guess at -1.2 +- 20i
    # whose error reaches past -1 could be the rightmost one instead
    lam = np.array([-1.2 - 20j, -1.0 - 10j, -1.0 + 10j, -1.2 + 20j])
    err = np.array([error, 0.0, 0.0, error])
    assert list(spectral._unsettled(lam, err, None)) == named


def indefinite_energy():
    """The h = 1/2 square with K shifted between its two lowest
    eigenvalues (relative to M), so K is indefinite."""
    system = build(h=0.5)
    w2 = sla.eigh(system.K.toarray(), system.M.toarray(), eigvals_only=True)
    return replace(system, K=system.K - 0.5 * (w2[0] + w2[1]) * system.M)


def test_count_eigenvalues_refuse_indefinite_energy():
    with pytest.raises(SolverError) as info:
        pencil_eigenvalues(indefinite_energy(), count=6)
    assert info.value.invariant == "energy-pd"


def test_count_eigenvalues_reproducible():
    system = build()
    first, _ = pencil_eigenvalues(system, count=6)
    second, _ = pencil_eigenvalues(system, count=6)
    assert first.tobytes() == second.tobytes()


def first_order_matrices(system):
    """Oracle: E = blockdiag(K, M) and A = [[0, K], [-K, -D]], sparse."""
    K, M, D = system.K, system.M, system.D
    E = sp.block_diag([K, M], format="csr")
    Z = sp.csr_matrix(K.shape)
    A = sp.bmat([[Z, K], [-K, -D]], format="csr")
    return E, A


def oracle_generator(system):
    """Oracle: L^{-1} A L^{-T}, with L the block-diagonal Cholesky factor
    of E, formed from the assembled first-order matrices."""
    _, A = first_order_matrices(system)
    L = sla.block_diag(sla.cholesky(system.K.toarray(), lower=True),
                       sla.cholesky(system.M.toarray(), lower=True))
    G = sla.solve_triangular(L, A.toarray(), lower=True)
    return sla.solve_triangular(L, G.T, lower=True).T


def test_modal_generator_blocks():
    system = build()
    n = system.n_free
    omega, Phi = spectral._undamped_modes(system.pencil)
    G = spectral._modal_generator(omega, Phi, system.D)
    assert np.all(G[:n, :n] == 0.0)
    assert np.array_equal(G[:n, n:], -G[n:, :n].T)  # exactly skew
    assert np.array_equal(G[:n, n:], np.diag(omega))
    # the damping block -Phi'D Phi; measured 6.3e-15 max|C| off symmetry
    C = G[n:, n:]
    assert np.abs(C - C.T).max() <= 1e-13 * np.abs(C).max()
    # an orthogonal similarity of the Cholesky generator; measured 3.6e-14
    # max|lambda| here, the bound leaves a factor 5
    key = lambda lam: lam[np.lexsort((lam.real, lam.imag))]
    want = key(sla.eigvals(oracle_generator(system)))
    got = key(sla.eigvals(G))
    assert np.abs(got - want).max() <= 2e-13 * np.abs(want).max()


def test_one_cluster_guesses_are_the_spectrum(monkeypatch):
    """With every coupling above the bound, the modes form one cluster,
    whose guesses are the eigenvalues of the whole quadratic: the dense
    spectrum, each with an error estimate of rounding alone."""
    system = build(h=0.5)
    omega, Phi = spectral._undamped_modes(system.pencil)
    monkeypatch.setattr(spectral, "_COUPLING", 0.0)
    monkeypatch.setattr(spectral, "_CLUSTER", len(omega))
    guess, coords, radius = spectral._guesses(
        omega, Phi.T @ (system.D @ Phi))
    n = len(omega)
    assert all(len(coords[i][0]) == n for i in range(n))
    assert np.all(radius == 4.0 * n * np.finfo(float).eps
                  * omega.max() ** 2 / np.abs(guess))
    dense = dense_eigenvalues(system)
    guess = guess[np.lexsort((guess.real, guess.imag))]
    # measured 9.0e-16
    assert np.abs(guess - dense).max() <= 1e-13 * np.abs(dense).max()


def test_dense_spectrum_footprint():
    """The spectrum holds the dense K and M of the undamped modes' ``eigh``,
    which overwrites them, LAPACK's workspace and the sparse pencil whose
    K and M they are, but no 2n x 2n generator: refining a value holds only
    sparse factors and vectors."""
    import tracemalloc

    system = build(h=1.0 / 12.0)
    n = system.n_free
    tracemalloc.start()
    try:
        pencil_eigenvalues(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # measured 4.18 x 8 n^2 bytes at n = 576: K and M, which eigh
    # overwrites, the 2 n^2 doubles of its divide-and-conquer workspace and
    # the pencil; the bound leaves 5 %
    assert peak <= 4.4 * 8 * n ** 2


def test_dense_spectrum_refuses_non_finite_generator(monkeypatch):
    # a non-finite undamped mode makes a non-finite guess, which is
    # refused before any P(sigma) is factored
    modes = spectral._undamped_modes

    def with_nan(pencil):
        omega, Phi = modes(pencil)
        omega[3] = np.nan
        return omega, Phi

    def refused(*args):
        raise AssertionError("P(sigma) factored")

    monkeypatch.setattr(spectral, "_undamped_modes", with_nan)
    monkeypatch.setattr(spectral._Pencil, "factor", refused)
    with pytest.raises(SolverError) as info:
        pencil_eigenvalues(build())
    assert info.value.invariant == "guess-finite"


@pytest.mark.parametrize("name", ["K", "M"])
def test_spd_root_factors_its_matrix(name):
    matrix = getattr(build(h=0.125), name)
    F = spectral._spd_root(matrix)
    # measured 3.9e-15 for K and 5.0e-16 for M
    assert abs(F @ F.T - matrix).max() <= 1e-14 * abs(matrix).max()


def test_step_factor_keeps_no_cached_l_and_u(monkeypatch):
    """The step operator's factor, kept by ``simulate`` for every step, is
    made once and never read: it holds no CSC copies of L and U, which
    scipy caches once either is read, and it has the bits of the checked
    factor of the same matrix."""
    import tracemalloc

    from platedecay import dynamics

    system = build(h=1.0 / 24.0)
    u0, v0 = np.zeros(system.n_free), np.ones(system.n_free)
    kept, factor = [], spectral._symmetric_lu

    def recorded(matrix, pivot):
        kept.append(factor(matrix, pivot))
        return kept[-1]

    monkeypatch.setattr(dynamics, "_symmetric_lu", recorded)
    dynamics.simulate(system, u0, v0, dt=1e-3, T=1e-3)  # first-call costs
    kept.clear()
    tracemalloc.start()
    try:  # what outlives the run is the kept factor
        dynamics.simulate(system, u0, v0, dt=1e-3, T=1e-3)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # measured 5.3 kB, and 3.5 MB once the factor's L has been read
    assert held <= 100_000
    lu, = kept
    checked = spectral._spd_checked(
        system.M + 5e-4 * system.D + 2.5e-7 * system.K)
    for part in ("L", "U"):
        got, want = getattr(lu, part), getattr(checked, part)
        for array in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, array), getattr(want, array))
    assert np.array_equal(lu.perm_r, checked.perm_r)


def test_pencil_factor_backward_stable(monkeypatch):
    """The N and H solves with each P(i omega) of a sweep over the suggested
    frequencies and every in-band eigenfrequency at h = 1/8, by the
    pencil's factor on its permuted pattern, against P(i omega) assembled
    from K, M and D in their own order."""
    system = build(h=0.125)
    lam, _ = pencil_eigenvalues(system)
    band = resolved_band(lam)
    freqs = lam.imag
    omegas = np.union1d(suggest_sweep_omegas(lam, band),
                        freqs[(freqs >= band[0]) & (freqs <= band[1])])
    rng, worst, pivots = np.random.default_rng(0), [0.0], set()
    factor = spectral._Pencil.factor

    def checked(pencil, s, pivot):
        solve = factor(pencil, s, pivot)
        pivots.add(pivot)
        A = sp.csr_matrix(system.K + s * system.D + (s * s) * system.M)
        b = [1.0, 1j] @ rng.standard_normal((2, A.shape[0]))
        for trans, op, norm in (
                ("N", A, abs(A).sum(axis=1).max()),
                ("H", A.conj().T, abs(A).sum(axis=0).max())):
            x = solve(b, trans=trans)
            worst.append(np.abs(b - op @ x).max()
                         / (norm * np.abs(x).max() + np.abs(b).max()))
        return solve

    monkeypatch.setattr(spectral._Pencil, "factor", checked)
    resolvent_sweep(system, omegas)
    assert pivots == {0.1} and len(worst) == 1 + 2 * len(omegas)
    assert max(worst) <= 1e-14  # measured 5.7e-16 in the infinity norm


def test_pencil_ordering_keeps_fill(monkeypatch):
    """The pencil factors each P(i omega) of the h = 1/8 sweep on the
    ordering of its K check, which is the minimum-degree ordering of that
    P(i omega) itself, and with the same pivot rows it stores as many
    entries for L and U as that P(i omega)'s own factor."""
    system = build(h=0.125)
    lam, _ = pencil_eigenvalues(system)
    omegas = suggest_sweep_omegas(lam, resolved_band(lam))
    factors, factor = [], spectral._symmetric_lu

    def kept(matrix, pivot, ordered=False):
        lu = factor(matrix, pivot, ordered)
        if ordered:
            factors.append(lu)
        return lu

    monkeypatch.setattr(spectral, "_symmetric_lu", kept)
    resolvent_sweep(system, omegas)
    pencil = system.pencil
    assert len(factors) == len(omegas)
    same, fill, own_fill = 0, 0, 0
    for w, lu in zip(omegas, factors):
        own = factor(system.K - (w * w) * system.M + (1j * w) * system.D,
                     0.1)
        assert np.array_equal(own.perm_c, pencil._at)
        if np.array_equal(own.perm_r[pencil._order], lu.perm_r):
            same += 1
            assert lu.nnz == own.nnz
        fill, own_fill = fill + lu.nnz, own_fill + own.nnz
    # measured: the same pivot rows at 95 of 100 frequencies; at the other
    # five (omega 8.1e3-8.8e3, 68-99 pivots off the diagonal) the fill
    # differs by -1.4 % to +2.1 %, and over the sweep by 0.03 %
    assert same >= 0.9 * len(omegas)
    assert abs(fill - own_fill) <= 1e-3 * own_fill


def test_pencil_pattern_is_the_union():
    """A damping entry outside K's pattern (D couples the ends of a chain
    whose K and M couple only neighbours) is factored and solved."""
    n = 12
    K = sp.diags([-np.ones(n - 1), 2.5 * np.ones(n), -np.ones(n - 1)],
                 [-1, 0, 1], format="csr")
    M = sp.identity(n, format="csr")
    v = np.zeros(n)
    v[[0, -1]] = 1.0
    D = sp.csr_matrix(np.outer(v, v))
    pencil = spectral._Pencil(SimpleNamespace(K=K, M=M, D=D))
    c = [1.0, 1j] @ np.random.default_rng(0).standard_normal((2, n))
    for s, b in ((1e-3, c.real), (0.7j, c), (0.3 + 1.1j, c)):
        A = (K + s * D + (s * s) * M).toarray()
        for trans, op in (("N", A), ("H", A.conj().T)):
            x = pencil.factor(s, 0.1)(b, trans=trans)
            assert np.abs(b - op @ x).max() <= 1e-14 * (
                np.abs(op).sum(axis=1).max() * np.abs(x).max()
                + np.abs(b).max())


def test_one_factorization_recipe(monkeypatch):
    """Every factorization the package makes is ``splu`` in symmetric mode
    with relaxed supernodes of at most two columns and a diagonal pivot
    threshold of 0 (definite) or 0.1 (indefinite), on a minimum-degree
    ordering of A' + A, or for each P(s) of the pencil on the ordering of
    the pencil's K check, which it keeps (``NATURAL``): no dense Cholesky
    (but the one of M inside LAPACK's ``eigh``, below the dense limit), no
    ``spsolve``, no default LU and no default relaxation.  Each stage
    factors each of its matrices once, and K and M are checked once per
    system: by its pencil, whose K and M give the undamped modes, on the
    first stage that reads it."""
    import scipy.sparse.linalg as spla

    from platedecay.assembly import solve_static
    from platedecay.dynamics import (boundary_bump_data, eigenpacket_data,
                                     simulate)

    calls, splu = [], spla.splu

    def recorded(matrix, *args, **kwargs):
        calls.append((args, kwargs))
        return splu(matrix, *args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("a second factorization recipe")

    patches = {"splu": recorded, "spsolve": refused, "cholesky": refused}
    modules = [spla, sla, np.linalg] + [
        module for name, module in sys.modules.items()
        if name.split(".")[0] == "platedecay"]
    for module in modules:
        for name, patch in patches.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, patch)

    system = build()
    stages = {  # name: (stage, its splu calls, those of the pencil's P(s))
        # the lift's interior K block; K, M and the step operator
        "bump": (lambda: simulate(system, *boundary_bump_data(system),
                                  dt=1e-2, T=0.05), 4, 0),
        # the system's pencil, built here, checks K and M for the undamped
        # modes; K, M and the step operator
        "eigenpacket": (lambda: simulate(system, *eigenpacket_data(system),
                                         dt=1e-2, T=0.05), 5, 0),
        # one P(sigma) per refined value (27 here)
        "all": (lambda: pencil_eigenvalues(system), 27, 27),
        # P(s)
        "count": (lambda: pencil_eigenvalues(system, count=6), 1, 1),
        # P(i omega) per frequency
        "sweep": (lambda: resolvent_sweep(system, [0.0, 3.0, 40.0]), 3, 3),
        "static": (lambda: solve_static(system, np.ones(system.n_free)), 1,
                   0),
    }
    recipe = {"relax": 2, "options": {"SymmetricMode": True}}
    for name, (stage, count, pencil) in stages.items():
        before = len(calls)
        stage()
        assert len(calls) - before == count, name
        orders = [kwargs.get("permc_spec") for _, kwargs in calls[before:]]
        assert orders.count("NATURAL") == pencil, name
        assert orders.count("MMD_AT_PLUS_A") == count - pencil, name
    for args, kwargs in calls:
        assert not args
        assert kwargs in ({**recipe, "permc_spec": order,
                           "diag_pivot_thresh": pivot}
                          for order in ("MMD_AT_PLUS_A", "NATURAL")
                          for pivot in (0.0, 0.1))


def norm_at(system, omega):
    """The sweep's resolvent norm at one frequency."""
    return resolvent_sweep(system, [omega])[0, 1]


def dense_resolvent_norm(system, omega):
    """Oracle: 1 / sigma_min(i omega I - G), G the generator in the energy
    coordinates of the Cholesky factors of K and M."""
    G = oracle_generator(system)
    svals = np.linalg.svd(1j * omega * np.eye(len(G)) - G, compute_uv=False)
    return 1.0 / svals[-1]


def test_sparse_norm_matches_dense_svd():
    system = build()
    lam, _ = pencil_eigenvalues(system)
    peaks = np.sort(lam.imag[lam.imag > 1e-6])[[0, 5, 20]]
    for omega in np.concatenate([[0.0, 3.0, 40.0, 700.0], peaks]):
        value = norm_at(system, omega)
        assert abs(value - dense_resolvent_norm(system, omega)) <= 1e-8 * value


def residual_rule_norms(system, omegas):
    """Oracle: the resolvent norms by the Lanczos loop that stops only on
    ARPACK's residual test b |s_k| <= eps theta_1 (or at 2n steps), from the
    package's start vector and the pencil's factor."""
    pencil = system.pencil
    K, M, D, n = pencil.K, pencil.M, pencil.D, pencil.n

    def e_prod(x):
        return np.concatenate([K @ x[:n], M @ x[n:]])

    norms = []
    for omega in omegas:
        w = abs(float(omega))
        solve = pencil.factor(1j * w, 0.1)

        def apply(f):
            f1, f2 = f[:n], f[n:]
            u = solve(M @ (f2 + 1j * w * f1) + D @ f1)
            v = 1j * w * u - f1
            y = solve(D @ u - M @ (1j * w * u + v), trans="H")
            return np.concatenate([y, 1j * w * y + u])

        x = pencil.v0.astype(complex)
        ex = e_prod(x)
        Q, EQ, alpha, beta = [], [], [], []
        b = np.sqrt(np.einsum("i,i", x.conj(), ex).real)
        while True:
            Q.append(x / b), EQ.append(ex / b)
            x = apply(Q[-1])
            basis, e_basis, a = np.array(Q), np.array(EQ), 0.0
            for _ in range(2):
                c = np.einsum("ij,j->i", e_basis.conj(), x)
                x -= np.einsum("i,ij->j", c, basis)
                a += c[-1].real
            alpha.append(a)
            ex = e_prod(x)
            b = np.sqrt(max(np.einsum("i,i", x.conj(), ex).real, 0.0))
            theta, s = sla.eigh_tridiagonal(alpha, beta)
            if (b * abs(s[-1, -1]) <= np.finfo(float).eps * theta[-1]
                    or len(Q) == 2 * n):
                norms.append(np.sqrt(theta[-1]))
                break
            beta.append(b)
    return np.array(norms)


def test_ritz_value_rule_keeps_norms_in_fewer_solves(monkeypatch):
    # stopping on the converged Ritz value instead of its vector changes no
    # norm beyond rounding, and saves solves
    system = build(h=0.125)
    lam, _ = pencil_eigenvalues(system)
    omegas = np.concatenate([suggest_sweep_omegas(lam, resolved_band(lam)),
                             np.logspace(-1, 4, 20)])
    solves, factor = [0], spectral._symmetric_lu

    class Counted:
        def __init__(self, lu):
            self.lu = lu

        def __getattr__(self, name):
            return getattr(self.lu, name)

        def solve(self, *args, **kwargs):
            solves[0] += 1
            return self.lu.solve(*args, **kwargs)

    monkeypatch.setattr(spectral, "_symmetric_lu",
                        lambda *args, **kwargs: Counted(factor(*args,
                                                               **kwargs)))
    sweep = resolvent_sweep(system, omegas)[:, 1]
    sweep_solves, solves[0] = solves[0], 0
    oracle = residual_rule_norms(system, omegas)
    assert np.all(np.abs(sweep - oracle) <= 1e-14 * oracle)
    assert sweep_solves < solves[0]


def test_resolvent_refuses_indefinite_energy():
    with pytest.raises(SolverError) as info:
        resolvent_sweep(indefinite_energy(), [1.0, 2.0])
    assert info.value.invariant == "energy-pd"


def test_resolvent_infinite_when_factor_exactly_singular():
    system = scalar_system(1.0, 0.0, 4.0)  # K - omega^2 M = 0 at omega = 2
    assert norm_at(system, 2.0) == np.inf
    assert norm_at(system, -2.0) == np.inf


def test_nonconverged_lanczos_raises(monkeypatch):
    monkeypatch.setattr(spectral, "_LANCZOS_STEPS", 1)
    with pytest.raises(SolverError) as info:
        resolvent_sweep(build(h=0.5), [1.0])
    assert info.value.invariant == "sweep-converged"


def test_sweep_matches_dense_svd_at_every_suggested_point():
    # a Lanczos solve that settled on a smaller eigenvalue would show here
    system = build()
    lam, _ = pencil_eigenvalues(system)
    omegas = suggest_sweep_omegas(lam, resolved_band(lam))
    for omega, value in resolvent_sweep(system, omegas):
        assert abs(value - dense_resolvent_norm(system, omega)) <= 1e-8 * value


@pytest.fixture(scope="module")
def beyond_dense_limit():
    system = build(h=1.0 / 48.0)  # 9216 dofs
    assert system.n_free > spectral._DENSE_LIMIT
    return system


def test_sweep_beyond_dense_limit(beyond_dense_limit):
    sweep = resolvent_sweep(beyond_dense_limit, [0.0, 10.0, 100.0])
    assert np.all(np.isfinite(sweep[:, 1])) and np.all(sweep[:, 1] > 0)


def test_dense_limit_refused_before_allocating(beyond_dense_limit):
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(InvalidArgumentError) as info:
            pencil_eigenvalues(beyond_dense_limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.value.invariant == "dense-limit"
    assert peak <= 100_000  # the dense K alone would take 680 MB


def test_dense_limit_counts_dofs(monkeypatch):
    system = build()
    n = system.n_free
    monkeypatch.setattr(spectral, "_DENSE_LIMIT", n)
    assert len(pencil_eigenvalues(system)[0]) == 2 * n
    monkeypatch.setattr(spectral, "_DENSE_LIMIT", n - 1)
    with pytest.raises(InvalidArgumentError) as info:
        pencil_eigenvalues(system)
    assert info.value.invariant == "dense-limit"
    assert f"refused for {n} dofs" in str(info.value)


def test_resolvent_finite_at_origin():
    value = norm_at(build(), 0.0)
    assert np.isfinite(value) and value > 0


def test_resolvent_symmetry_in_omega():
    system = build()
    assert norm_at(system, 7.0) == norm_at(system, -7.0)


def test_resolvent_lower_bound_near_eigenvalue():
    system = build(h=0.5)
    lam, _ = pencil_eigenvalues(system)
    weak = lam[np.argmax(lam.real[lam.imag > 1e-6])]
    candidates = lam[lam.imag > 1e-6]
    weak = candidates[np.argmax(candidates.real)]
    omega = weak.imag
    norm = norm_at(system, omega)
    dist = np.min(np.abs(1j * omega - lam))
    assert norm >= 1.0 / (2.0 * dist)
    # consistency at the peak: norm >= (1 - 1e-6) / (-Re lambda)
    assert norm >= (1 - 1e-6) / (-weak.real)


def test_resolvent_infinite_on_eigenvalue_of_undamped_system():
    mat0 = PlateMaterial(mu=0.3, rho=1.0, inertia=1.0, d1=0.0, d2=0.0)
    system = build(mat0, gains=[0, 0, 0, 0], h=0.5)
    lam, _ = pencil_eigenvalues(system)
    omega = float(np.sort(lam.imag[lam.imag > 1e-9])[0])
    assert norm_at(system, omega) > 1e10


def test_sweep_matches_pointwise_norms():
    system = build(h=0.5)
    omegas = np.array([0.5, 2.0, 9.0])
    sweep = resolvent_sweep(system, omegas)
    for omega, value in sweep:
        assert abs(value - norm_at(system, omega)) < 1e-8 * value


def test_growth_fit_synthetic():
    w = np.logspace(0, 2, 50)
    assert abs(growth_fit(np.stack([w, w ** 2], 1), (1, 100))[0] - 2) < 1e-9
    theta, r2 = growth_fit(np.stack([w, np.full_like(w, 3.0)], 1), (1, 100))
    assert abs(theta) < 1e-12 and r2 == 1.0


# Envelope cases: 24 log-spaced points over 24 log-spaced bins put one
# point in each bin; an extra point at gap_point(k) lies in bin k, before
# point k.
GRID = np.logspace(0, 2, 24)


def gap_point(k, lo=0.0, hi=2.0):
    return 10.0 ** (lo + (hi - lo) * 0.5 * (k / 24 + k / 23))


def test_growth_fit_front_drops_dip():
    v = GRID ** 2
    v[12] *= 0.5  # below its left neighbour: off the running-maximum front
    slope, r2 = growth_fit(np.stack([GRID, v], 1), (1, 100))
    assert abs(slope - 2.0) < 1e-12 and abs(r2 - 1.0) < 1e-12


def test_growth_fit_keeps_bin_peak():
    w_gap = gap_point(12)
    v_gap = 0.5 * (GRID[11] ** 2 + w_gap ** 2)  # above bin 11, below w^2
    w = np.insert(GRID, 12, w_gap)
    v = np.insert(GRID ** 2, 12, v_gap)
    slope, r2 = growth_fit(np.stack([w, v], 1), (1, 100))
    assert abs(slope - 2.0) < 1e-12 and abs(r2 - 1.0) < 1e-12


def test_growth_fit_uses_local_maxima():
    # peaks on w^2 at every 13th point, flanks at half of w^2 between them;
    # the bins of all 40 points include bins of flank points only
    w = np.logspace(0, 2, 40)
    v = 0.5 * w ** 2
    v[::13] = w[::13] ** 2
    slope, r2 = growth_fit(np.stack([w, v], 1), (1, 100))
    assert abs(slope - 2.0) < 1e-12 and abs(r2 - 1.0) < 1e-12


def test_branch_fit_keeps_bin_minimum():
    w = 10.0 * GRID
    w_gap = gap_point(12, 1.0, 3.0)
    d_gap = np.sqrt(w[11] ** -2.0 * w_gap ** -2.0)  # off the branch
    lam = np.insert(-w ** -2.0 + 1j * w, 12, -d_gap + 1j * w_gap)
    slope, r2 = damping_branch_fit(lam, (10, 1000))
    assert abs(slope + 2.0) < 1e-12 and abs(r2 - 1.0) < 1e-12


def test_growth_fit_band_validation():
    w = np.logspace(0, 2, 50)
    sweep = np.stack([w, w], axis=1)
    with pytest.raises(InvalidArgumentError):
        growth_fit(sweep, (10.0, 10.0))
    with pytest.raises(InvalidArgumentError):
        growth_fit(sweep, (99.0, 100.0))  # fewer than 10 points


def test_branch_fit_synthetic():
    w = np.logspace(1, 3, 40)
    lam = -w ** -2.0 + 1j * w
    slope, r2 = damping_branch_fit(lam, (10, 1000))
    assert abs(slope + 2.0) < 1e-9 and r2 > 1 - 1e-9

    lam_flat = -np.full(40, 0.25) + 1j * w
    slope, r2 = damping_branch_fit(lam_flat, (10, 1000))
    assert abs(slope) < 1e-12


def test_branch_fit_insufficient_data():
    lam = -np.ones(4) + 1j * np.array([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(InsufficientDataError):
        damping_branch_fit(lam, (0.5, 10.0))


def _refused_eigensolve(monkeypatch):
    def failing(*args, **kwargs):
        raise RuntimeError("ARPACK error -1: no convergence")

    monkeypatch.setattr(spectral, "eigs", failing)
    build(h=0.5).pencil.eigenvalues(4, 1e-3)


@pytest.mark.parametrize("invariant, run", [
    ("band-data", lambda mp: resolved_band(
        -0.1 + 1j * np.arange(1.0, 12.0))),
    ("branch-points", lambda mp: damping_branch_fit(
        -0.1 + 1j * np.arange(1.0, 10.0), (0.5, 20.0))),
    ("branch-bins", lambda mp: damping_branch_fit(
        -np.linspace(0.1, 0.2, 10) + 1j * np.repeat([10.0, 100.0], 5),
        (1.0, 1000.0))),
    ("eigensolver", _refused_eigensolve),
    # d1 = d2 = 30 at h = 1/8: the small root -29.1985 of an overdamped
    # mode refines to -29.5974, nearer another guess.  The guesses alone
    # would read another 10th eigenfrequency and bin minimum than the dense
    # spectrum's, and a branch slope 0.5 % off
    ("eigenvalue-refined", lambda mp: pencil_eigenvalues(build(
        PlateMaterial(mu=0.3, rho=1.0, inertia=1.0, d1=30.0, d2=30.0),
        h=0.125))),
    # d1 = d2 = 100 and 1e10 at h = 1/8: modes coupled beyond half their
    # gap form clusters of 11 and 69 modes.  At 1e10 every guess is real,
    # where the dense spectrum has 196 oscillatory pairs
    *(pytest.param("guess-decoupled", lambda mp, d=d: pencil_eigenvalues(
        build(PlateMaterial(mu=0.3, rho=1.0, inertia=1.0, d1=d, d2=d),
              h=0.125)), id=f"guess-decoupled-d{d:g}")
      for d in (100.0, 1e10)),
    # d1 = 1e300 at h = 1/4: c^2 / 4 overflows in the overdamped guesses
    ("guess-finite", lambda mp: pencil_eigenvalues(build(
        PlateMaterial(mu=0.3, rho=1.0, inertia=1.0, d1=1e300, d2=1.0)))),
    # d1 = 1e300 puts entries near 4e301 in D, so i omega D overflows at
    # omega = 1e10 while K and M stay finite
    ("pencil-finite", lambda mp: resolvent_sweep(build(PlateMaterial(
        mu=0.3, rho=1.0, inertia=1.0, d1=1e300, d2=1.0)), [1e10])),
])
def test_frequency_side_invariants(monkeypatch, invariant, run):
    with pytest.raises((InsufficientDataError, InvalidArgumentError,
                        SolverError)) as info:
        run(monkeypatch)
    assert info.value.invariant == invariant


def test_resolved_band_rule():
    lam, _ = pencil_eigenvalues(build())
    lo, hi = resolved_band(lam)
    freqs = np.sort(lam.imag[lam.imag > 1e-9])
    assert lo == freqs[9]
    assert abs(hi - (2.0 / 3.0) * freqs[-1]) < 1e-12


def test_suggest_sweep_omegas_includes_peaks():
    lam, _ = pencil_eigenvalues(build(h=0.5))
    band = resolved_band(lam)
    omegas = suggest_sweep_omegas(lam, band, n_grid=20)
    assert np.all(np.isin(lam.imag[spectral._sweep_peaks(lam, band)], omegas))
    in_band = lam[(lam.imag >= band[0]) & (lam.imag <= band[1])]
    weak = in_band[np.argmax(in_band.real)]
    assert np.min(np.abs(omegas - weak.imag)) < 1e-12
    assert np.all(np.diff(omegas) > 0)


@pytest.mark.parametrize("band", [(11.443267348584394, 13917.634509495883),
                                  (11.44326734858471, 13917.634509495852)])
def test_suggest_sweep_omegas_pinned_to_band_ends(band):
    # the h = 1/8 band under 1 and 2 BLAS threads; a bare log grid starts
    # below the second and ends above the first
    omegas = suggest_sweep_omegas(np.array([], dtype=complex), band)
    assert omegas[0] == band[0] and omegas[-1] == band[1]


def test_growth_fit_keeps_smallest_frequency():
    w = 5.0 * np.logspace(0, 2, 10)
    assert np.logspace(np.log10(w[0]), np.log10(w[-1]), 11)[0] > w[0]
    v = w ** 2
    v[0] *= 2.0
    slope, _ = growth_fit(np.stack([w, v], 1), (5, 500))
    assert abs(slope - np.polyfit(np.log(w), np.log(v), 1)[0]) < 1e-12


THREADED = """
import damped_square
from platedecay import spectral as S
system = damped_square.build(h=0.125)
lam, _ = S.pencil_eigenvalues(system)
band = S.resolved_band(lam)
sweep = S.resolvent_sweep(system, S.suggest_sweep_omegas(lam, band))
print(repr(S.growth_fit(sweep, band)[0]))
lam, _ = S.pencil_eigenvalues(damped_square.build(h=1.0 / 12.0))
print(repr(float(lam.real.max())))
print(repr(float(S.damping_branch_fit(lam, S.resolved_band(lam))[0])))
"""


def test_theta_independent_of_blas_threads():
    # the band ends move by ulps with the BLAS thread count; the fit must
    # not.  The refined abscissa and branch slope at h = 1/12 agree to
    # 1e-9 relative (the dense values differed by 3e-7)
    path = os.pathsep.join([str(Path(spectral.__file__).resolve().parents[1]),
                            str(Path(__file__).resolve().parent)])
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        out = subprocess.run([sys.executable, "-c", THREADED], env=env,
                             capture_output=True, text=True, check=True)
        runs.append([float(line) for line in out.stdout.split()])
    (theta1, abscissa1, slope1), (theta2, abscissa2, slope2) = runs
    assert abs(theta1 - theta2) <= 1e-8
    assert abs(abscissa1 - abscissa2) <= 1e-9 * abs(abscissa1)
    assert abs(slope1 - slope2) <= 1e-9 * abs(slope1)
