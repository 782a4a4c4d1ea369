from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence

from platedecay.assembly import assemble, build_dof_map
from platedecay import spectral
from platedecay.errors import (InsufficientDataError, InvalidArgumentError,
                               SolverError)
from platedecay.geometry import unit_square_domain
from platedecay.meshing import triangulate
from platedecay.plate_forms import PlateMaterial
from platedecay.spectral import (SpectrumReport, damping_branch_fit,
                                 first_order_matrices, growth_fit,
                                 pencil_eigenvalues, resolved_band,
                                 resolvent_norm, resolvent_sweep,
                                 suggest_sweep_omegas)

DOM = unit_square_domain(gamma0_edges=(0, 3), corner_gains=(0, 0, 1.0, 0))
DAMPED = PlateMaterial(mu=0.3, rho=1.0, inertia=1.0, d1=1.0, d2=1.0)


def build(mat=DAMPED, h=0.25, gains=None):
    mesh = triangulate(DOM, h)
    dofs = build_dof_map(mesh, 2)
    return assemble(mesh, dofs, mat, gains=gains, j_variant=2)


def scalar_system(m, d, k):
    return SimpleNamespace(K=sp.csr_matrix(np.array([[float(k)]])),
                           M=sp.csr_matrix(np.array([[float(m)]])),
                           D=sp.csr_matrix(np.array([[float(d)]])))


def test_scalar_surrogate_critically_damped():
    report = pencil_eigenvalues(scalar_system(1.0, 2.0, 1.0))
    assert np.allclose(report.eigenvalues, [-1.0, -1.0], atol=1e-9)
    assert report.zero_in_resolvent


def test_undamped_spectrum_purely_imaginary():
    mat0 = PlateMaterial(mu=0.3, rho=1.0, inertia=1.0, d1=0.0, d2=0.0)
    system = build(mat0, gains=[0, 0, 0, 0])
    report = pencil_eigenvalues(system)
    lam = report.eigenvalues
    assert np.max(np.abs(lam.real)) < 1e-8 * np.max(np.abs(lam))
    w2 = sla.eigh(system.K.toarray(), system.M.toarray(),
                  eigvals_only=True)
    freqs = np.sort(lam.imag[lam.imag > 0])
    assert np.allclose(freqs, np.sqrt(w2), rtol=1e-7)


def test_damped_spectrum_strictly_stable():
    report = pencil_eigenvalues(build())
    assert report.spectral_abscissa < 0
    assert np.min(np.abs(report.eigenvalues)) > 0
    assert report.zero_in_resolvent


def test_spectrum_conjugate_symmetric():
    lam = pencil_eigenvalues(build()).eigenvalues
    lam_sorted = lam[np.lexsort((lam.real, lam.imag))]
    conj_sorted = lam.conj()[np.lexsort((lam.conj().real, lam.conj().imag))]
    assert np.allclose(lam_sorted, conj_sorted, atol=1e-7 * np.abs(lam).max())


def test_count_eigenvalues_nearest_shift_match_dense():
    system = build()
    dense = pencil_eigenvalues(system).eigenvalues
    k = 6
    report = pencil_eigenvalues(system, count=k)
    nearest = dense[np.argsort(np.abs(dense - 1e-3))[:k]]
    key = lambda lam: lam[np.lexsort((lam.real, lam.imag))]
    assert np.allclose(key(report.eigenvalues), key(nearest), rtol=1e-8,
                       atol=0.0)
    assert report.spectral_abscissa < 0 and report.zero_in_resolvent


def test_count_eigenvalues_reproducible():
    system = build()
    first = pencil_eigenvalues(system, count=6).eigenvalues
    second = pencil_eigenvalues(system, count=6).eigenvalues
    assert first.tobytes() == second.tobytes()


def dense_resolvent_norm(system, omega):
    """Oracle: 1 / sigma_min(i omega I - G), G the generator in the energy
    coordinates of the Cholesky factors of K and M."""
    E, A = first_order_matrices(system)
    L = sla.block_diag(sla.cholesky(system.K.toarray(), lower=True),
                       sla.cholesky(system.M.toarray(), lower=True))
    G = sla.solve_triangular(L, A.toarray(), lower=True)
    G = sla.solve_triangular(L, G.T, lower=True).T
    svals = np.linalg.svd(1j * omega * np.eye(len(G)) - G, compute_uv=False)
    return 1.0 / svals[-1]


def test_sparse_norm_matches_dense_svd():
    system = build()
    lam = pencil_eigenvalues(system).eigenvalues
    peaks = np.sort(lam.imag[lam.imag > 1e-6])[[0, 5, 20]]
    for omega in np.concatenate([[0.0, 3.0, 40.0, 700.0], peaks]):
        value = resolvent_norm(system, omega)
        assert abs(value - dense_resolvent_norm(system, omega)) <= 1e-8 * value


def test_resolvent_refuses_indefinite_energy():
    system = build(h=0.5)
    w2 = sla.eigh(system.K.toarray(), system.M.toarray(), eigvals_only=True)
    indefinite = SimpleNamespace(K=system.K - 0.5 * (w2[0] + w2[1]) * system.M,
                                 M=system.M, D=system.D)
    for call in (lambda: resolvent_norm(indefinite, 1.0),
                 lambda: resolvent_sweep(indefinite, [1.0, 2.0])):
        with pytest.raises(SolverError) as info:
            call()
        assert info.value.invariant == "energy-pd"


def test_resolvent_infinite_when_factor_exactly_singular():
    system = scalar_system(1.0, 0.0, 4.0)  # K - omega^2 M = 0 at omega = 2
    assert resolvent_norm(system, 2.0) == np.inf
    assert resolvent_norm(system, -2.0) == np.inf


def test_nonconverged_lanczos_raises(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.array([]),
                                  np.array([]))
    monkeypatch.setattr(spectral, "eigsh", no_convergence)
    with pytest.raises(SolverError) as info:
        resolvent_sweep(build(h=0.5), [1.0])
    assert info.value.invariant == "sweep-converged"


def test_sweep_beyond_dense_limit():
    system = build(h=1.0 / 24.0)
    assert 2 * system.n_free > 4096
    sweep = resolvent_sweep(system, [0.0, 10.0, 100.0])
    assert np.all(np.isfinite(sweep[:, 1])) and np.all(sweep[:, 1] > 0)


def test_resolvent_finite_at_origin():
    value = resolvent_norm(build(), 0.0)
    assert np.isfinite(value) and value > 0


def test_resolvent_symmetry_in_omega():
    system = build()
    assert resolvent_norm(system, 7.0) == resolvent_norm(system, -7.0)


def test_resolvent_lower_bound_near_eigenvalue():
    system = build(h=0.5)
    report = pencil_eigenvalues(system)
    lam = report.eigenvalues
    weak = lam[np.argmax(lam.real[lam.imag > 1e-6])]
    candidates = lam[lam.imag > 1e-6]
    weak = candidates[np.argmax(candidates.real)]
    omega = weak.imag
    norm = resolvent_norm(system, omega)
    dist = np.min(np.abs(1j * omega - lam))
    assert norm >= 1.0 / (2.0 * dist)
    # consistency at the peak: norm >= (1 - 1e-6) / (-Re lambda)
    assert norm >= (1 - 1e-6) / (-weak.real)


def test_resolvent_infinite_on_eigenvalue_of_undamped_system():
    mat0 = PlateMaterial(mu=0.3, rho=1.0, inertia=1.0, d1=0.0, d2=0.0)
    system = build(mat0, gains=[0, 0, 0, 0], h=0.5)
    lam = pencil_eigenvalues(system).eigenvalues
    omega = float(np.sort(lam.imag[lam.imag > 1e-9])[0])
    assert resolvent_norm(system, omega) > 1e10


def test_sweep_matches_pointwise_norms():
    system = build(h=0.5)
    omegas = np.array([0.5, 2.0, 9.0])
    sweep = resolvent_sweep(system, omegas)
    for omega, value in sweep:
        assert abs(value - resolvent_norm(system, omega)) < 1e-8 * value


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
    rep = SpectrumReport(eigenvalues=lam, spectral_abscissa=float(max(lam.real)),
                         zero_in_resolvent=True)
    slope, r2 = damping_branch_fit(rep, (10, 1000))
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
    rep = SpectrumReport(eigenvalues=lam, spectral_abscissa=float(max(lam.real)),
                         zero_in_resolvent=True)
    slope, r2 = damping_branch_fit(rep, (10, 1000))
    assert abs(slope + 2.0) < 1e-9 and r2 > 1 - 1e-9

    lam_flat = -np.full(40, 0.25) + 1j * w
    rep = SpectrumReport(eigenvalues=lam_flat, spectral_abscissa=-0.25,
                         zero_in_resolvent=True)
    slope, r2 = damping_branch_fit(rep, (10, 1000))
    assert abs(slope) < 1e-12


def test_branch_fit_insufficient_data():
    lam = -np.ones(4) + 1j * np.array([1.0, 2.0, 3.0, 4.0])
    rep = SpectrumReport(eigenvalues=lam, spectral_abscissa=-1.0,
                         zero_in_resolvent=True)
    with pytest.raises(InsufficientDataError):
        damping_branch_fit(rep, (0.5, 10.0))


def test_resolved_band_rule():
    report = pencil_eigenvalues(build())
    lo, hi = resolved_band(report)
    freqs = np.sort(report.eigenvalues.imag[report.eigenvalues.imag > 1e-9])
    assert lo == freqs[9]
    assert abs(hi - (2.0 / 3.0) * freqs[-1]) < 1e-12


def test_suggest_sweep_omegas_includes_peaks():
    report = pencil_eigenvalues(build(h=0.5))
    band = resolved_band(report)
    omegas = suggest_sweep_omegas(report, band, n_grid=20, n_peaks=10)
    lam = report.eigenvalues
    in_band = lam[(lam.imag >= band[0]) & (lam.imag <= band[1])]
    weak = in_band[np.argmax(in_band.real)]
    assert np.min(np.abs(omegas - weak.imag)) < 1e-12
    assert np.all(np.diff(omegas) > 0)


def test_first_order_matrices_shapes():
    system = build(h=0.5)
    E, A = first_order_matrices(system)
    n = system.n_free
    assert E.shape == (2 * n, 2 * n) and A.shape == (2 * n, 2 * n)
    assert abs(E - E.T).max() == 0.0
