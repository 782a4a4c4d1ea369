import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from platedecay._lsq import lsq_line
from platedecay.dynamics import (DecayFit, EnergyTrace, boundary_bump_data,
                                 decay_fit, dissipation_residual,
                                 eigenpacket_data, energy_drift, simulate)
from platedecay.errors import (InsufficientDataError, InvalidArgumentError,
                               SolverError)
from platedecay.plate_forms import PlateMaterial

from damped_square import DAMPED, build

UNDAMPED = PlateMaterial(mu=0.3, rho=1.0, inertia=1.0, d1=0.0, d2=0.0)


def test_zero_initial_data_stays_zero():
    system = build(DAMPED)
    n = system.n_free
    trace = simulate(system, np.zeros(n), np.zeros(n), dt=1e-2, T=0.1)
    assert np.all(trace.energy == 0.0)
    assert dissipation_residual(trace) == 0.0


def test_argument_validation():
    system = build(DAMPED)
    n = system.n_free
    z = np.zeros(n)
    with pytest.raises(InvalidArgumentError):
        simulate(system, z, z, dt=0.0, T=1.0)
    with pytest.raises(InvalidArgumentError):
        simulate(system, z, z, dt=1e-2, T=1e-3)
    with pytest.raises(InvalidArgumentError):
        simulate(system, np.zeros(3), z, dt=1e-2, T=1.0)


def test_undamped_midpoint_conserves_energy():
    system = build(UNDAMPED, gains=[0, 0, 0, 0])
    u0, v0 = boundary_bump_data(system)
    trace = simulate(system, u0, v0, dt=1e-3, T=2.0)
    drift = np.max(np.abs(trace.energy - trace.energy[0])) / trace.energy[0]
    assert drift < 1e-11
    assert dissipation_residual(trace) < 1e-12


def test_damped_midpoint_monotone_and_balanced():
    system = build(DAMPED)
    u0, v0 = boundary_bump_data(system)
    trace = simulate(system, u0, v0, dt=1e-3, T=1.0)
    assert np.all(np.diff(trace.energy) <= 1e-12 * trace.energy[0])
    assert dissipation_residual(trace) < 1e-10
    for channel in (trace.diss_d1, trace.diss_d2, trace.diss_corner):
        assert np.all(np.diff(channel) >= -1e-15)
        assert channel[-1] >= 0.0
    # corner gain at (1, 1) is active in this configuration
    assert trace.diss_corner[-1] > 0.0


def test_channel_decomposition_matches_energy_drop():
    system = build(DAMPED)
    u0, v0 = boundary_bump_data(system)
    trace = simulate(system, u0, v0, dt=1e-3, T=1.0)
    drop = trace.energy[0] - trace.energy[-1]
    total = trace.diss_d1[-1] + trace.diss_d2[-1] + trace.diss_corner[-1]
    assert abs(drop - total) / trace.energy[0] < 1e-9


def test_scheme_agreement_second_order():
    # the O(dt^2) statement is checked against a fine-step reference
    system = build(DAMPED)
    u0, v0 = boundary_bump_data(system)

    def final_energy(dt):
        return simulate(system, u0, v0, dt=dt, T=0.4).energy[-1]

    ref = final_energy(5e-4)
    err = [abs(final_energy(dt) - ref) for dt in (8e-3, 4e-3)]
    assert 2.8 < err[0] / err[1] < 5.5  # halving dt quarters the error


def test_undamped_reversibility_by_velocity_flip():
    system = build(UNDAMPED, gains=[0, 0, 0, 0])
    u0, v0 = boundary_bump_data(system)
    v0 = v0 + 0.1 * u0  # nonzero velocity so the flip is meaningful
    fwd = simulate(system, u0, v0, dt=1e-3, T=0.5, snapshot_stride=10 ** 9)
    uT, vT = fwd.snapshots[max(fwd.snapshots)]
    back = simulate(system, uT, -vT, dt=1e-3, T=0.5, snapshot_stride=10 ** 9)
    uB, vB = back.snapshots[max(back.snapshots)]
    scale = np.linalg.norm(u0) + np.linalg.norm(v0)
    assert np.linalg.norm(uB - u0) / scale < 1e-9
    assert np.linalg.norm(vB + v0) / scale < 1e-9


def test_snapshots_recorded_at_stride():
    system = build(DAMPED)
    u0, v0 = boundary_bump_data(system)
    trace = simulate(system, u0, v0, dt=1e-2, T=0.1, snapshot_stride=5)
    assert set(trace.snapshots) == {0, 5, 10}


@pytest.mark.parametrize("T", [1.0, 1e10])  # T / dt = 1e300 and inf
def test_step_count_refused_before_allocating(T):
    system = build(DAMPED, h=0.5)
    z = np.zeros(system.n_free)
    with pytest.raises(InvalidArgumentError) as info:
        simulate(system, z, z, dt=1e-300, T=T)
    assert info.value.invariant == "sim-steps"


@pytest.mark.parametrize("mat, gains", [(DAMPED, None),
                                        (UNDAMPED, [0, 0, 0, 0])])
def test_energy_matches_tracked_state(mat, gains):
    # E is read off the energy coordinates, not off (u, v); both must agree
    system = build(mat, gains=gains)
    u0, v0 = boundary_bump_data(system)
    trace = simulate(system, u0, v0 + 0.1 * u0, dt=1e-3, T=2.0,
                     snapshot_stride=100)
    assert len(trace.snapshots) == 21
    for step, (u, v) in trace.snapshots.items():
        e = 0.5 * (u @ (system.K @ u) + v @ (system.M @ v))
        # measured 2.8e-13 on both runs; 35x margin
        assert abs(trace.energy[step] - e) <= 1e-11 * trace.energy[0]


def test_indefinite_stiffness_refused():
    system = build(DAMPED)
    lam_min = np.linalg.eigvalsh(system.K.toarray())[0]
    system = replace(system, K=(system.K - 2.0 * lam_min
                                * sp.identity(system.n_free)).tocsr())
    u0, v0 = boundary_bump_data(system)
    with pytest.raises(SolverError) as info:
        simulate(system, u0, v0, dt=1e-3, T=0.01)
    assert info.value.invariant == "energy-pd"


def test_dissipation_residual_empty_trace():
    trace = EnergyTrace(times=np.array([]), energy=np.array([]),
                        diss_d1=np.array([]), diss_d2=np.array([]),
                        diss_corner=np.array([]))
    with pytest.raises(InvalidArgumentError):
        dissipation_residual(trace)


@pytest.mark.parametrize("chunk", [1, 7, 1 << 13])
def test_trace_reductions_by_slices(monkeypatch, chunk):
    # the balance residual and the drift reduce the trace slice by slice;
    # each slice size gives the numbers of one pass over the whole trace
    import platedecay.dynamics as dynamics

    rng = np.random.default_rng(0)
    n = 1001
    E = 1.0 + 1e-3 * rng.standard_normal(n)
    d1, d2, dc = np.cumsum(1e-4 * rng.random((3, n)), axis=1)
    trace = EnergyTrace(times=1e-3 * np.arange(n), energy=E, diss_d1=d1,
                        diss_d2=d2, diss_corner=dc)
    monkeypatch.setattr(dynamics, "_CHUNK", chunk)
    resid = np.diff(E) + np.diff(d1 + d2 + dc)
    assert dissipation_residual(trace) == float(np.max(np.abs(resid)) / E[0])
    assert energy_drift(trace) == float(np.max(np.abs(E - E[0])) / E[0])
    E[500] = np.nan  # a NaN is kept, not dropped
    assert np.isnan(dissipation_residual(trace))
    assert np.isnan(energy_drift(trace))


def synthetic_trace(f, t_end=100.0, n=2000):
    t = np.linspace(0.5, t_end, n)
    zeros = np.zeros_like(t)
    return EnergyTrace(times=t, energy=f(t), diss_d1=zeros, diss_d2=zeros,
                       diss_corner=zeros)


def test_decay_fit_exact_power_laws():
    fit = decay_fit(synthetic_trace(lambda t: t ** -1.0), (1.0, 100.0))
    assert abs(fit.alpha - 1.0) < 1e-12
    assert fit.r_squared > 1 - 1e-12
    assert not fit.exponential_regime

    fit = decay_fit(synthetic_trace(lambda t: 5 * t ** -0.5), (1.0, 100.0))
    assert abs(fit.alpha - 0.5) < 1e-12


def test_decay_fit_flags_exponential_regime():
    fit = decay_fit(synthetic_trace(lambda t: np.exp(-t / 10)), (1.0, 100.0))
    assert fit.exponential_regime


def _lstsq_line(x, y):
    """lsq_line as a design matrix solved by lstsq."""
    A = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return float(coef[0]), 1.0 - float(resid @ resid) / ss_tot


def test_lsq_line_matches_lstsq(monkeypatch):
    # the lines a decay_fit window and an _envelope_fit front ask for
    import platedecay.dynamics as dynamics
    import platedecay.spectral as spectral

    lines = []

    def recorded(x, y, **options):
        lines.append((x.copy(), y.copy()))
        return lsq_line(x, y, **options)

    monkeypatch.setattr(dynamics, "lsq_line", recorded)
    monkeypatch.setattr(spectral, "lsq_line", recorded)
    system = build(DAMPED)
    trace = simulate(system, *boundary_bump_data(system), dt=1e-2, T=20.0)
    decay_fit(trace, (5.0, 20.0))
    x = np.geomspace(1.0, 1e3, 400)
    y = x ** 1.1 * (1.0 + 30.0 * np.sin(0.37 * np.arange(400)) ** 40)
    spectral._envelope_fit(x, y, np.log(y))
    assert len(lines) == 4
    for x, y in lines:
        slope, r2 = lsq_line(x, y)
        want_slope, want_r2 = _lstsq_line(x, y)
        assert abs(slope - want_slope) <= 1e-12 * abs(want_slope)
        assert abs(r2 - want_r2) <= 1e-12


def test_lsq_line_needs_two_distinct_x():
    # with a design matrix, lstsq answered a rank-deficient system anyway
    with pytest.raises(InsufficientDataError) as err:
        lsq_line(np.full(5, 2.0), np.arange(5.0))
    assert err.value.invariant == "lsq-points"


def test_simulate_peak_memory():
    # the roots held once: roots_t and R = [F_M, F_K, D], no F_K, F_M, no
    # prescaled right-hand side or step operator, and a step factor without
    # cached L and U.  Measured 7.56 MB at h = 1/24 over five steps (17.98
    # MB with all five root operators and the cache); the bound leaves 15 %
    system = build(DAMPED, h=1.0 / 24.0)
    u0, v0 = boundary_bump_data(system)
    simulate(system, u0, v0, dt=1e-3, T=2e-3)  # cached quadrature and imports
    tracemalloc.start()
    try:
        simulate(system, u0, v0, dt=1e-3, T=5e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8.7e6


def test_decay_fit_window_validation():
    trace = synthetic_trace(lambda t: t ** -1.0)
    with pytest.raises(InvalidArgumentError):
        decay_fit(trace, (0.5, 10.0))  # starts before t = 1
    with pytest.raises(InvalidArgumentError):
        decay_fit(trace, (1.0, 1e6))  # outside the trace


def test_decay_fit_window_is_not_copied():
    # the CLI's default window, the last 75 % of the trace; with the window
    # sliced and the line from centered sums, the fit peaks at 24 bytes per
    # step (36 with a design matrix and lstsq, 49 with masks)
    n = 200_000
    trace = synthetic_trace(lambda t: (1.0 + t) ** -1.0, t_end=1.0 + 1e-3 * n,
                            n=n + 1)
    T = trace.times[-1]
    tracemalloc.start()
    try:
        decay_fit(trace, (0.25 * T, T))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 30 * n


def test_boundary_bump_data_is_nontrivial_and_at_rest():
    system = build(DAMPED)
    u0, v0 = boundary_bump_data(system)
    assert np.linalg.norm(u0) > 0
    assert np.all(v0 == 0.0)
    from platedecay.assembly import energy
    assert energy(system, u0, v0) > 0


def test_eigenpacket_data_targets_weak_modes():
    system = build(DAMPED, h=0.5)
    u0, v0 = eigenpacket_data(system, n_modes=3)
    assert np.linalg.norm(u0) > 0
    trace = simulate(system, u0, v0, dt=1e-2, T=0.5)
    assert trace.energy[-1] < trace.energy[0]


def test_eigenpacket_mode_has_its_energy():
    # one mode y mapped back to (u, v) keeps the energy |Re y|^2 / 2 of the
    # generator's modal coordinates
    from platedecay.assembly import energy
    from platedecay.spectral import _modal_generator, _undamped_modes

    system = build(DAMPED)
    omega, Phi = _undamped_modes(system.pencil)
    lam, Y = np.linalg.eig(_modal_generator(omega, Phi, system.D))
    order = np.argsort(-lam.real)
    y = Y[:, order[lam[order].imag > 1e-9][0]].real
    u0, v0 = eigenpacket_data(system, n_modes=1)
    assert abs(energy(system, u0, v0) - 0.5 * (y @ y)) <= 1e-12 * (y @ y)


def test_eigenpacket_data_refuses_beyond_dense_limit():
    system = build(DAMPED, h=1.0 / 24.0)  # 2 x 2304 first-order dofs
    with pytest.raises(InvalidArgumentError) as info:
        eigenpacket_data(system)
    assert info.value.invariant == "dense-limit"


def test_decay_fit_refuses_flat_energy():
    trace = synthetic_trace(lambda t: np.full_like(t, 2.0))
    with pytest.raises(InsufficientDataError) as info:
        decay_fit(trace, (1.0, 100.0))
    assert info.value.invariant == "window-flat"
