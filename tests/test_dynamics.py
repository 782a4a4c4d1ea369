import numpy as np
import pytest

from platedecay.assembly import assemble, build_dof_map
from platedecay.dynamics import (DecayFit, EnergyTrace, boundary_bump_data,
                                 decay_fit, dissipation_residual,
                                 eigenpacket_data, simulate)
from platedecay.errors import InvalidArgumentError
from platedecay.geometry import unit_square_domain
from platedecay.meshing import triangulate
from platedecay.plate_forms import PlateMaterial

DOM = unit_square_domain(gamma0_edges=(0, 3), corner_gains=(0, 0, 1.0, 0))
DAMPED = PlateMaterial(mu=0.3, rho=1.0, inertia=1.0, d1=1.0, d2=1.0)
UNDAMPED = PlateMaterial(mu=0.3, rho=1.0, inertia=1.0, d1=0.0, d2=0.0)


def build(mat, h=0.25, gains=None):
    mesh = triangulate(DOM, h)
    dofs = build_dof_map(mesh, 2)
    return assemble(mesh, dofs, mat, gains=gains, j_variant=2)


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
        simulate(system, z, z, dt=1e-2, T=1.0, scheme="verlet")
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

    def final_energy(dt, scheme):
        return simulate(system, u0, v0, dt=dt, T=0.4,
                        scheme=scheme).energy[-1]

    ref = final_energy(5e-4, "midpoint")
    err = [abs(final_energy(dt, "midpoint") - ref) for dt in (8e-3, 4e-3)]
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


def test_dissipation_residual_empty_trace():
    trace = EnergyTrace(times=np.array([]), energy=np.array([]),
                        diss_d1=np.array([]), diss_d2=np.array([]),
                        diss_corner=np.array([]), scheme="midpoint")
    with pytest.raises(InvalidArgumentError):
        dissipation_residual(trace)


def synthetic_trace(f, t_end=100.0, n=2000):
    t = np.linspace(0.5, t_end, n)
    zeros = np.zeros_like(t)
    return EnergyTrace(times=t, energy=f(t), diss_d1=zeros, diss_d2=zeros,
                       diss_corner=zeros, scheme="midpoint")


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


def test_decay_fit_window_validation():
    trace = synthetic_trace(lambda t: t ** -1.0)
    with pytest.raises(InvalidArgumentError):
        decay_fit(trace, (0.5, 10.0))  # starts before t = 1
    with pytest.raises(InvalidArgumentError):
        decay_fit(trace, (1.0, 1e6))  # outside the trace


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


def test_eigenpacket_data_refuses_beyond_dense_limit():
    system = build(DAMPED, h=1.0 / 24.0)  # 2 x 2304 first-order dofs
    with pytest.raises(InvalidArgumentError) as info:
        eigenpacket_data(system)
    assert info.value.invariant == "dense-limit"
