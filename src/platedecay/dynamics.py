"""Time integration of M u'' + D u' + K u = 0 with energy bookkeeping.

The integrator is the implicit midpoint rule, whose discrete energy
balance is exact for linear systems: per step, the energy drop equals
dt * v_mid' D v_mid up to linear-solver rounding.  That turns the continuous
dissipation identity into a machine-checkable statement, split into its
three channels (normal-derivative damping, trace damping, corner feedback).
It is the only scheme: Newmark with beta = 1/4, gamma = 1/2 is the same
one-step map on linear systems.

The step runs in energy coordinates y = (F_M' v, F_K' u), with sparse
factors F F' = M and F F' = K, so the energy is |y|^2 / 2: a quadratic
invariant that the midpoint rule keeps (Hairer, Lubich & Wanner 2006).  Each
step solves the step operator M + (dt/2) D + (dt/2)^2 K for v_mid from
M v - (dt/2) K u = F_M y2 - (dt/2) F_K y1, with one refinement pass whose
residual applies the operator through the factors, and all in double.  The
README's numerical notes give the energy drift and balance residual this
keeps, and the drift without the refinement pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from ._lsq import lsq_line
from .errors import InsufficientDataError, InvalidArgumentError, SolverError
from .geometry import GAMMA1
from .spectral import (_modal_generator, _spd_checked, _spd_root,
                       _symmetric_lu, _undamped_modes)

# The trace takes 40 bytes per step (five float arrays) and a CLI simulate
# peaks near 60, so this many stay under 1 GB.
MAX_STEPS = 10_000_000
_CHUNK = 1 << 13  # samples per slice of a reduction over the trace


@dataclass
class EnergyTrace:
    """Energy history with cumulative per-channel dissipation integrals."""

    times: np.ndarray
    energy: np.ndarray
    diss_d1: np.ndarray
    diss_d2: np.ndarray
    diss_corner: np.ndarray
    snapshots: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.times)


def step_times(dt, T):
    """Times 0, dt, ..., round(T / dt) dt of a run, after its checks."""
    if not dt > 0:
        raise InvalidArgumentError("dt must be positive", invariant="dt-positive")
    if T < dt:
        raise InvalidArgumentError("final time must be at least one step",
                                   invariant="horizon")
    if not T / dt < MAX_STEPS + 0.5:
        raise InvalidArgumentError(
            f"T / dt = {T / dt:.3g} steps; at most {MAX_STEPS} are allowed",
            invariant="sim-steps")
    return np.arange(int(round(T / dt)) + 1) * dt


def simulate(system, u0, v0, dt, T, snapshot_stride=0):
    """Integrate the free homogeneous dynamics from (u0, v0) up to time T.

    Samples the energy and the cumulative channel dissipation at every step.
    ``snapshot_stride`` > 0 additionally stores (u, v) every that many steps
    (step 0 and the final step included).

    The roots are held once, in two CSR operators: ``roots_t`` =
    [F_M'; F_K'] and R = [F_M, F_K, D], which gives both the right-hand
    side and the refinement residual.  A step makes two solves with the
    step factor and five sparse products, the channels' included.  The step
    operator is factored once and never read: it is positive definite, as
    M + (dt/2)^2 K with K and M checked by ``_spd_root``, plus (dt/2) D,
    which is positive semidefinite by construction (``_spd_checked``).
    """
    times = step_times(dt, T)
    n = system.n_free
    u, v = (np.array(x, dtype=float) for x in (u0, v0))
    if u.shape != (n,) or v.shape != (n,):
        raise InvalidArgumentError(f"initial data must have length {n}",
                                   invariant="dof-size")

    half = 0.5 * dt
    F_K, F_M = (_spd_root(A)[0] for A in (system.K, system.M))  # no factor kept
    step_lu = _symmetric_lu(
        system.M + half * system.D + half * half * system.K, 0.0)
    y = np.concatenate([F_M.T @ v, F_K.T @ u])  # (y2, y1)
    # one operator for the right-hand side, M v - (dt/2) K u = R (y2,
    # -(dt/2) y1, 0), and for the step operator applied through the factors,
    # R (F_M'w, (dt/2)^2 F_K'w, (dt/2) w)
    R = sp.hstack([F_M, F_K, system.D], format="csr")
    del F_K, F_M
    roots_t = R[:, :2 * n].T.tocsr()  # w -> (F_M'w, F_K'w)
    parts = system.damping_parts
    channels = sp.vstack([parts["d1"], parts["d2"], parts["corner"]],
                         format="csr")

    E = np.zeros_like(times)
    diss = np.zeros((3, len(times)))
    E[0] = 0.5 * (y @ y)
    z = np.zeros(3 * n)  # R's argument
    snapshots = {}

    def snap(step):
        if snapshot_stride > 0 and (step % snapshot_stride == 0
                                    or step == len(times) - 1):
            snapshots[step] = (u.copy(), v.copy())

    snap(0)
    for s in range(1, len(times)):
        z[:n] = y[:n]
        np.multiply(-half, y[n:], out=z[n:2 * n])
        z[2 * n:] = 0.0
        r = R @ z
        w = step_lu.solve(r)
        # the step moves |y|^2 / 2 by -dt w'Dw + 2 w'(A w - r) with A applied
        # as below, so the refinement reduces exactly that residual
        fw = roots_t @ w
        z[:n] = fw[:n]
        np.multiply(half * half, fw[n:], out=z[n:2 * n])
        np.multiply(half, w, out=z[2 * n:])
        w += step_lu.solve(r - R @ z)
        fw = roots_t @ w
        y[:n] = 2.0 * fw[:n] - y[:n]
        y[n:] += dt * fw[n:]
        E[s] = 0.5 * (y @ y)
        diss[:, s] = dt * ((channels @ w).reshape(3, n) @ w)
        u += dt * w
        v = 2.0 * w - v
        snap(s)
    if not np.all(np.isfinite(E)):
        raise SolverError("time stepping produced non-finite values",
                          invariant="solver-finite")
    c1, c2, cc = np.cumsum(diss, axis=1, out=diss)
    return EnergyTrace(times=times, energy=E, diss_d1=c1, diss_d2=c2,
                       diss_corner=cc, snapshots=snapshots)


def dissipation_residual(trace):
    """Worst per-step violation of the discrete energy balance, relative to E0.

    For the midpoint scheme the balance E_{n+1} - E_n = -(channel increments)
    holds exactly, so the residual sits at solver rounding.
    """
    if len(trace) == 0:
        raise InvalidArgumentError("empty trace", invariant="trace-nonempty")
    e0 = trace.energy[0]
    if e0 == 0.0:
        return 0.0

    def residuals(lo, hi):  # of steps lo + 1 .. hi
        s = slice(lo, hi + 1)
        total = trace.diss_d1[s] + trace.diss_d2[s] + trace.diss_corner[s]
        return np.abs(np.diff(trace.energy[s]) + np.diff(total))

    return float(_chunked_max(len(trace) - 1, residuals) / e0)


def energy_drift(trace):
    """Largest |E(t) - E0| over the trace, relative to E0 as the balance
    residual is; zero data has neither (0)."""
    e0 = trace.energy[0]
    if e0 == 0.0:
        return 0.0
    return float(_chunked_max(
        len(trace), lambda lo, hi: np.abs(trace.energy[lo:hi] - e0)) / e0)


def _chunked_max(n, values):
    """The largest entry of values(lo, hi) over consecutive [lo, hi) that
    cover range(n): the number one np.max over all n gives, NaN included,
    with temporaries of at most ``_CHUNK`` samples."""
    return np.max([np.max(values(lo, min(lo + _CHUNK, n)))
                   for lo in range(0, n, _CHUNK)])


@dataclass(frozen=True)
class DecayFit:
    """Power-law fit of the energy tail.

    alpha is the decay exponent of E ~ t^(-alpha) on the window;
    ``exponential_regime`` flags windows where a straight exponential fits
    log E better, which every finite-dimensional surrogate eventually shows.
    """

    alpha: float
    r_squared: float
    exponential_regime: bool
    window: tuple
    n_points: int

    def to_dict(self):
        return {"alpha": float(self.alpha), "r_squared": float(self.r_squared),
                "exponential_regime": bool(self.exponential_regime),
                "window": [float(self.window[0]), float(self.window[1])],
                "n_points": int(self.n_points)}


def decay_fit(trace, window):
    """Fit E ~ C t^(-alpha) on [t_a, t_b] with t_a >= 1.

    Returns the exponent (positive alpha means decay), the log-log R^2, and
    an exponential-regime flag set when log E against t is the better line.
    An energy that loses at most 1e-9 of E(t_a) over the window has no
    decay to fit (``InsufficientDataError``, ``window-flat``).
    """
    # the times increase, so the window is one slice: views, not copies
    samples = fit_window_slice(trace.times, window)
    t, e = trace.times[samples], trace.energy[samples]
    if np.any(e <= 0.0):
        raise InvalidArgumentError("energy must stay positive on the window",
                                   invariant="window-positive")
    if e[0] - e[-1] <= 1e-9 * e[0]:
        raise InsufficientDataError(
            "energy is flat on the fit window (loss <= 1e-9 E(t_a))",
            invariant="window-flat")
    log_e = np.log(e)
    slope, r2_pow = lsq_line(np.log(t), log_e, overwrite_x=True)
    _, r2_exp = lsq_line(t, log_e)
    return DecayFit(alpha=-slope, r_squared=r2_pow,
                    exponential_regime=bool(r2_exp > r2_pow),
                    window=tuple(map(float, window)), n_points=int(len(t)))


def fit_window_slice(times, window):
    """The slice of ``times`` in a fit window, after its energy-free checks."""
    t_a, t_b = float(window[0]), float(window[1])
    if t_a < 1.0:
        raise InvalidArgumentError("fit window must start at t >= 1",
                                   invariant="window-start")
    lo, hi = np.searchsorted(times, t_a), np.searchsorted(times, t_b, "right")
    if hi <= lo or not times[-1] >= t_b - 1e-12:  # NaN t_b too
        raise InvalidArgumentError("fit window outside the trace",
                                   invariant="window-range")
    if hi - lo < 3:
        raise InvalidArgumentError("need at least 3 samples in the window",
                                   invariant="window-samples")
    return slice(lo, hi)


# ---------------------------------------------------------------------------
# initial data generators
# ---------------------------------------------------------------------------

def boundary_bump_data(system):
    """Stiffness-harmonic lift of a Gaussian bump on the damped boundary.

    Sets the damped-trace dofs to a bump profile (centred at their mean,
    width a quarter of the free dofs' extent), solves the interior dofs
    from K (discrete harmonic extension in the energy form) and starts from
    rest; biased toward boundary-dominated, weakly damped motion.
    """
    dofs = system.dofs
    trace_global = np.nonzero(dofs.chord_dofs(GAMMA1) & ~dofs.constrained)[0]
    if len(trace_global) == 0:
        raise InvalidArgumentError("no free damped-boundary dofs",
                                   invariant="gamma1-dofs")
    coords = dofs.dof_coords[trace_global]
    span = dofs.dof_coords[dofs.free]
    width = 0.25 * float(np.max(span.max(axis=0) - span.min(axis=0)))
    g = np.exp(-np.sum((coords - coords.mean(axis=0)) ** 2, axis=1)
               / (2.0 * width ** 2))

    free_pos = dofs.free_index[trace_global]
    n = system.n_free
    interior = np.setdiff1d(np.arange(n), free_pos)
    u0 = np.zeros(n)
    u0[free_pos] = g
    K_i = system.K[interior]
    if len(interior):
        u0[interior] = _spd_checked(K_i[:, interior]).solve(
            -(K_i[:, free_pos] @ g))
    return u0, np.zeros(n)


def eigenpacket_data(system, n_modes=6):
    """Superpose the least-damped vibration modes (heuristic worst case).

    Takes the generator's eigenvectors closest to the imaginary axis, one
    per conjugate pair, in the modal coordinates y = (W q, q') of
    ``_modal_generator``, where each has unit energy, and sums their real
    parts, mapped back by u = Phi W^{-1} y1 and v = Phi y2.  The eigensolve
    is dense, so it is refused above the dense limit (``dense-limit``).
    """
    omega, Phi = _undamped_modes(system)
    lam, Y = np.linalg.eig(_modal_generator(omega, Phi, system.D))
    order = np.argsort(-lam.real)  # closest to the axis first (Re < 0)
    picked = order[lam[order].imag > 1e-9][:n_modes]
    if len(picked) == 0:
        raise SolverError("no oscillatory modes found for the packet",
                          invariant="eigenpacket")
    y1, y2 = np.split(Y[:, picked].real.sum(axis=1), 2)
    return Phi @ (y1 / omega), Phi @ y2
