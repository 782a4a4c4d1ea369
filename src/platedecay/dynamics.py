"""Time integration of M u'' + D u' + K u = 0 with energy bookkeeping.

The default integrator is the implicit midpoint rule, whose discrete energy
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
residual applies the operator through the factors, and all in double.  An
undamped run at h = 1/12 holds its energy to 3e-13 over 10^4 steps (2e-13
over 2000 steps at h = 1/24), and the midpoint balance residual of the
damped square is about 1e-14.  Without the refinement pass, or with a
residual against the assembled operator, the drift is 1e-10 to 1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from ._lsq import lsq_line
from .errors import InsufficientDataError, InvalidArgumentError, SolverError
from .geometry import GAMMA1
from .spectral import _energy_generator, _spd_factor, _spd_root

SCHEMES = ("midpoint",)
# The trace takes 40 bytes per step (five float arrays) and a CLI simulate
# peaks near 90, so this many stay under 1 GB.
MAX_STEPS = 10_000_000


@dataclass
class EnergyTrace:
    """Energy history with cumulative per-channel dissipation integrals."""

    times: np.ndarray
    energy: np.ndarray
    diss_d1: np.ndarray
    diss_d2: np.ndarray
    diss_corner: np.ndarray
    scheme: str
    snapshots: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.times)


def simulate(system, u0, v0, dt, T, scheme="midpoint", snapshot_stride=0):
    """Integrate the free homogeneous dynamics from (u0, v0) up to time T.

    Samples the energy and the cumulative channel dissipation at every step.
    ``snapshot_stride`` > 0 additionally stores (u, v) every that many steps
    (step 0 and the final step included).
    """
    if not dt > 0:
        raise InvalidArgumentError("dt must be positive", invariant="dt-positive")
    if T < dt:
        raise InvalidArgumentError("final time must be at least one step",
                                   invariant="horizon")
    if not T / dt < MAX_STEPS + 0.5:
        raise InvalidArgumentError(
            f"T / dt = {T / dt:.3g} steps; at most {MAX_STEPS} are allowed",
            invariant="sim-steps")
    if scheme not in SCHEMES:
        raise InvalidArgumentError(f"unknown scheme {scheme!r}; "
                                   f"use one of {SCHEMES}", invariant="scheme")
    n = system.n_free
    u = np.asarray(u0, dtype=float).copy()
    v = np.asarray(v0, dtype=float).copy()
    if u.shape != (n,) or v.shape != (n,):
        raise InvalidArgumentError(f"initial data must have length {n}",
                                   invariant="dof-size")

    half = 0.5 * dt
    F_K, F_M = _spd_root(system.K), _spd_root(system.M)
    step_lu = _spd_factor(system.M + half * system.D + half * half * system.K)
    roots_t = sp.vstack([F_M.T, F_K.T], format="csr")  # w -> (F_M'w, F_K'w)
    rhs = sp.hstack([F_M, -half * F_K], format="csr")  # y -> M v - (dt/2) K u
    # the step operator applied through the factors, on (F_M'w, F_K'w, w)
    step_op = sp.hstack([F_M, half * half * F_K, half * system.D],
                        format="csr")
    parts = system.damping_parts
    channels = sp.vstack([parts["d1"], parts["d2"], parts["corner"]],
                         format="csr")

    n_steps = int(round(T / dt))
    times = np.arange(n_steps + 1) * dt
    E = np.zeros(n_steps + 1)
    diss = np.zeros((3, n_steps + 1))
    y = np.concatenate([F_M.T @ v, F_K.T @ u])  # (y2, y1)
    E[0] = 0.5 * (y @ y)
    snapshots = {}

    def snap(step):
        if snapshot_stride > 0 and (step % snapshot_stride == 0
                                    or step == n_steps):
            snapshots[step] = (u.copy(), v.copy())

    snap(0)
    for s in range(1, n_steps + 1):
        r = rhs @ y
        w = step_lu.solve(r)
        # the step moves |y|^2 / 2 by -dt w'Dw + 2 w'(A w - r) with A applied
        # as below, so the refinement reduces exactly that residual
        w += step_lu.solve(r - step_op @ np.concatenate([roots_t @ w, w]))
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
                       diss_corner=cc, scheme=scheme, snapshots=snapshots)


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
    total = trace.diss_d1 + trace.diss_d2 + trace.diss_corner
    resid = np.diff(trace.energy) + np.diff(total)
    return float(np.max(np.abs(resid)) / e0)


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
    t_a, t_b = float(window[0]), float(window[1])
    if t_a < 1.0:
        raise InvalidArgumentError("fit window must start at t >= 1",
                                   invariant="window-start")
    # the times increase, so the window is one slice: views, not copies
    window_slice = slice(np.searchsorted(trace.times, t_a, side="left"),
                         np.searchsorted(trace.times, t_b, side="right"))
    t = trace.times[window_slice]
    e = trace.energy[window_slice]
    if len(t) == 0 or not trace.times[-1] >= t_b - 1e-12:  # NaN t_b too
        raise InvalidArgumentError("fit window outside the trace",
                                   invariant="window-range")
    if np.any(e <= 0.0):
        raise InvalidArgumentError("energy must stay positive on the window",
                                   invariant="window-positive")
    if len(t) < 3:
        raise InvalidArgumentError("need at least 3 samples in the window",
                                   invariant="window-samples")
    if e[0] - e[-1] <= 1e-9 * e[0]:
        raise InsufficientDataError(
            "energy is flat on the fit window (loss <= 1e-9 E(t_a))",
            invariant="window-flat")
    log_t, log_e = np.log(t), np.log(e)
    slope, r2_pow = lsq_line(log_t, log_e)
    _, r2_exp = lsq_line(t, log_e)
    return DecayFit(alpha=-slope, r_squared=r2_pow,
                    exponential_regime=bool(r2_exp > r2_pow),
                    window=(t_a, t_b), n_points=int(len(t)))


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
    is_trace = np.zeros(n, dtype=bool)
    is_trace[free_pos] = True
    interior = np.nonzero(~is_trace)[0]
    u0 = np.zeros(n)
    u0[free_pos] = g
    K = system.K.tocsc()
    K_ii = K[interior][:, interior]
    K_ib = K[interior][:, free_pos]
    if len(interior):
        u0[interior] = splu(K_ii.tocsc()).solve(-(K_ib @ g))
    return u0, np.zeros(n)


def eigenpacket_data(system, n_modes=6):
    """Superpose the least-damped vibration modes (heuristic worst case).

    Takes the generator's eigenvectors closest to the imaginary axis, one
    per conjugate pair, in energy coordinates, where each has unit energy,
    and sums their real parts, mapped back by z = L^{-T} y block by block.
    The eigensolve is dense, so it is refused above the dense limit
    (``dense-limit``).
    """
    G, (L_K, L_M) = _energy_generator(system)
    lam, Y = np.linalg.eig(G)
    order = np.argsort(-lam.real)  # closest to the axis first (Re < 0)
    picked = order[lam[order].imag > 1e-9][:n_modes]
    if len(picked) == 0:
        raise SolverError("no oscillatory modes found for the packet",
                          invariant="eigenpacket")
    y = Y[:, picked].real.sum(axis=1)
    n = system.n_free
    return (sla.solve_triangular(L_K, y[:n], lower=True, trans="T"),
            sla.solve_triangular(L_M, y[n:], lower=True, trans="T"))
