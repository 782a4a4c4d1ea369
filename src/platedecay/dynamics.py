"""Time integration of M u'' + D u' + K u = 0 with energy bookkeeping.

The default integrator is the implicit midpoint rule, whose discrete energy
balance is exact for linear systems: per step, the energy drop equals
dt * v_mid' D v_mid up to linear-solver rounding.  That turns the continuous
dissipation identity into a machine-checkable statement, split into its
three channels (normal-derivative damping, trace damping, corner feedback).
It is the only scheme: Newmark with beta = 1/4, gamma = 1/2 is the same
one-step map on linear systems.

The step forms its right-hand side, the energy and the refinement
residuals in np.longdouble and factor the step matrix in double (see
``_OperatorSolver``).  On x86-64 (80-bit long double) an undamped run at
h = 1/12 holds its energy to about 2e-13 over 10^4 steps, and the midpoint
balance residual of the damped square is about 2e-14.  In double, the
right-hand side M v - (dt/2) K u alone rounds the energy at the 1e-11 level
over such a run, however many refinement passes follow.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import splu

from ._lsq import lsq_line
from .errors import InvalidArgumentError, SolverError
from .geometry import GAMMA1

SCHEMES = ("midpoint",)


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


class _OperatorSolver:
    """LU of a step operator in double, refined against it in long double.

    The operator arrives in ``np.longdouble``, where its entrywise rounding
    is about 1e-19; the LU is of its double rounding.  Each refinement pass
    forms the residual b - A x from the long-double right-hand side and the
    long-double operator, so the solve reaches the long-double system, not
    its double rounding.  A right-hand side formed in double would already
    move the energy by its own rounding each step (max|K| is about 4.6e5 at
    h = 1/12), which no refinement against it recovers: an undamped run at
    h = 1/12 then drifts by 1.5e-11 over 10^4 steps.  With both in long
    double the drift is about 2e-13 and the midpoint balance residual about
    2e-14.  Where np.longdouble is plain double (its eps equals float's, as
    on MSVC builds) the residual gains nothing.
    """

    passes = 2  # 1 or 2 both leave the drift at noise level

    def __init__(self, matrix):
        self.matrix = matrix.tocsr()
        try:
            self.lu = splu(self.matrix.astype(float).tocsc())
        except RuntimeError as exc:  # singular factorization
            raise SolverError(f"step matrix factorization failed: {exc}",
                              invariant="step-matrix") from exc

    def solve(self, b):
        x = self.lu.solve(b.astype(float))
        for _ in range(self.passes):
            r = b - self.matrix @ x.astype(np.longdouble)
            x += self.lu.solve(r.astype(float))
        if not np.all(np.isfinite(x)):
            raise SolverError("linear solve produced non-finite values",
                              invariant="solver-finite")
        return x


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
    if scheme not in SCHEMES:
        raise InvalidArgumentError(f"unknown scheme {scheme!r}; "
                                   f"use one of {SCHEMES}", invariant="scheme")
    n = system.n_free
    u = np.asarray(u0, dtype=float).copy()
    v = np.asarray(v0, dtype=float).copy()
    if u.shape != (n,) or v.shape != (n,):
        raise InvalidArgumentError(f"initial data must have length {n}",
                                   invariant="dof-size")

    ld = np.longdouble
    K, M, D = (m.astype(ld).tocsr() for m in (system.K, system.M, system.D))
    parts = system.damping_parts

    def forces(uu, vv):
        # K u and M v in long double, each used twice: for the energy
        # (u.Ku + v.Mv) / 2 and for the next step's right-hand side
        ku, mv = K @ uu.astype(ld), M @ vv.astype(ld)
        return ku, mv, 0.5 * (uu @ ku + vv @ mv)

    n_steps = int(round(T / dt))
    times = np.arange(n_steps + 1) * dt
    E = np.zeros(n_steps + 1)
    c1 = np.zeros(n_steps + 1)
    c2 = np.zeros(n_steps + 1)
    cc = np.zeros(n_steps + 1)
    ku, mv, E[0] = forces(u, v)
    snapshots = {}

    def snap(step):
        if snapshot_stride > 0 and (step % snapshot_stride == 0
                                    or step == n_steps):
            snapshots[step] = (u.copy(), v.copy())

    snap(0)

    half = ld(0.5 * dt)
    step_mat = _OperatorSolver(M + half * D + half * half * K)
    for s in range(1, n_steps + 1):
        v_mid = step_mat.solve(mv - half * ku)
        u = u + dt * v_mid
        v = 2.0 * v_mid - v
        ku, mv, E[s] = forces(u, v)
        c1[s] = c1[s - 1] + dt * float(v_mid @ (parts["d1"] @ v_mid))
        c2[s] = c2[s - 1] + dt * float(v_mid @ (parts["d2"] @ v_mid))
        cc[s] = cc[s - 1] + dt * float(v_mid @ (parts["corner"] @ v_mid))
        snap(s)

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
    """
    t_a, t_b = float(window[0]), float(window[1])
    if t_a < 1.0:
        raise InvalidArgumentError("fit window must start at t >= 1",
                                   invariant="window-start")
    mask = (trace.times >= t_a) & (trace.times <= t_b)
    if not np.any(mask) or trace.times[-1] < t_b - 1e-12:
        raise InvalidArgumentError("fit window outside the trace",
                                   invariant="window-range")
    t = trace.times[mask]
    e = trace.energy[mask]
    if np.any(e <= 0.0):
        raise InvalidArgumentError("energy must stay positive on the window",
                                   invariant="window-positive")
    if len(t) < 3:
        raise InvalidArgumentError("need at least 3 samples in the window",
                                   invariant="window-samples")
    log_t, log_e = np.log(t), np.log(e)
    slope, r2_pow = lsq_line(log_t, log_e)
    _, r2_exp = lsq_line(t, log_e)
    return DecayFit(alpha=-slope, r_squared=r2_pow,
                    exponential_regime=bool(r2_exp > r2_pow),
                    window=(t_a, t_b), n_points=int(len(t)))


# ---------------------------------------------------------------------------
# initial data generators
# ---------------------------------------------------------------------------

def boundary_bump_data(system, center=None, width=None):
    """Stiffness-harmonic lift of a Gaussian bump on the damped boundary.

    Sets the damped-trace dofs to a bump profile, solves the interior dofs
    from K (discrete harmonic extension in the energy form) and starts from
    rest; biased toward boundary-dominated, weakly damped motion.
    """
    dofs = system.dofs
    if dofs is None:
        raise InvalidArgumentError("system lacks its dof map",
                                   invariant="system-context")
    trace_global = np.nonzero(dofs.chord_dofs(GAMMA1) & ~dofs.constrained)[0]
    if len(trace_global) == 0:
        raise InvalidArgumentError("no free damped-boundary dofs",
                                   invariant="gamma1-dofs")
    coords = dofs.dof_coords[trace_global]
    if center is None:
        center = coords.mean(axis=0)
    if width is None:
        span = dofs.dof_coords[dofs.free]
        width = 0.25 * float(np.max(span.max(axis=0) - span.min(axis=0)))
    center = np.asarray(center, dtype=float)
    g = np.exp(-np.sum((coords - center) ** 2, axis=1) / (2.0 * width ** 2))

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
    and sums their real parts.  The eigensolve is dense, so it is refused
    above the dense limit (``dense-limit``).
    """
    from .spectral import _energy_generator
    import scipy.linalg as sla

    G, L = _energy_generator(system)
    lam, Y = np.linalg.eig(G)
    order = np.argsort(-lam.real)  # closest to the axis first (Re < 0)
    picked = order[lam[order].imag > 1e-9][:n_modes]
    if len(picked) == 0:
        raise SolverError("no oscillatory modes found for the packet",
                          invariant="eigenpacket")
    z = sla.solve_triangular(L, Y[:, picked], lower=True, trans="T")
    z = z.real.sum(axis=1)  # z = L^{-T} y
    n = system.n_free
    return z[:n], z[n:]
