"""Correctness gates over plate-decay artifacts, at the acceptance suite's
pinned tolerances.

Every check returns a list of ``(gate, passed, value)`` triples.  The
tolerances are copied from ``tests/test_acceptance.py`` and must not be
loosened: a gate that fails here is a failed operation of the benchmark.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

BALANCE_TOL = 1e-9            # criterion 3: per-step energy balance
MONOTONE_TOL = 1e-12          # criterion 3: energy non-increasing, rel. E0
DRIFT_TOL = 1e-11             # criterion 4: undamped drift over 10^4 steps
THETA_MAX = 2.5               # criterion 6: resolvent growth exponent
BRANCH_MIN = -2.5             # criterion 6: damping-branch slope
R2_MIN = 0.9                  # criterion 6: fit quality of both fits
THETA_REFINE_TOL = 0.3        # criterion 6: |theta(1/8) - theta(1/12)|
IDENTITY_TOL = 1e-9           # criteria 1 and 2: identity residuals


def read_csv(path):
    """Numeric rows of a plate-decay CSV artifact (provenance lines skipped)."""
    with open(path) as f:
        lines = [ln for ln in f if not ln.startswith("#")]
    return np.loadtxt(lines[1:], delimiter=",", ndmin=2)


def read_json(path):
    with open(path) as f:
        return json.load(f)


def energy_scalars(trace):
    """Balance residual, monotonicity excess and drift of a trace.csv table
    with columns t, E, diss_d1, diss_d2, diss_corner."""
    energy = trace[:, 1]
    e0 = energy[0]
    dissipated = trace[:, 2] + trace[:, 3] + trace[:, 4]
    balance = float(np.max(np.abs(np.diff(energy) + np.diff(dissipated))) / e0)
    rise = float(np.max(np.diff(energy)) / e0)
    drift = float(np.max(np.abs(energy - e0)) / e0)
    return {"balance_residual": balance, "energy_rise": rise,
            "energy_drift": drift, "steps": int(len(energy) - 1)}


def damped_gates(scalars):
    return [("balance", scalars["balance_residual"] <= BALANCE_TOL,
             scalars["balance_residual"]),
            ("energy-nonincreasing", scalars["energy_rise"] <= MONOTONE_TOL,
             scalars["energy_rise"])]


def conservation_gates(scalars, steps):
    return [("steps", scalars["steps"] == steps, scalars["steps"]),
            ("drift", scalars["energy_drift"] <= DRIFT_TOL,
             scalars["energy_drift"])]


def spectrum_gates(eigenvalues):
    """min|lambda| > 0 and spectral abscissa < 0 (criterion 5)."""
    lam = np.asarray(eigenvalues)
    smallest = float(np.min(np.abs(lam))) if len(lam) else 0.0
    abscissa = float(np.max(lam.real)) if len(lam) else math.inf
    return [("eigenvalues-nonzero", smallest > 0.0, smallest),
            ("abscissa-negative", abscissa < 0.0, abscissa)]


def resolvent_gates(fit, sweep):
    """One-sided fit bounds with R^2 (criterion 6) and a finite sweep."""
    n_bad = int(np.count_nonzero(~np.isfinite(sweep[:, 1])))
    r2 = fit.get("R2", {})
    theta = fit.get("theta_hat", math.nan)
    slope = fit.get("branch_slope", math.nan)
    return [("sweep-finite", n_bad == 0, n_bad),
            ("theta", theta <= THETA_MAX, theta),
            ("theta-r2", r2.get("theta", math.nan) >= R2_MIN, r2.get("theta")),
            ("branch-slope", slope >= BRANCH_MIN, slope),
            ("branch-r2", r2.get("branch", math.nan) >= R2_MIN,
             r2.get("branch"))]


def refinement_gate(theta_coarse, theta_fine):
    gap = abs(theta_coarse - theta_fine)
    return [("theta-refinement", gap <= THETA_REFINE_TOL, gap)]


def identity_gates(report):
    worst = max(report["greens_max_residual"],
                report["multiplier_max_residual"])
    return [("identity-residual", worst <= IDENTITY_TOL, worst)]


def geometry_gates(condition_g, condition_h):
    return [("condition-g", bool(condition_g["report"]["satisfied"]), None),
            ("condition-h", bool(condition_h["report"]["satisfied"]), None)]


def mesh_gates(path):
    counts = {}
    with open(path) as f:
        for line in f:
            if line.startswith("$"):
                key, _, n = line.partition(" ")
                counts[key] = int(n)
    ok = counts.get("$Nodes", 0) > 0 and counts.get("$Triangles", 0) > 0
    return [("mesh-counts", ok, counts.get("$Nodes"))]


def check_artifacts(command, out_dir, conserve_steps=None, context=None):
    """Gates and certified scalars for one command's artifacts.

    A ``simulate`` with ``conserve_steps`` is the undamped control (step count
    and drift); without it, the damped balance.  ``context`` carries state
    across one pass of a workload: the theta of the previous resolvent level,
    for the refinement gate.
    """
    context = context if context is not None else {}
    gates, scalars = [], {}

    def path(name):
        return os.path.join(out_dir, name)

    if command == "simulate":
        scalars = energy_scalars(read_csv(path("trace.csv")))
        if conserve_steps is not None:
            gates = conservation_gates(scalars, conserve_steps)
        else:
            del scalars["energy_drift"]  # a damped run is meant to lose energy
            gates = damped_gates(scalars)
    elif command == "spectrum":
        lam = read_csv(path("spectrum.csv"))
        gates = spectrum_gates(lam[:, 0] + 1j * lam[:, 1])
        fit = read_json(path("spectrum_fit.json"))
        scalars = {k: fit[k] for k in ("spectral_abscissa", "branch_slope")
                   if k in fit}
    elif command == "resolvent":
        fit = read_json(path("fit_summary.json"))
        gates = resolvent_gates(fit, read_csv(path("sweep.csv")))
        scalars = {"theta_hat": fit.get("theta_hat"),
                   "branch_slope": fit.get("branch_slope")}
        if "theta_coarse" in context and scalars["theta_hat"] is not None:
            gates += refinement_gate(context["theta_coarse"],
                                     scalars["theta_hat"])
        context["theta_coarse"] = scalars["theta_hat"]
    elif command == "verify":
        report = read_json(path("verify.json"))
        gates = identity_gates(report)
        scalars = {"max_identity_residual": gates[0][2],
                   "n_cases": report["n_cases"]}
    elif command == "check":
        gates = geometry_gates(read_json(path("condition_g.json")),
                               read_json(path("condition_h.json")))
    elif command == "mesh":
        gates = mesh_gates(path("mesh.txt"))
    else:
        raise ValueError(f"no gates for command {command!r}")
    return gates, scalars
