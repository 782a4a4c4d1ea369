"""Acceptance suite: one test per shipping criterion, tolerances pinned.

Each test prints a `[PASS] criterion N` line with its runtime (visible with
pytest -s or in captured output).  The damped-square configuration used
throughout: unit square, bottom and left edges clamped, mu = 0.3,
rho = inertia = 1, d1 = d2 = 1, unit corner feedback at the free-free corner.
"""

import json
import math
import time

import numpy as np
import pytest

from platedecay._polygon import random_convex_polygon
from platedecay.assembly import assemble, build_dof_map
from platedecay.dynamics import boundary_bump_data, dissipation_residual, simulate
from platedecay.errors import InvalidArgumentError
from platedecay.geometry import (check_condition_g, check_condition_h,
                                 find_observer_point, lens_domain,
                                 polygon_domain, unit_square_domain)
from platedecay.meshing import refine, triangulate
from platedecay.plate_forms import (PlateMaterial, PolyField, bilinear_a,
                                    greens_identity_residual,
                                    greens_identity_terms,
                                    multiplier_identity_residual,
                                    multiplier_identity_terms)
from platedecay.spectral import (damping_branch_fit, growth_fit,
                                 pencil_eigenvalues, resolved_band,
                                 resolvent_sweep, suggest_sweep_omegas)

from damped_square import DAMPED as DAMPED_MAT, DOM as DAMPED_DOM, build

MU = 0.3
SQUARE = unit_square_domain(gamma0_edges=(0, 3))


def _report(number, started, detail):
    print(f"[PASS] criterion {number} ({time.time() - started:.1f}s): {detail}")


def test_criterion_1_greens_formula_certification():
    started = time.time()
    rng = np.random.default_rng(2024)
    residuals = []
    for _ in range(100):
        poly = random_convex_polygon(rng, int(rng.integers(3, 9)))
        dom = polygon_domain(poly, gamma0_edges={0})
        u = PolyField.random(rng, int(rng.integers(2, 6)))
        v = PolyField.random(rng, int(rng.integers(2, 6)))
        mu = rng.uniform(0.05, 0.45)
        residuals.append(greens_identity_residual(u, v, dom, mu))
    worst = float(np.max(residuals))  # a NaN residual fails, as in verify
    assert worst <= 1e-9

    u = PolyField.monomial(2, 0)
    terms = greens_identity_terms(u, u, SQUARE, MU)
    assert abs(terms["a"] - 4.0) < 1e-12
    assert abs(terms["boundary"] + 4.0) < 1e-12
    assert abs(terms["corners"]) < 1e-12
    assert abs(terms["volume"]) < 1e-12
    terms = greens_identity_terms(PolyField.monomial(4, 0),
                                  PolyField.constant(1.0), SQUARE, MU)
    assert abs(terms["volume"] - 24.0) < 1e-11
    assert abs(terms["boundary"] - 24.0) < 1e-11
    elapsed = time.time() - started
    assert elapsed < 10.0
    _report(1, started, f"max residual {worst:.3e} over 100 instances")


def test_criterion_2_multiplier_identity_certification():
    started = time.time()
    rng = np.random.default_rng(4096)
    residuals = []
    for _ in range(100):
        poly = random_convex_polygon(rng, int(rng.integers(3, 9)))
        dom = polygon_domain(poly, gamma0_edges={0})
        u = PolyField.random(rng, int(rng.integers(2, 5)))
        mu = rng.uniform(0.05, 0.45)
        x0 = rng.uniform(-2.0, 2.0, size=2)
        residuals.append(multiplier_identity_residual(u, dom, mu, x0))
    worst = float(np.max(residuals))  # a NaN residual fails, as in verify
    assert worst <= 1e-9

    terms = multiplier_identity_terms(PolyField.monomial(2, 0), SQUARE, MU,
                                      (0.0, 0.0))
    assert abs(terms["a"] - 4.0) < 1e-12
    assert abs(terms["q_flux"] - 4.0) < 1e-12
    assert abs(terms["boundary"] + 8.0) < 1e-12
    elapsed = time.time() - started
    assert elapsed < 10.0
    _report(2, started, f"max residual {worst:.3e} over 100 instances")


def test_criterion_3_dissipation_identity():
    started = time.time()
    system = build(h=1.0 / 12.0)
    assert system.n_free <= 2000
    u0, v0 = boundary_bump_data(system)
    trace = simulate(system, u0, v0, dt=1e-3, T=10.0)
    residual = dissipation_residual(trace)
    assert residual <= 1e-9
    assert np.all(np.diff(trace.energy) <= 1e-12 * trace.energy[0])
    elapsed = time.time() - started
    assert elapsed < 60.0
    _report(3, started,
            f"{system.n_free} dofs, balance residual {residual:.3e}")


def test_criterion_4_conservation_control():
    started = time.time()
    mesh = triangulate(SQUARE, 1.0 / 12.0)  # DAMPED_DOM with zero gains
    dofs = build_dof_map(mesh, 2)
    mat0 = PlateMaterial(mu=MU, rho=1.0, inertia=1.0, d1=0.0, d2=0.0)
    system = assemble(mesh, dofs, mat0)
    u0, v0 = boundary_bump_data(system)
    trace = simulate(system, u0, v0, dt=1e-3, T=10.0)
    assert len(trace) - 1 == 10_000
    drift = float(np.max(np.abs(trace.energy - trace.energy[0]))
                  / trace.energy[0])
    assert drift <= 1e-11
    _report(4, started, f"energy drift {drift:.3e} over 10^4 steps")


def test_criterion_5_wellposedness_surrogate():
    started = time.time()
    mesh = triangulate(DAMPED_DOM, 0.25)
    for level in range(3):
        dofs = build_dof_map(mesh, 2)
        system = assemble(mesh, dofs, DAMPED_MAT)
        lam, _ = pencil_eigenvalues(system)
        assert np.min(np.abs(lam)) > 0
        assert np.max(lam.real) < 0
        band = resolved_band(lam)
        in_band = lam[(np.abs(lam.imag) >= band[0])
                      & (np.abs(lam.imag) <= band[1])]
        assert np.max(in_band.real) < -1e-10
        mesh = refine(mesh)
    elapsed = time.time() - started
    assert elapsed < 120.0
    _report(5, started, "three levels: min|lambda|>0, Re<0, band clear")


def test_criterion_6_resolvent_growth():
    started = time.time()
    thetas = []
    for h in (0.125, 1.0 / 12.0):
        system = build(h=h)
        lam, _ = pencil_eigenvalues(system)
        band = resolved_band(lam)
        slope, r2_branch = damping_branch_fit(lam, band)
        omegas = suggest_sweep_omegas(lam, band)
        sweep = resolvent_sweep(system, omegas)
        theta, r2_theta = growth_fit(sweep, band)
        thetas.append(theta)
        assert theta <= 2.5
        assert slope >= -2.5
        assert r2_theta >= 0.9
        assert r2_branch >= 0.9
    assert abs(thetas[0] - thetas[1]) <= 0.3  # refinement monotonicity
    _report(6, started,
            f"theta {thetas[0]:.2f}/{thetas[1]:.2f}, one-sided bounds hold")


def test_criterion_7_geometric_hypotheses():
    started = time.time()
    rng = np.random.default_rng(777)
    n_verified = 0
    for _ in range(50):
        n = int(rng.integers(3, 9))
        poly = random_convex_polygon(rng, n)
        n_clamped = int(rng.integers(1, n))
        g0 = set(rng.choice(n, size=n_clamped, replace=False).tolist())
        dom = polygon_domain(poly, gamma0_edges=g0)
        lo, hi = dom.bounding_box()
        pad = float(np.max(hi - lo))
        box = ((lo[0] - pad, lo[1] - pad), (hi[0] + pad, hi[1] + pad))
        lp = find_observer_point(dom, box)
        if lp.satisfied:
            assert check_condition_h(dom, lp.witness[0]).satisfied
            n_verified += 1
        else:
            # spot-check: box corners and center all fail the exact checker
            cx = (0.5 * (box[0][0] + box[1][0]), 0.5 * (box[0][1] + box[1][1]))
            for x0 in (box[0], box[1], cx):
                assert not check_condition_h(dom, x0).satisfied

        assert not check_condition_g(dom, MU).satisfied

    lens = lens_domain(math.radians(30))
    assert check_condition_g(lens, MU).satisfied
    _report(7, started,
            f"50 domains, {n_verified} LP witnesses re-verified; lens passes")


def test_criterion_8_stiffness_fidelity():
    started = time.time()
    uex = PolyField.monomial(2, 2)
    exact = bilinear_a(uex, uex, SQUARE, MU)
    assert abs(exact - 4.355555555555556) < 1e-12
    mesh = triangulate(SQUARE, 0.25)
    errors, sizes = [], []
    for _ in range(4):
        dofs = build_dof_map(mesh, 2)
        system = assemble(mesh, dofs, DAMPED_MAT)
        uI = dofs.interpolate(
            lambda x: x[..., 0] ** 2 * x[..., 1] ** 2)
        errors.append(abs(float(uI @ (system.K @ uI)) - exact))
        sizes.append(mesh.max_edge_length())
        mesh = refine(mesh)
    slope = np.polyfit(np.log(sizes), np.log(errors), 1)[0]
    assert slope >= 1.8
    assert errors[-1] < errors[0]
    _report(8, started, f"u'Ku -> {exact:.9f} at order {slope:.2f}")


def test_criterion_9_clamped_corner_gain_rejected():
    started = time.time()
    # corner 0 of this square sits between the two clamped edges
    with pytest.raises(InvalidArgumentError) as exc:
        unit_square_domain(gamma0_edges=(0, 3), corner_gains=(1.0, 0, 0, 0))
    assert exc.value.invariant == "clamped-corner-gain"

    from platedecay.cli import RunConfig
    cfg = {
        "domain": {
            "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]],
            "edges": [{"type": "segment", "label": 0},
                      {"type": "segment", "label": 1},
                      {"type": "segment", "label": 1},
                      {"type": "segment", "label": 0}],
        },
        "gains": [1.0, 0, 0, 0],
        "material": {"mu": 0.3, "rho": 1, "inertia": 1, "d1": 1, "d2": 1},
    }
    with pytest.raises(InvalidArgumentError) as exc:
        RunConfig.from_dict(cfg)
    assert exc.value.invariant == "clamped-corner-gain"
    _report(9, started, "clamped-interior corner gain rejected")
