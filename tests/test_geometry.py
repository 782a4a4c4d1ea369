import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from platedecay._polygon import random_convex_polygon
from platedecay.errors import (InvalidArgumentError, InvalidGeometryError,
                               MissingThresholdError)
from platedecay.geometry import (DomainSpec, EdgeSpec, GAMMA0, GAMMA1, arc,
                                 check_condition_g, check_condition_h,
                                 corner_angles, find_observer_point,
                                 lens_domain, polygon_domain, segment,
                                 unit_square_domain)


def test_unit_square_angles():
    angles = corner_angles(unit_square_domain())
    assert np.allclose(angles, math.pi / 2)


def test_l_shape_angles():
    dom = polygon_domain([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)],
                         gamma0_edges={0})
    angles = corner_angles(dom)
    expected = [math.pi / 2] * 6
    expected[3] = 3 * math.pi / 2  # reflex corner at (1, 1)
    assert np.allclose(angles, expected)


def test_lens_angles_against_finite_difference_tangents():
    target = math.radians(30)
    dom = lens_domain(target)
    angles = corner_angles(dom)
    assert np.allclose(angles, target, atol=1e-12)

    # oracle: finite-difference tangents of the arc parameterization
    eps = 1e-7
    for corner in range(2):
        i_in = (corner - 1) % 2
        i_out = corner
        t0, dt = dom.arc_sweep(i_in)
        p_end = dom.arc_point(i_in, t0 + dt)
        p_before = dom.arc_point(i_in, t0 + dt - eps * np.sign(dt))
        t_in = (p_end - p_before) / np.hypot(*(p_end - p_before))
        t0o, dto = dom.arc_sweep(i_out)
        p_start = dom.arc_point(i_out, t0o)
        p_after = dom.arc_point(i_out, t0o + eps * np.sign(dto))
        t_out = (p_after - p_start) / np.hypot(*(p_after - p_start))
        turn = math.atan2(t_in[0] * t_out[1] - t_in[1] * t_out[0],
                          t_in[0] * t_out[0] + t_in[1] * t_out[1])
        assert abs((math.pi - turn) - angles[corner]) < 1e-6


@given(n=st.integers(min_value=3, max_value=10),
       seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_convex_polygon_angle_sum(n, seed):
    rng = np.random.default_rng(seed)
    dom = polygon_domain(random_convex_polygon(rng, n), gamma0_edges={0})
    assert abs(corner_angles(dom).sum() - (n - 2) * math.pi) < 1e-12


def test_condition_g_square_fails_at_default_threshold():
    report = check_condition_g(unit_square_domain(), 0.3)
    assert not report.satisfied
    assert all(m < 0 for m in report.margins.values())


def test_condition_g_lens_30deg():
    report = check_condition_g(lens_domain(math.radians(30)), 0.3)
    assert report.satisfied


def test_condition_g_missing_threshold():
    with pytest.raises(MissingThresholdError):
        check_condition_g(unit_square_domain(), 0.25)


def test_condition_h_square_origin():
    dom = unit_square_domain(gamma0_edges=(0, 3))  # bottom and left clamped
    report = check_condition_h(dom, (0.0, 0.0))
    assert report.satisfied
    assert abs(report.witness[1] - 1.0) < 1e-14
    # clamped-side maximum of (x - x0).nu is exactly 0 here
    assert abs(max(-report.margins[f"edge_{i}"] for i in (0, 3))) < 1e-14


def test_condition_h_fails_when_clamped_side_faces_observer():
    dom = unit_square_domain(gamma0_edges=(1,))
    report = check_condition_h(dom, (0.0, 0.5))
    assert not report.satisfied


def test_condition_h_observer_on_damped_boundary():
    dom = unit_square_domain(gamma0_edges=(0, 3))
    report = check_condition_h(dom, (1.0, 0.5))  # on the right edge
    assert not report.satisfied
    assert report.witness[1] <= 0.0


def test_condition_h_arc_extrema_match_dense_sampling():
    dom = lens_domain(math.radians(30), label_lower=GAMMA0,
                      label_upper=GAMMA1)
    x0 = np.array([0.0, -0.35])
    report = check_condition_h(dom, x0)
    for i in range(2):
        t0, dt = dom.arc_sweep(i)
        thetas = t0 + dt * np.linspace(0, 1, 20001)
        vals = [(dom.arc_point(i, th) - x0) @ dom.arc_normal(i, th)
                for th in thetas]
        if dom.edges[i].label == GAMMA1:
            assert abs(report.margins[f"edge_{i}"] - min(vals)) < 1e-6
        else:
            assert abs(report.margins[f"edge_{i}"] + max(vals)) < 1e-6


@given(dx=st.floats(-50, 50), dy=st.floats(-50, 50))
@settings(max_examples=30, deadline=None)
def test_condition_h_translation_invariance(dx, dy):
    dom = unit_square_domain(gamma0_edges=(0, 3))
    moved = polygon_domain([(x + dx, y + dy) for x, y in dom.vertices],
                           gamma0_edges={0, 3})
    r0 = check_condition_h(dom, (0.2, -0.3))
    r1 = check_condition_h(moved, (0.2 + dx, -0.3 + dy))
    for key in r0.margins:
        assert abs(r0.margins[key] - r1.margins[key]) < 1e-9 * (
            1 + abs(dx) + abs(dy))


def test_find_observer_point_square_box_example():
    dom = unit_square_domain(gamma0_edges=(0, 3))
    report = find_observer_point(dom, ((-1, -1), (2, 2)))
    assert report.satisfied
    x0, gamma = report.witness
    assert np.allclose(x0, (-1, -1), atol=1e-9)
    assert abs(gamma - 2.0) < 1e-9


def test_find_observer_point_infeasible_split():
    dom = unit_square_domain(gamma0_edges=(1, 3))  # left and right clamped
    report = find_observer_point(dom, ((-5, -5), (6, 6)))
    assert not report.satisfied


def test_find_observer_point_without_damped_edge():
    # gamma is unbounded, as HiGHS reports it; the verdict stays unsatisfied
    dom = lens_domain(math.radians(30), label_upper=GAMMA0)
    report = find_observer_point(dom, ((-4, -4), (4, 4)))
    assert not report.satisfied and report.witness is None
    assert report.detail == "LP certificate: no damped edge, gamma unbounded"


def test_find_observer_point_empty_box():
    dom = unit_square_domain()
    with pytest.raises(InvalidArgumentError):
        find_observer_point(dom, ((1, 1), (1, 2)))


def test_lp_witness_consistency_random_polygons():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        poly = random_convex_polygon(rng, n)
        g0 = {int(rng.integers(0, n))}
        dom = polygon_domain(poly, gamma0_edges=g0)
        lo, hi = dom.bounding_box()
        pad = float(np.max(hi - lo))
        report = find_observer_point(dom, ((lo[0] - pad, lo[1] - pad),
                                           (hi[0] + pad, hi[1] + pad)))
        if report.satisfied:
            assert check_condition_h(dom, report.witness[0]).satisfied


def _observer_cases():
    """(domain, search box): 300 seeded random polygons with random clamped
    sets in their padded bounding boxes, the lens at four angles, and the
    square with a degenerate optimum and with an infeasible split."""
    rng = np.random.default_rng(2024)
    for _ in range(300):
        n = int(rng.integers(3, 9))
        poly = random_convex_polygon(rng, n)
        n_clamped = int(rng.integers(1, n))
        g0 = set(rng.choice(n, size=n_clamped, replace=False).tolist())
        dom = polygon_domain(poly, gamma0_edges=g0)
        lo, hi = dom.bounding_box()
        pad = float(np.max(hi - lo))
        yield dom, ((lo[0] - pad, lo[1] - pad), (hi[0] + pad, hi[1] + pad))
    for degrees in (20, 30, 60, 90):
        yield lens_domain(math.radians(degrees)), ((-4, -4), (4, 4))
    # optimum (-1, -1): the box's two lower bounds and the damped rows
    # of the right and top edges are all active
    yield unit_square_domain(gamma0_edges=(0, 3)), ((-1, -1), (2, 2))
    yield unit_square_domain(gamma0_edges=(1, 3)), ((-5, -5), (6, 6))


def test_observer_lp_matches_linprog(monkeypatch):
    from scipy.optimize import linprog

    import platedecay.geometry as geometry

    solved = []
    helper = geometry._max_gamma

    def spy(A, b):
        solved.append((A, b, helper(A, b)))
        return solved[-1][2]

    monkeypatch.setattr(geometry, "_max_gamma", spy)
    n_feasible = 0
    for dom, box in _observer_cases():
        report = find_observer_point(dom, box)
        A, b, z = solved[-1]
        oracle = linprog(c=[0.0, 0.0, -1.0], A_ub=A, b_ub=b,
                         bounds=[(None, None)] * 3, method="highs")
        assert oracle.status in (0, 2)  # optimal or infeasible
        assert (z is None) == (oracle.status == 2)
        if z is None:
            assert not report.satisfied and report.witness is None
            continue
        n_feasible += 1
        # an optimum: feasible, with the oracle's gamma
        assert abs(z[2] - oracle.x[2]) <= 1e-12
        assert np.max(A @ z - b) <= 1e-12
        # the oracle's point on straight domains, where the optimum is a
        # vertex; the symmetric lens at 20 degrees has a face of optima
        # (y0 = -4, |x0| <= 1.14e-3) and HiGHS stops at its other end
        if dom.is_straight():
            assert np.max(np.abs(z[:2] - oracle.x[:2])) <= 1e-12
        (x, y), _ = report.witness
        assert box[0][0] <= x <= box[1][0] and box[0][1] <= y <= box[1][1]
    assert len(solved) == 306 and 0 < n_feasible < 306


def test_gamma0_must_be_nonempty():
    with pytest.raises(InvalidGeometryError):
        polygon_domain([(0, 0), (1, 0), (0, 1)], gamma0_edges=set())


def test_clamped_interior_corner_gain_rejected():
    with pytest.raises(InvalidGeometryError):
        unit_square_domain(gamma0_edges=(0, 3), corner_gains=(1.0, 0, 0, 0))


def test_mixed_corner_gain_refused_at_domain_level():
    # corners 1 and 3 join a clamped edge to a free one: their vertex dofs
    # are eliminated, so a gain there could never act
    for gains in ((0, 0.5, 1, 0), (0, 0, 1, 0.5)):
        with pytest.raises(InvalidGeometryError) as info:
            unit_square_domain(gamma0_edges=(0, 3), corner_gains=gains)
        assert info.value.invariant == "clamped-corner-gain"
    dom = unit_square_domain(gamma0_edges=(0, 3), corner_gains=(0, 0, 1, 0))
    assert dom.corner_gains == (0.0, 0.0, 1.0, 0.0)


def test_clockwise_loop_rejected():
    with pytest.raises(InvalidGeometryError):
        polygon_domain([(0, 0), (0, 1), (1, 1), (1, 0)], gamma0_edges={0})


def test_self_intersecting_loop_rejected():
    with pytest.raises(InvalidGeometryError):
        polygon_domain([(0, 0), (1, 1), (1, 0), (0, 1)], gamma0_edges={0})


def test_degenerate_edge_rejected():
    with pytest.raises(InvalidGeometryError):
        polygon_domain([(0, 0), (0, 0), (1, 1)], gamma0_edges={0})


def test_arc_endpoint_off_circle_rejected():
    with pytest.raises(InvalidGeometryError):
        DomainSpec(vertices=((0, 0), (1, 0), (1, 1)),
                   edges=(segment(GAMMA0),
                          arc(GAMMA1, center=(5, 5), radius=1.0),
                          segment(GAMMA1)))


def test_zero_radius_arc_rejected():
    with pytest.raises(InvalidGeometryError):
        EdgeSpec("arc", GAMMA1, center=(0, 0), radius=0.0)
