import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from platedecay._polygon import random_convex_polygon
from platedecay.errors import InvalidArgumentError
from platedecay.geometry import polygon_domain, unit_square_domain
from platedecay.plate_forms import (FlatCornerWarning, Partials,
                                    PlateMaterial, PolyField, bilinear_a,
                                    boundary_traces, corner_jump,
                                    greens_identity_residual,
                                    greens_identity_terms, moments,
                                    multiplier_identity_residual,
                                    multiplier_identity_terms,
                                    polygon_integral, q_density)

import plate_oracle as oracle

SQUARE = unit_square_domain(gamma0_edges=(0, 3))
MU = 0.3


def test_q_density_examples():
    assert q_density(PolyField.monomial(2, 0), MU, (0.4, 0.9)) == 4.0
    assert abs(q_density(PolyField.monomial(1, 1), MU, (0, 0)) - 1.4) < 1e-15
    both = PolyField.monomial(2, 0) + PolyField.monomial(0, 2)
    assert abs(q_density(both, MU, (0, 0)) - 10.4) < 1e-14


@given(seed=st.integers(0, 10_000),
       mu=st.floats(0.01, 0.49),
       deg=st.integers(1, 6))
@settings(max_examples=50, deadline=None)
def test_q_density_nonnegative(seed, mu, deg):
    rng = np.random.default_rng(seed)
    u = PolyField.random(rng, deg)
    x = rng.uniform(-2, 2, size=2)
    assert q_density(u, mu, x) >= 0.0


@given(seed=st.integers(0, 2**32 - 1), degree=st.integers(0, 6),
       mu=st.floats(0.01, 0.49))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_table_functionals_match_symbolic_fields(seed, degree, mu):
    # the derivative table against fields built per normal: over 3000 draws
    # at most 2.8e-14 of the largest value (the shear), so the bound leaves
    # a factor of 35; fields of degree below 2 must give exact zeros
    rng = np.random.default_rng(seed)
    u = PolyField.random(rng, degree)
    x = rng.uniform(-2.0, 2.0, size=(6, 2))
    theta = rng.uniform(0.0, 2.0 * np.pi)
    nu = np.array([np.cos(theta), np.sin(theta)])
    fields = (oracle.bending_trace_field, oracle.shear_trace_field,
              oracle.twisting_moment_field)
    for got, field in zip(moments(Partials(u)(x), mu, nu), fields):
        want = field(u, mu, nu)(x)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    want = oracle.q_density_field(u, mu)(x)
    got = [q_density(u, mu, point) for point in x]
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_identity_terms_match_symbolic_evaluation():
    # terms from the derivative table at the quadrature nodes against the
    # symbolic per-edge fields and per-element rules: over 500 cases of
    # this kind at most 2.4e-14 (Green's) and 3.8e-14 (multiplier) of the
    # largest term.  Degrees start at 2: below that every term can vanish
    # and the largest one is rounding.
    rng = np.random.default_rng(20)
    for _ in range(20):
        poly = random_convex_polygon(rng, int(rng.integers(3, 9)))
        dom = polygon_domain(poly, gamma0_edges={0})
        u, v = (PolyField.random(rng, int(rng.integers(2, 7)))
                for _ in range(2))
        mu = rng.uniform(0.05, 0.45)
        x0 = rng.uniform(-2.0, 2.0, size=2)
        for got, want in (
                (greens_identity_terms(u, v, dom, mu),
                 oracle.greens_identity_terms(u, v, dom, mu)),
                (multiplier_identity_terms(u, dom, mu, x0),
                 oracle.multiplier_identity_terms(u, dom, mu, x0))):
            assert list(got) == list(want)
            scale = max(abs(t) for t in want.values())
            for key in want:
                assert abs(got[key] - want[key]) <= 1e-12 * scale, key


def test_boundary_traces_examples():
    u = PolyField.monomial(2, 0)
    b1, b2, tw = boundary_traces(u, MU, (1.0, 0.5), (1.0, 0.0))
    assert (b1, b2, tw) == (2.0, 0.0, 0.0)
    b1, b2, tw = boundary_traces(u, MU, (0.5, 1.0), (0.0, 1.0))
    assert abs(b1 - 0.6) < 1e-15 and b2 == 0.0 and tw == 0.0
    assert boundary_traces(PolyField.zero(), MU, (0, 0), (1, 0)) == (0, 0, 0)


def test_boundary_traces_rejects_non_unit_normal():
    with pytest.raises(InvalidArgumentError):
        boundary_traces(PolyField.monomial(2, 0), MU, (0, 0), (1.0, 1.0))


def test_corner_jump_examples():
    jump = corner_jump(PolyField.monomial(1, 1), MU, (1, 1), (1, 0), (0, 1))
    assert abs(jump + 1.4) < 1e-15
    assert corner_jump(PolyField.monomial(2, 0), MU, (1, 1), (1, 0), (0, 1)) == 0
    assert corner_jump(PolyField.zero(), MU, (1, 1), (1, 0), (0, 1)) == 0


def test_corner_jump_flat_corner_warns():
    with pytest.warns(FlatCornerWarning):
        value = corner_jump(PolyField.monomial(1, 1), MU, (0.5, 0),
                            (0, -1), (0, -1))
    assert value == 0.0


def test_bilinear_a_examples():
    u = PolyField.monomial(2, 2)
    expected = 8 / 5 + 8 * MU / 9 + 32 * (1 - MU) / 9
    assert abs(bilinear_a(u, u, SQUARE, MU) - expected) < 1e-13
    cross = bilinear_a(PolyField.monomial(2, 0), PolyField.monomial(0, 2),
                       SQUARE, MU)
    assert abs(cross - 4 * MU) < 1e-14
    assert bilinear_a(PolyField.zero(), PolyField.zero(), SQUARE, MU) == 0.0


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_bilinear_a_positive_semidefinite(seed):
    rng = np.random.default_rng(seed)
    u = PolyField.random(rng, int(rng.integers(2, 6)))
    assert bilinear_a(u, u, SQUARE, MU) >= -1e-12


def test_bilinear_a_zero_only_for_affine():
    affine = PolyField.from_terms({(0, 0): 0.7, (1, 0): -1.3, (0, 1): 2.0})
    assert abs(bilinear_a(affine, affine, SQUARE, MU)) < 1e-14
    quad = PolyField.monomial(2, 0)
    assert bilinear_a(quad, quad, SQUARE, MU) > 1.0


def test_greens_identity_hand_case_square():
    u = PolyField.monomial(2, 0)
    terms = greens_identity_terms(u, u, SQUARE, MU)
    assert abs(terms["volume"]) < 1e-13
    assert abs(terms["a"] - 4.0) < 1e-13
    assert abs(terms["boundary"] + 4.0) < 1e-13
    assert abs(terms["corners"]) < 1e-13
    assert greens_identity_residual(u, u, SQUARE, MU) < 1e-14


def test_greens_identity_hand_case_quartic():
    u = PolyField.monomial(4, 0)
    one = PolyField.constant(1.0)
    terms = greens_identity_terms(u, one, SQUARE, MU)
    assert abs(terms["volume"] - 24.0) < 1e-12
    assert abs(terms["boundary"] - 24.0) < 1e-12
    assert abs(terms["a"]) < 1e-13
    assert greens_identity_residual(u, one, SQUARE, MU) < 1e-13


def test_greens_identity_zero_test_function():
    u = PolyField.monomial(3, 2)
    assert greens_identity_residual(u, PolyField.zero(), SQUARE, MU) == 0.0


def test_greens_identity_randomized():
    rng = np.random.default_rng(7)
    for _ in range(30):
        poly = random_convex_polygon(rng, int(rng.integers(3, 8)))
        dom = polygon_domain(poly, gamma0_edges={0})
        u = PolyField.random(rng, int(rng.integers(2, 6)))
        v = PolyField.random(rng, int(rng.integers(2, 6)))
        mu = rng.uniform(0.05, 0.45)
        assert greens_identity_residual(u, v, dom, mu) < 1e-10


def test_identity_residuals_keep_nan():
    # a residual that drops NaN would certify a field it cannot evaluate
    bad = PolyField.from_terms({(2, 0): math.nan, (1, 1): 1.0})
    good = PolyField.monomial(2, 0)
    assert math.isnan(greens_identity_residual(bad, good, SQUARE, MU))
    assert math.isnan(greens_identity_residual(good, bad, SQUARE, MU))
    assert math.isnan(multiplier_identity_residual(bad, SQUARE, MU, (0, 0)))


def test_multiplier_identity_hand_case():
    u = PolyField.monomial(2, 0)
    terms = multiplier_identity_terms(u, SQUARE, MU, (0.0, 0.0))
    assert abs(terms["volume"]) < 1e-13
    assert abs(terms["a"] - 4.0) < 1e-13
    assert abs(terms["q_flux"] - 4.0) < 1e-13
    assert abs(terms["boundary"] + 8.0) < 1e-13
    assert abs(terms["corners"]) < 1e-13
    assert multiplier_identity_residual(u, SQUARE, MU, (0, 0)) < 1e-14


def test_multiplier_identity_zero_field():
    assert multiplier_identity_residual(PolyField.zero(), SQUARE, MU,
                                        (0.3, 0.1)) == 0.0


def test_multiplier_identity_randomized():
    rng = np.random.default_rng(11)
    for _ in range(30):
        poly = random_convex_polygon(rng, int(rng.integers(3, 8)))
        dom = polygon_domain(poly, gamma0_edges={0})
        u = PolyField.random(rng, int(rng.integers(2, 5)))
        x0 = rng.uniform(-2, 2, size=2)
        mu = rng.uniform(0.05, 0.45)
        assert multiplier_identity_residual(u, dom, mu, x0) < 1e-10


def test_identity_linearity_in_u():
    rng = np.random.default_rng(3)
    dom = polygon_domain(random_convex_polygon(rng, 5), gamma0_edges={0})
    u1 = PolyField.random(rng, 4)
    u2 = PolyField.random(rng, 4)
    v = PolyField.random(rng, 3)
    t1 = greens_identity_terms(u1, v, dom, MU)
    t2 = greens_identity_terms(u2, v, dom, MU)
    t12 = greens_identity_terms(u1 + u2, v, dom, MU)
    for key in t1:
        scale = max(abs(t1[key]), abs(t2[key]), abs(t12[key]), 1.0)
        assert abs(t12[key] - t1[key] - t2[key]) < 1e-11 * scale


def test_identities_reject_arc_domains():
    from platedecay.geometry import lens_domain
    dom = lens_domain(math.radians(30))
    with pytest.raises(InvalidArgumentError):
        greens_identity_residual(PolyField.monomial(2, 0),
                                 PolyField.monomial(2, 0), dom, MU)


def test_polyfield_arithmetic_and_derivatives():
    u = PolyField.from_terms({(2, 1): 3.0, (0, 0): -1.0})
    x = np.array([0.5, 2.0])
    assert abs(u(x) - (3 * 0.25 * 2 - 1)) < 1e-15
    assert abs(u.dx1()(x) - 3 * 2 * 0.5 * 2) < 1e-15
    assert abs(u.dx2()(x) - 3 * 0.25) < 1e-15
    prod = u * u
    assert abs(prod(x) - u(x) ** 2) < 1e-13
    assert prod.degree == 6
    assert (u - u).degree == 0
    assert PolyField.monomial(4, 4).biharmonic().degree == 4


def test_polyfield_product_matches_convolve2d():
    # 2000 random pairs of up to 7 x 7 coefficients: measured at most
    # 7.6e-16 of max|product|; the bound leaves a factor of 5
    from scipy.signal import convolve2d

    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(2000):
        a, b = (rng.uniform(-1.0, 1.0, size=tuple(rng.integers(1, 8, size=2)))
                for _ in range(2))
        ref = convolve2d(a, b)
        got = (PolyField(a) * PolyField(b)).coeffs
        assert got.shape == ref.shape
        worst = max(worst, np.max(np.abs(got - ref)) / np.max(np.abs(ref)))
    assert worst <= 4e-15


def test_material_validation():
    with pytest.raises(InvalidArgumentError):
        PlateMaterial(mu=0.6, rho=1, inertia=1, d1=1, d2=1)
    with pytest.raises(InvalidArgumentError):
        PlateMaterial(mu=0.3, rho=-1, inertia=1, d1=1, d2=1)
    # zero damping and boundary constants are representable
    mat = PlateMaterial(mu=0.3, rho=0.0, inertia=0.0, d1=0.0, d2=0.0)
    assert mat.d1 == 0.0


@pytest.mark.parametrize("i, j, exact", [(0, 0, 3.0), (1, 0, 2.5),
                                         (2, 1, 11.0 / 6.0)])
def test_polygon_integral_signed_fan_on_l_shape(i, j, exact):
    # the fan from the last vertex (0, 2) has a clockwise triangle over the
    # notch, whose negative weights cancel the part outside the L
    l_shape = [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]
    value = polygon_integral(PolyField.monomial(i, j), l_shape)
    assert abs(value - exact) <= 1e-14 * exact
