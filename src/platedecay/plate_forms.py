"""Exact plate functionals on manufactured polynomial fields.

Everything here works on closed-form bivariate polynomials, so derivatives
are exact and integrals reduce to quadrature of provably sufficient order.
The module serves as the independent oracle for the finite-element side:
it evaluates the bending-energy form, the natural boundary operators, the
corner jumps of the twisting moment, and the residuals of the two
integration-by-parts identities (plain and multiplier form), which must
vanish to rounding for polynomial inputs on straight-edge polygons.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import InvalidArgumentError
from .quadrature import map_to_segment, map_to_triangle, segment_rule, triangle_rule


class FlatCornerWarning(UserWarning):
    """Emitted when a corner jump is requested at a flat (no-corner) point."""


@dataclass(frozen=True, eq=False)
class PolyField:
    """Bivariate polynomial sum(c[i, j] * x1**i * x2**j)."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_2d(np.asarray(self.coeffs, dtype=float))
        object.__setattr__(self, "coeffs", c)

    # -- construction -------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls(np.zeros((1, 1)))

    @classmethod
    def constant(cls, value):
        return cls(np.array([[float(value)]]))

    @classmethod
    def monomial(cls, i, j, coeff=1.0):
        c = np.zeros((i + 1, j + 1))
        c[i, j] = coeff
        return cls(c)

    @classmethod
    def from_terms(cls, terms):
        """Build from a {(i, j): coeff} mapping."""
        if not terms:
            return cls.zero()
        imax = max(i for i, _ in terms)
        jmax = max(j for _, j in terms)
        c = np.zeros((imax + 1, jmax + 1))
        for (i, j), v in terms.items():
            c[i, j] = v
        return cls(c)

    @classmethod
    def random(cls, rng, degree):
        """Dense random polynomial of the given total degree."""
        c = np.zeros((degree + 1, degree + 1))
        for i in range(degree + 1):
            for j in range(degree + 1 - i):
                c[i, j] = rng.uniform(-1.0, 1.0)
        return cls(c)

    # -- algebra -------------------------------------------------------------

    @property
    def degree(self):
        nz = np.argwhere(np.abs(self.coeffs) > 0.0)
        if nz.size == 0:
            return 0
        return int(np.max(nz.sum(axis=1)))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return npoly.polyval2d(x[..., 0], x[..., 1], self.coeffs)

    def dx1(self):
        c = self.coeffs
        if c.shape[0] == 1:
            return PolyField.zero()
        return PolyField(c[1:, :] * np.arange(1, c.shape[0])[:, None])

    def dx2(self):
        c = self.coeffs
        if c.shape[1] == 1:
            return PolyField.zero()
        return PolyField(c[:, 1:] * np.arange(1, c.shape[1])[None, :])

    def laplacian(self):
        return self.dx1().dx1() + self.dx2().dx2()

    def biharmonic(self):
        return self.laplacian().laplacian()

    def second_derivatives(self):
        """(u_x1x1, u_x2x2, u_x1x2) as fields."""
        return self.dx1().dx1(), self.dx2().dx2(), self.dx1().dx2()

    def __add__(self, other):
        a, b = self.coeffs, _as_field(other).coeffs
        n = max(a.shape[0], b.shape[0])
        m = max(a.shape[1], b.shape[1])
        c = np.zeros((n, m))
        c[: a.shape[0], : a.shape[1]] += a
        c[: b.shape[0], : b.shape[1]] += b
        return PolyField(c)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return PolyField(-self.coeffs)

    def __sub__(self, other):
        return self.__add__(-_as_field(other))

    def __mul__(self, other):
        if np.isscalar(other):
            return PolyField(self.coeffs * float(other))
        # Kronecker substitution: zero-padded to the product's width m,
        # c[i, j] sits at i m + j, so a 1-D convolution is the 2-D one
        a, b = self.coeffs, _as_field(other).coeffs
        n, m = a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1
        pa, pb = np.zeros((a.shape[0], m)), np.zeros((b.shape[0], m))
        pa[:, : a.shape[1]], pb[:, : b.shape[1]] = a, b
        product = np.convolve(pa.ravel(), pb.ravel())[: n * m]
        return PolyField(product.reshape(n, m))

    def __rmul__(self, other):
        return self.__mul__(other)


def _as_field(v):
    return v if isinstance(v, PolyField) else PolyField.constant(v)


@dataclass(frozen=True)
class PlateMaterial:
    """Physical and feedback constants of the plate system.

    mu is the Poisson ratio, rho the linear boundary density, inertia the
    bending moment of inertia per unit boundary length, d1/d2 the damping
    gains on the normal-derivative and displacement velocity traces.  The
    decay theory assumes rho, inertia, d1, d2 > 0; zero values are accepted
    so conservative and limiting configurations remain expressible.
    """

    mu: float
    rho: float
    inertia: float
    d1: float
    d2: float

    def __post_init__(self):
        if not 0.0 < self.mu < 0.5:
            raise InvalidArgumentError("Poisson ratio must lie in (0, 1/2)",
                                       invariant="poisson-ratio")
        for name in ("rho", "inertia", "d1", "d2"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidArgumentError(f"{name} must be finite",
                                           invariant=f"{name}-finite")
            if getattr(self, name) < 0.0:
                raise InvalidArgumentError(f"{name} must be >= 0",
                                           invariant=f"{name}-nonnegative")


# ---------------------------------------------------------------------------
# pointwise functionals
# ---------------------------------------------------------------------------

def _check_unit(normal):
    nu = np.asarray(normal, dtype=float)
    if abs(float(nu @ nu) - 1.0) > 1e-10:
        raise InvalidArgumentError("normal must be a unit vector",
                                   invariant="unit-normal")
    return nu


def q_density_field(u, mu):
    """The quadratic energy density of second derivatives, as a field."""
    u11, u22, u12 = u.second_derivatives()
    return (u11 * u11 + u22 * u22 + 2.0 * mu * (u11 * u22)
            + 2.0 * (1.0 - mu) * (u12 * u12))


def q_density(u, mu, x):
    """|u_11|^2 + |u_22|^2 + 2*mu*u_11*u_22 + 2*(1-mu)*|u_12|^2 at x."""
    return float(q_density_field(u, mu)(np.asarray(x, dtype=float)))


def bending_trace_field(u, mu, normal):
    """First natural boundary operator (co-normal bending moment) as a field."""
    nu = np.asarray(normal, dtype=float)
    u11, u22, u12 = u.second_derivatives()
    bracket = 2.0 * nu[0] * nu[1] * u12 - nu[0] ** 2 * u22 - nu[1] ** 2 * u11
    return u.laplacian() + (1.0 - mu) * bracket


def twisting_moment_field(u, mu, normal):
    """Twisting moment along an edge with the given fixed normal."""
    nu = np.asarray(normal, dtype=float)
    u11, u22, u12 = u.second_derivatives()
    return (1.0 - mu) * ((nu[0] ** 2 - nu[1] ** 2) * u12
                         + nu[0] * nu[1] * (u22 - u11))


def shear_trace_field(u, mu, normal):
    """Second natural boundary operator (effective transverse shear).

    Combines the normal derivative of the Laplacian with the tangential
    derivative of the twisting-moment bracket; tau = (-nu2, nu1).
    """
    nu = np.asarray(normal, dtype=float)
    tau = np.array([-nu[1], nu[0]])
    lap = u.laplacian()
    dn_lap = nu[0] * lap.dx1() + nu[1] * lap.dx2()
    tw = twisting_moment_field(u, mu, nu)
    dt_tw = tau[0] * tw.dx1() + tau[1] * tw.dx2()
    return dn_lap + dt_tw


def boundary_traces(u, mu, x, normal):
    """(bending moment, effective shear, twisting moment) at point x."""
    nu = _check_unit(normal)
    x = np.asarray(x, dtype=float)
    b1 = float(bending_trace_field(u, mu, nu)(x))
    b2 = float(shear_trace_field(u, mu, nu)(x))
    tw = float(twisting_moment_field(u, mu, nu)(x))
    return b1, b2, tw


def corner_jump(u, mu, point, nu_in, nu_out):
    """Jump of the twisting moment across a corner (outgoing minus incoming).

    Normals belong to the edges meeting at the corner under counterclockwise
    traversal.  Coincident normals mean no corner: returns 0 and warns.
    """
    nu_in = _check_unit(nu_in)
    nu_out = _check_unit(nu_out)
    point = np.asarray(point, dtype=float)
    if float(np.hypot(*(nu_out - nu_in))) <= 1e-12:
        warnings.warn("flat corner: incoming and outgoing normals coincide",
                      FlatCornerWarning, stacklevel=2)
        return 0.0
    m_out = float(twisting_moment_field(u, mu, nu_out)(point))
    m_in = float(twisting_moment_field(u, mu, nu_in)(point))
    return m_out - m_in


# ---------------------------------------------------------------------------
# integrals over the domain and its boundary
# ---------------------------------------------------------------------------

def polygon_integral(field, polygon):
    """Exact integral of a polynomial field over a simple CCW polygon, convex
    or not: the signed fan (p_{n-1}, p_i, p_{i+1}) cancels outside it."""
    polygon = np.asarray(polygon, dtype=float)
    pts, w = triangle_rule(field.degree)
    total = 0.0
    for i in range(len(polygon) - 2):
        phys, pw = map_to_triangle(pts, w, polygon[[-1, i, i + 1]])
        total += float(pw @ field(phys))
    return total


def edge_integral(field, a, b):
    """Exact line integral of a polynomial field along segment a-b."""
    t, w = segment_rule(field.degree)
    phys, pw = map_to_segment(t, w, a, b)
    return float(pw @ field(phys))


def _straight_polygon(domain):
    if not domain.is_straight():
        raise InvalidArgumentError(
            "identity evaluation requires a straight-edge polygon",
            invariant="straight-edges")
    return np.asarray(domain.vertices, dtype=float)


def _domain_polygon(domain, arc_points=512):
    if domain.is_straight():
        return np.asarray(domain.vertices, dtype=float)
    pts, _ = domain.polygonize(arc_points)
    return pts


def bilinear_a(u, v, domain, mu):
    """Bending-energy bilinear form a(u, v) over the domain.

    Quadrature order follows the combined polynomial degree, so the result
    is exact up to rounding on straight-edge domains; arcs are approximated
    by a fine polyline.
    """
    u11, u22, u12 = u.second_derivatives()
    v11, v22, v12 = v.second_derivatives()
    integrand = (u11 * v11 + u22 * v22 + mu * (u11 * v22 + u22 * v11)
                 + 2.0 * (1.0 - mu) * (u12 * v12))
    return polygon_integral(integrand, _domain_polygon(domain))


def _boundary_work(u, w, domain, mu):
    """Boundary and corner terms of Green's formula against the test field w
    on a straight-edge polygon: the edge integral of (shear * w - bending *
    dw/dnu), and the sum of twisting-moment jumps times w at the corners."""
    p = domain.n_corners
    boundary = 0.0
    for i in range(p):
        a_pt, b_pt = domain.edge_endpoints(i)
        nu = domain.segment_normal(i)
        b1 = bending_trace_field(u, mu, nu)
        b2 = shear_trace_field(u, mu, nu)
        integrand = b2 * w - b1 * (nu[0] * w.dx1() + nu[1] * w.dx2())
        boundary += edge_integral(integrand, a_pt, b_pt)
    corners = 0.0
    for i in range(p):  # edge i - 1 comes into vertex i, edge i leaves it
        pt = np.asarray(domain.vertices[i])
        corners += corner_jump(u, mu, pt, domain.segment_normal((i - 1) % p),
                               domain.segment_normal(i)) * float(w(pt))
    return boundary, corners


def greens_identity_terms(u, v, domain, mu):
    """The four terms of the corner-augmented Green's formula.

    Returns a dict with 'volume' = integral of (Lap^2 u) v, 'a' = a(u, v),
    'boundary' = integral of (shear * v - bending * dv/dnu), and 'corners' =
    sum of twisting-moment jumps times v at the corners.  The identity says
    volume = a + boundary + corners.
    """
    polygon = _straight_polygon(domain)
    volume = polygon_integral(u.biharmonic() * v, polygon)
    a_uv = bilinear_a(u, v, domain, mu)
    boundary, corners = _boundary_work(u, v, domain, mu)
    return {"volume": volume, "a": a_uv, "boundary": boundary,
            "corners": corners}


def greens_identity_residual(u, v, domain, mu):
    """Normalized residual of the corner-augmented Green's formula."""
    t = greens_identity_terms(u, v, domain, mu)
    resid = t["volume"] - t["a"] - t["boundary"] - t["corners"]
    scale = max(abs(t["volume"]), abs(t["a"]), abs(t["boundary"]),
                abs(t["corners"]))
    return abs(resid) / scale if scale > 0.0 else 0.0


def multiplier_identity_terms(u, domain, mu, x0):
    """Terms of the multiplier identity with test slot m.grad(u), m = x - x0.

    Returns 'volume' = integral of (Lap^2 u)(m.grad u), 'a' = a(u, u),
    'q_flux' = 1/2 integral of (m.nu) q(u), 'corners' = jump terms against
    m.grad u, and 'boundary' = integral of shear*(m.grad u) -
    bending*d(m.grad u)/dnu.  The identity: volume = a + q_flux + corners
    + boundary.
    """
    polygon = _straight_polygon(domain)
    x0 = np.asarray(x0, dtype=float)
    m1 = PolyField.monomial(1, 0) - x0[0]
    m2 = PolyField.monomial(0, 1) - x0[1]
    mgrad = m1 * u.dx1() + m2 * u.dx2()

    volume = polygon_integral(u.biharmonic() * mgrad, polygon)
    a_uu = bilinear_a(u, u, domain, mu)
    qfield = q_density_field(u, mu)
    q_flux = 0.0
    for i in range(domain.n_corners):
        a_pt, b_pt = domain.edge_endpoints(i)
        nu = domain.segment_normal(i)
        mdotnu = nu[0] * m1 + nu[1] * m2
        q_flux += 0.5 * edge_integral(mdotnu * qfield, a_pt, b_pt)
    boundary, corners = _boundary_work(u, mgrad, domain, mu)
    return {"volume": volume, "a": a_uu, "q_flux": q_flux,
            "corners": corners, "boundary": boundary}


def multiplier_identity_residual(u, domain, mu, x0):
    """Normalized residual of the multiplier identity."""
    t = multiplier_identity_terms(u, domain, mu, x0)
    resid = t["volume"] - t["a"] - t["q_flux"] - t["corners"] - t["boundary"]
    scale = max(abs(val) for val in t.values())
    return abs(resid) / scale if scale > 0.0 else 0.0
