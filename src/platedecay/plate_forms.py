"""Exact plate functionals on manufactured polynomial fields.

Everything here works on closed-form bivariate polynomials, so derivatives
are exact and integrals reduce to quadrature of provably sufficient order.
The module serves as the independent oracle for the finite-element side:
it evaluates the bending-energy form, the natural boundary operators, the
corner jumps of the twisting moment, and the residuals of the two
integration-by-parts identities (plain and multiplier form), which must
vanish to rounding for polynomial inputs on straight-edge polygons, as array
expressions in one derivative table per field at the quadrature nodes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

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
        c = np.zeros(tuple(np.max(list(terms) or [(0, 0)], axis=0) + 1))
        for (i, j), v in terms.items():
            c[i, j] = v
        return cls(c)

    @classmethod
    def random(cls, rng, degree):
        """Dense random polynomial of the given total degree, drawn by rows."""
        c = np.zeros((degree + 1, degree + 1))
        i, j = np.nonzero(np.flipud(np.tri(degree + 1)))  # i + j <= degree
        c[i, j] = rng.uniform(-1.0, 1.0, size=len(i))
        return cls(c)

    # -- algebra -------------------------------------------------------------

    @property
    def degree(self):
        i, j = np.nonzero(self.coeffs)
        return int(np.max(i + j, initial=0))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return npoly.polyval2d(x[..., 0], x[..., 1], self.coeffs)

    def dx1(self):
        return PolyField(npoly.polyder(self.coeffs, axis=0))

    def dx2(self):
        return PolyField(npoly.polyder(self.coeffs, axis=1))

    def laplacian(self):
        return self.dx1().dx1() + self.dx2().dx2()

    def biharmonic(self):
        return self.laplacian().laplacian()

    def second_derivatives(self):
        """(u_x1x1, u_x2x2, u_x1x2) as fields."""
        return self.dx1().dx1(), self.dx2().dx2(), self.dx1().dx2()

    def __add__(self, other):
        a, b = self.coeffs, _as_field(other).coeffs
        c = np.zeros(np.maximum(a.shape, b.shape))
        c[: a.shape[0], : a.shape[1]] += a
        c[: b.shape[0], : b.shape[1]] += b
        return PolyField(c)

    __radd__ = __add__

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

    __rmul__ = __mul__


def _as_field(v):
    return v if isinstance(v, PolyField) else PolyField.constant(v)


@dataclass(frozen=True)
class PlateMaterial:
    """Physical and feedback constants of the plate system.

    mu is the Poisson ratio, rho the linear boundary density, inertia the
    bending moment of inertia per unit boundary length, d1/d2 the damping
    gains on the normal-derivative and displacement velocity traces.  The
    decay theory assumes rho, inertia, d1, d2 > 0; zero values are accepted
    so conservative and limiting configurations remain expressible.  The
    defaults are those of a config's ``material`` section.
    """

    mu: float = 0.3
    rho: float = 1.0
    inertia: float = 1.0
    d1: float = 1.0
    d2: float = 1.0

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

# the rows of a derivative table: u's partials through order 3, keyed by
# (order in x1, order in x2), and Lap^2 u, each a sum of weighted partials
_ROWS = {**{k: ((k, 1.0),) for k in ((0, 0), (1, 0), (0, 1), (2, 0), (0, 2),
                                      (1, 1), (3, 0), (2, 1), (1, 2), (0, 3))},
         "biharmonic": (((4, 0), 1.0), ((2, 2), 2.0), ((0, 4), 1.0))}


@lru_cache(maxsize=None)
def _table_map(n, m):
    """The linear map from u's n x m coefficients to its table, read-only:
    entry (k, l rows + r) is monomial l's coefficient in row r of k's."""
    basis = np.eye(n * m).reshape(n, m, n * m)  # every monomial's coefficients
    op = np.zeros((n, m, n * m, len(_ROWS)))
    for r, terms in enumerate(_ROWS.values()):
        for (a, b), w in terms:
            d = npoly.polyder(npoly.polyder(basis, a, axis=0), b, axis=1)
            op[:d.shape[0], :d.shape[1], :, r] += w * d
    op = op.transpose(2, 0, 1, 3).reshape(n * m, -1)
    op.flags.writeable = False
    return op


class Partials:
    """The derivative table of a field u, tabulated once.  Calling it at
    points x (..., 2) evaluates every row with one Vandermonde product: a
    dict from the keys of ``_ROWS`` to arrays of x's leading shape."""

    def __init__(self, u):
        self.n, self.m = n, m = u.coeffs.shape
        self.table = (u.coeffs.ravel() @ _table_map(n, m)).reshape(n * m, -1)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        vander = ((x[..., :1] ** np.arange(self.n))[..., :, None]
                  * (x[..., 1:] ** np.arange(self.m))[..., None, :])
        values = vander.reshape(-1, self.n * self.m) @ self.table
        return dict(zip(_ROWS, values.T.reshape((len(_ROWS),) + x.shape[:-1])))


def _form(d, e, mu):
    """Density of a(u, v) from the tables d of u and e of v; q(u) if d = e."""
    return (d[2, 0] * e[2, 0] + d[0, 2] * e[0, 2]
            + mu * (d[2, 0] * e[0, 2] + d[0, 2] * e[2, 0])
            + 2.0 * (1.0 - mu) * d[1, 1] * e[1, 1])


def bending_moment(d, mu, n1, n2):
    """Co-normal bending moment Lap u + (1 - mu)(2 n1 n2 u_12 - n1^2 u_22 -
    n2^2 u_11) from the second partials in d and the normal's components;
    the one formula behind the exact traces and the Nitsche terms of K."""
    return d[2, 0] + d[0, 2] + (1.0 - mu) * (
        2.0 * n1 * n2 * d[1, 1] - n1 * n1 * d[0, 2] - n2 * n2 * d[2, 0])


def moments(d, mu, nu):
    """Bending moment, effective shear (the natural boundary operators) and
    twisting moment from a table d at nodes with unit normals nu (..., 2);
    the shear is d(Lap u)/dnu plus d(twisting)/dtau, tau = (-nu2, nu1)."""
    nu = np.asarray(nu, dtype=float)
    if np.any(np.abs(np.sum(nu * nu, axis=-1) - 1.0) > 1e-10):
        raise InvalidArgumentError("normal must be a unit vector",
                                   invariant="unit-normal")
    n1, n2 = nu[..., 0], nu[..., 1]
    bending = bending_moment(d, mu, n1, n2)

    def twisting(f11, f22, f12):
        return (1.0 - mu) * ((n1 * n1 - n2 * n2) * f12 + n1 * n2 * (f22 - f11))

    def dtau(a, b):
        return n1 * d[a, b + 1] - n2 * d[a + 1, b]

    shear = (n1 * (d[3, 0] + d[1, 2]) + n2 * (d[2, 1] + d[0, 3])
             + twisting(dtau(2, 0), dtau(0, 2), dtau(1, 1)))
    return bending, shear, twisting(d[2, 0], d[0, 2], d[1, 1])


def corner_jumps(d, mu, nu_in, nu_out):
    """Twisting-moment jumps (outgoing minus incoming) at corners with table
    d; coincident normals mean no corner: the jump is 0, with a warning."""
    flat = np.hypot(*(np.asarray(nu_out, float) - nu_in).T) <= 1e-12
    if np.any(flat):
        warnings.warn("flat corner: incoming and outgoing normals coincide",
                      FlatCornerWarning, stacklevel=2)
    twisting = moments(d, mu, np.stack([nu_out, nu_in]))[2]
    return np.where(flat, 0.0, twisting[0] - twisting[1])


def q_density(u, mu, x):
    """|u_11|^2 + |u_22|^2 + 2*mu*u_11*u_22 + 2*(1-mu)*|u_12|^2 at x."""
    d = Partials(u)(x)
    return float(_form(d, d, mu))


# ---------------------------------------------------------------------------
# integrals over the domain and its boundary
# ---------------------------------------------------------------------------

def _degrees(u):
    """Degrees of u's partials of orders 0 to 4.  A rule's degree is the sum
    of its factors' degrees, so every integral is exact for polynomials."""
    return [max(u.degree - k, 0) for k in range(5)]


def _fan_rule(polygon, degree):
    """Nodes (N, 2) and weights (N,) of the signed fan (p_{n-1}, p_i,
    p_{i+1}) of a simple CCW polygon, convex or not: it cancels outside."""
    fan = np.stack([np.broadcast_to(polygon[-1], polygon[1:-1].shape),
                    polygon[:-2], polygon[1:-1]], axis=1)
    x, w = map_to_triangle(*triangle_rule(degree), fan)
    return x.reshape(-1, 2), w.ravel()


def polygon_integral(field, polygon):
    """Exact integral of a polynomial field over a simple CCW polygon."""
    x, w = _fan_rule(np.asarray(polygon, dtype=float), field.degree)
    return float(w @ field(x))


class _Nodes:
    """A straight-edge polygon's fan rule (area, area_w), stacked edge rule
    (edge (p, q, 2), edge_w (p, q)) with outward normals (normal (p, 1, 2)),
    and vertices with the normals of the edges coming in and going out."""

    def __init__(self, domain, area_degree, edge_degree):
        if not domain.is_straight():
            raise InvalidArgumentError(
                "identity evaluation requires a straight-edge polygon",
                invariant="straight-edges")
        self.vertices = p = np.asarray(domain.vertices, dtype=float)
        self.nu_out = nu = np.array([domain.segment_normal(i)
                                     for i in range(len(p))])
        i = np.arange(len(p))
        self.nu_in, self.normal = nu[i - 1], nu[:, None, :]
        self.area, self.area_w = _fan_rule(p, area_degree)
        self.edge, self.edge_w = map_to_segment(*segment_rule(edge_degree), p,
                                                p[(i + 1) % len(p)])


def bilinear_a(u, v, domain, mu):
    """Bending-energy bilinear form a(u, v) over the domain, exact up to
    rounding on straight-edge domains; arcs become a fine polyline."""
    polygon = (np.asarray(domain.vertices, dtype=float) if domain.is_straight()
               else domain.polygonize(512)[0])
    x, w = _fan_rule(polygon, _degrees(u)[2] + _degrees(v)[2])
    return float(w @ _form(Partials(u)(x), Partials(v)(x), mu))


def _boundary_work(nodes, mu, u_edge, u_vertex, w_edge, w_vertex):
    """Boundary and corner terms of Green's formula for u against a test
    field w, from their tables at the edge nodes and vertices: the edge
    integral of shear * w - bending * dw/dnu, and the jumps times w."""
    bending, shear, _ = moments(u_edge, mu, nodes.normal)
    n1, n2 = nodes.normal[..., 0], nodes.normal[..., 1]
    w_nu = n1 * w_edge[1, 0] + n2 * w_edge[0, 1]
    jumps = corner_jumps(u_vertex, mu, nodes.nu_in, nodes.nu_out)
    work = nodes.edge_w * (shear * w_edge[0, 0] - bending * w_nu)
    return float(np.sum(work)), float(jumps @ w_vertex[0, 0])


def _residual(terms):
    """|volume minus the other terms| over the largest term; NaN stays NaN."""
    volume, *rest = terms.values()
    scale = np.max(np.abs(list(terms.values())))
    return float(abs(volume - sum(rest)) / scale) if scale != 0.0 else 0.0


def greens_identity_terms(u, v, domain, mu):
    """The four terms of the corner-augmented Green's formula, volume = a +
    boundary + corners: 'volume' = integral of (Lap^2 u) v, 'a' = a(u, v),
    'boundary' = integral of (shear * v - bending * dv/dnu), and 'corners' =
    sum of twisting-moment jumps times v at the corners."""
    du, dv = _degrees(u), _degrees(v)
    nodes = _Nodes(domain, max(du[4] + dv[0], du[2] + dv[2]),
                   max(du[3] + dv[0], du[2] + dv[1]))
    U, V = Partials(u), Partials(v)
    ua, va = U(nodes.area), V(nodes.area)
    boundary, corners = _boundary_work(nodes, mu, U(nodes.edge),
                                       U(nodes.vertices), V(nodes.edge),
                                       V(nodes.vertices))
    return {"volume": float(nodes.area_w @ (ua["biharmonic"] * va[0, 0])),
            "a": float(nodes.area_w @ _form(ua, va, mu)),
            "boundary": boundary, "corners": corners}


def greens_identity_residual(u, v, domain, mu):
    """Normalized residual of the corner-augmented Green's formula."""
    return _residual(greens_identity_terms(u, v, domain, mu))


def multiplier_identity_terms(u, domain, mu, x0):
    """Terms of the multiplier identity with test slot m.grad(u), m = x - x0,
    volume = a + q_flux + corners + boundary: 'volume' = integral of (Lap^2
    u)(m.grad u), 'a' = a(u, u), 'q_flux' = 1/2 integral of (m.nu) q(u),
    'corners' = jump terms against m.grad u, and 'boundary' = integral of
    shear*(m.grad u) - bending*d(m.grad u)/dnu."""
    du = _degrees(u)  # m.grad u has degree deg u, its gradient deg u - 1
    nodes = _Nodes(domain, max(du[4] + du[0], 2 * du[2]),
                   max(du[3] + du[0], du[2] + du[1], 1 + 2 * du[2]))

    def slot(d, x):
        """The table of m.grad u through first order from u's table d at x:
        grad(m.grad u) = grad u + (Hess u) m."""
        m1, m2 = x[..., 0] - x0[0], x[..., 1] - x0[1]
        return {(0, 0): m1 * d[1, 0] + m2 * d[0, 1],
                (1, 0): d[1, 0] + m1 * d[2, 0] + m2 * d[1, 1],
                (0, 1): d[0, 1] + m1 * d[1, 1] + m2 * d[0, 2]}

    U = Partials(u)
    ua, ue, uc = U(nodes.area), U(nodes.edge), U(nodes.vertices)
    m_nu = np.sum((nodes.edge - x0) * nodes.normal, axis=-1)
    boundary, corners = _boundary_work(nodes, mu, ue, uc, slot(ue, nodes.edge),
                                       slot(uc, nodes.vertices))
    return {"volume": float(nodes.area_w @ (ua["biharmonic"]
                                            * slot(ua, nodes.area)[0, 0])),
            "a": float(nodes.area_w @ _form(ua, ua, mu)),
            "q_flux": 0.5 * float(np.sum(nodes.edge_w * m_nu
                                         * _form(ue, ue, mu))),
            "corners": corners, "boundary": boundary}


def multiplier_identity_residual(u, domain, mu, x0):
    """Normalized residual of the multiplier identity."""
    return _residual(multiplier_identity_terms(u, domain, mu, x0))
