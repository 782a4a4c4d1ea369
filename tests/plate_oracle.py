"""Symbolic plate functionals: the tests' oracle for the derivative table.

Every trace here is built as a ``PolyField`` per fixed normal and evaluated
afterwards, and every integral is a per-triangle or per-edge Gauss rule of
the integrand's own degree, as the package computed them before it
evaluated the functionals from one derivative table at the quadrature
nodes.  Straight-edge polygons only.
"""

import numpy as np

from platedecay.plate_forms import PolyField
from platedecay.quadrature import (map_to_segment, map_to_triangle,
                                   segment_rule, triangle_rule)


def q_density_field(u, mu):
    """The quadratic energy density of second derivatives, as a field."""
    u11, u22, u12 = u.second_derivatives()
    return (u11 * u11 + u22 * u22 + 2.0 * mu * (u11 * u22)
            + 2.0 * (1.0 - mu) * (u12 * u12))


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


def corner_jump(u, mu, point, nu_in, nu_out):
    """Twisting-moment jump (outgoing minus incoming) at a sharp corner."""
    return float(twisting_moment_field(u, mu, nu_out)(point)
                 - twisting_moment_field(u, mu, nu_in)(point))


def polygon_integral(field, polygon):
    """Signed-fan integral, one triangle at a time."""
    polygon = np.asarray(polygon, dtype=float)
    pts, w = triangle_rule(field.degree)
    total = 0.0
    for i in range(len(polygon) - 2):
        phys, pw = map_to_triangle(pts, w, polygon[[-1, i, i + 1]])
        total += float(pw @ field(phys))
    return total


def edge_integral(field, a, b):
    t, w = segment_rule(field.degree)
    phys, pw = map_to_segment(t, w, a, b)
    return float(pw @ field(phys))


def bilinear_a(u, v, polygon, mu):
    u11, u22, u12 = u.second_derivatives()
    v11, v22, v12 = v.second_derivatives()
    integrand = (u11 * v11 + u22 * v22 + mu * (u11 * v22 + u22 * v11)
                 + 2.0 * (1.0 - mu) * (u12 * v12))
    return polygon_integral(integrand, polygon)


def _boundary_work(u, w, domain, mu):
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
    polygon = np.asarray(domain.vertices, dtype=float)
    boundary, corners = _boundary_work(u, v, domain, mu)
    return {"volume": polygon_integral(u.biharmonic() * v, polygon),
            "a": bilinear_a(u, v, polygon, mu), "boundary": boundary,
            "corners": corners}


def multiplier_identity_terms(u, domain, mu, x0):
    polygon = np.asarray(domain.vertices, dtype=float)
    m1 = PolyField.monomial(1, 0) - x0[0]
    m2 = PolyField.monomial(0, 1) - x0[1]
    mgrad = m1 * u.dx1() + m2 * u.dx2()
    qfield = q_density_field(u, mu)
    q_flux = 0.0
    for i in range(domain.n_corners):
        a_pt, b_pt = domain.edge_endpoints(i)
        nu = domain.segment_normal(i)
        mdotnu = nu[0] * m1 + nu[1] * m2
        q_flux += 0.5 * edge_integral(mdotnu * qfield, a_pt, b_pt)
    boundary, corners = _boundary_work(u, mgrad, domain, mu)
    return {"volume": polygon_integral(u.biharmonic() * mgrad, polygon),
            "a": bilinear_a(u, u, polygon, mu), "q_flux": q_flux,
            "corners": corners, "boundary": boundary}
