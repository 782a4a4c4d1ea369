"""Gauss-Legendre quadrature on segments and triangles.

Triangle rules come from a tensor Gauss rule pushed through the Duffy map
x = s, y = t*(1-s), which is exact for polynomials once the 1D rules cover
the collapsed degrees.  All rules are reported on reference elements:
the unit interval [0, 1] and the unit triangle {(x, y): x, y >= 0, x+y <= 1}.
"""

import numpy as np


def gauss_01(n):
    """n-point Gauss-Legendre rule on [0, 1]; exact for degree 2n-1."""
    x, w = np.polynomial.legendre.leggauss(int(n))
    return 0.5 * (x + 1.0), 0.5 * w


def segment_rule(degree):
    """Points/weights on [0,1] exact for 1D polynomials of given degree."""
    n = max(1, (int(degree) + 2) // 2)
    return gauss_01(n)


def triangle_rule(degree):
    """Duffy-mapped tensor rule on the unit triangle, exact for total degree.

    Returns (points (q, 2), weights (q,)); weights sum to 1/2.
    """
    d = max(0, int(degree))
    ns = (d + 3) // 2  # covers degree d+1 in s (Jacobian adds one)
    nt = (d + 2) // 2  # covers degree d in t
    s, ws = gauss_01(max(1, ns))
    t, wt = gauss_01(max(1, nt))
    S, T = np.meshgrid(s, t, indexing="ij")
    WS, WT = np.meshgrid(ws, wt, indexing="ij")
    x = S
    y = T * (1.0 - S)
    w = WS * WT * (1.0 - S)
    pts = np.stack([x.ravel(), y.ravel()], axis=1)
    return pts, w.ravel()


def map_to_triangle(points, weights, tri):
    """Map a reference-triangle rule to the physical triangle ``tri`` (3, 2);
    the weights carry the signed Jacobian, negative for a clockwise ``tri``."""
    tri = np.asarray(tri, dtype=float)
    a, b, c = tri
    jac = np.array([[b[0] - a[0], c[0] - a[0]],
                    [b[1] - a[1], c[1] - a[1]]])
    det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
    phys = a[None, :] + points @ jac.T
    return phys, weights * det


def map_to_segment(points, weights, a, b):
    """Map a [0,1] rule to the segment from a to b; weights carry the length."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    length = float(np.hypot(*(b - a)))
    phys = a[None, :] + points[:, None] * (b - a)[None, :]
    return phys, weights * length
