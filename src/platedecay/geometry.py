"""Curvilinear polygonal domains and the two geometric hypotheses.

A domain is a counterclockwise loop of straight segments and circular arcs.
Each boundary edge is labeled clamped (GAMMA0) or damped/free (GAMMA1), and
each corner carries a feedback gain.  The module checks

* the small-corner-angle condition: every interior angle below a
  Poisson-ratio-dependent threshold (known thresholds are tabulated, never
  extrapolated), and
* the observer-point condition: existence of x0 with (x - x0).nu >= gamma > 0
  on the damped part and <= 0 on the clamped part,

including an LP-based search for the observer point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._polygon import polygon_is_simple, signed_area
from .errors import InvalidArgumentError, SolverError

GAMMA0 = 0  # clamped boundary portion
GAMMA1 = 1  # free portion carrying the damped flange

#: Known corner-angle thresholds, radians, keyed by Poisson ratio.  The
#: single tabulated entry is the published value for mu = 0.3; any other
#: ratio raises InvalidArgumentError (``threshold-known``).
OMEGA0_TABLE = {0.3: math.radians(52.054347)}

_TOL = 1e-9
_ARC_SAMPLES = 256  # LP constraint points per arc of the observer search
_LP_PIVOTS_PER_ROW = 50  # guard only: Bland's rule terminates


@dataclass(frozen=True)
class EdgeSpec:
    """One boundary edge: a straight segment or a circular arc.

    Arcs store their center and radius; ``ccw`` tells whether the arc runs
    counterclockwise around its own center as the boundary is traversed.
    """

    kind: str  # "segment" | "arc"
    label: int  # GAMMA0 | GAMMA1
    center: tuple[float, float] | None = None
    radius: float | None = None
    ccw: bool = True

    def __post_init__(self):
        if self.kind not in ("segment", "arc"):
            raise InvalidArgumentError(f"unknown edge kind {self.kind!r}",
                                       invariant="edge-kind")
        if self.label not in (GAMMA0, GAMMA1):
            raise InvalidArgumentError(f"edge label must be 0 or 1, got {self.label!r}",
                                       invariant="edge-label")
        if self.kind == "arc":
            if self.center is None or self.radius is None:
                raise InvalidArgumentError("arc edge needs center and radius",
                                           invariant="arc-data")
            if not all(math.isfinite(c) for c in self.center):
                raise InvalidArgumentError("arc center must be finite",
                                           invariant="center-finite")
            if not math.isfinite(self.radius):
                raise InvalidArgumentError("arc radius must be finite",
                                           invariant="radius-finite")
            if not self.radius > 0:
                raise InvalidArgumentError("arc radius must be positive",
                                           invariant="arc-radius")


def segment(label):
    return EdgeSpec("segment", label)


def arc(label, center, radius, ccw=True):
    return EdgeSpec("arc", label, center=tuple(map(float, center)),
                    radius=float(radius), ccw=bool(ccw))


@dataclass(frozen=True)
class DomainSpec:
    """Curvilinear polygon with labeled boundary and corner feedback gains.

    ``vertices[i]`` starts ``edges[i]``; edge i ends at vertex (i+1) mod p.
    Validated on construction: single closed CCW simple loop, clamped part
    non-empty, and the only check of the corner gains: one per corner
    (``gain-count``), each finite (``gain-finite``) and >= 0
    (``gain-nonnegative``), and zero at every corner that touches the
    clamped closure (``clamped-corner-gain``, see
    ``corner_in_clamped_closure``).
    """

    vertices: tuple
    edges: tuple
    corner_gains: tuple = None

    def __post_init__(self):
        verts = tuple((float(x), float(y)) for x, y in self.vertices)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "edges", tuple(self.edges))
        gains = self.corner_gains
        if gains is None:
            gains = (0.0,) * len(verts)
        object.__setattr__(self, "corner_gains", tuple(float(g) for g in gains))
        self._validate()

    # -- structure ---------------------------------------------------------

    @property
    def n_corners(self):
        return len(self.vertices)

    def edge_endpoints(self, i):
        p = self.n_corners
        return (np.asarray(self.vertices[i % p]),
                np.asarray(self.vertices[(i + 1) % p]))

    def arc_sweep(self, i):
        """(theta_start, dtheta) of arc edge i around its center.

        dtheta is positive for ccw arcs, negative for cw arcs.
        """
        e = self.edges[i]
        a, b = self.edge_endpoints(i)
        c = np.asarray(e.center)
        t0 = math.atan2(a[1] - c[1], a[0] - c[0])
        t1 = math.atan2(b[1] - c[1], b[0] - c[0])
        if e.ccw:
            dt = (t1 - t0) % (2.0 * math.pi)
            if dt == 0.0:
                dt = 2.0 * math.pi
        else:
            dt = -((t0 - t1) % (2.0 * math.pi))
            if dt == 0.0:
                dt = -2.0 * math.pi
        return t0, dt

    def arc_point(self, i, theta):
        e = self.edges[i]
        c = np.asarray(e.center)
        return c + e.radius * np.array([math.cos(theta), math.sin(theta)])

    def arc_normal(self, i, theta):
        """Outward unit normal of arc edge i at angle theta."""
        sgn = 1.0 if self.edges[i].ccw else -1.0
        return sgn * np.array([math.cos(theta), math.sin(theta)])

    def edge_tangent(self, i, at_start):
        """Unit tangent in the direction of traversal at an edge endpoint."""
        e = self.edges[i]
        a, b = self.edge_endpoints(i)
        if e.kind == "segment":
            t = b - a
            return t / np.hypot(*t)
        t0, dt = self.arc_sweep(i)
        theta = t0 if at_start else t0 + dt
        sgn = 1.0 if e.ccw else -1.0
        return sgn * np.array([-math.sin(theta), math.cos(theta)])

    def segment_normal(self, i):
        """Outward unit normal of straight edge i (interior lies on the left)."""
        if self.edges[i].kind != "segment":
            raise InvalidArgumentError(f"edge {i} is not a segment",
                                       invariant="edge-kind")
        t = self.edge_tangent(i, True)
        return np.array([t[1], -t[0]])

    def is_straight(self):
        return all(e.kind == "segment" for e in self.edges)

    def corner_labels(self, i):
        """Labels of the incoming and outgoing edges at corner i."""
        p = self.n_corners
        return self.edges[(i - 1) % p].label, self.edges[i].label

    def corner_in_clamped_closure(self, i):
        lin, lout = self.corner_labels(i)
        return lin == GAMMA0 or lout == GAMMA0

    def polygonize(self, arc_points=64):
        """Polyline approximation: (points (n,2), source edge index per chord)."""
        pts, src = [], []
        for i, e in enumerate(self.edges):
            a, _ = self.edge_endpoints(i)
            if e.kind == "segment":
                pts.append(a)
                src.append(i)
            else:
                t0, dt = self.arc_sweep(i)
                thetas = t0 + dt * np.arange(arc_points) / arc_points
                for th in thetas:
                    pts.append(self.arc_point(i, th))
                    src.append(i)
        return np.array(pts), np.array(src, dtype=int)

    def bounding_box(self):
        pts, _ = self.polygonize(256)
        return pts.min(axis=0), pts.max(axis=0)

    # -- validation ---------------------------------------------------------

    def _validate(self):
        if not np.all(np.isfinite(self.vertices)):
            raise InvalidArgumentError("domain vertices must be finite",
                                       invariant="vertex-finite")
        p = len(self.vertices)
        if p < 2:
            raise InvalidArgumentError("domain needs at least 2 corners",
                                       invariant="corner-count")
        if len(self.edges) != p:
            raise InvalidArgumentError(
                f"{p} vertices need {p} edges, got {len(self.edges)}",
                invariant="loop-closure")
        if len(self.corner_gains) != p:
            raise InvalidArgumentError("one feedback gain per corner required",
                                       invariant="gain-count")
        if not any(e.label == GAMMA0 for e in self.edges):
            raise InvalidArgumentError("clamped part of the boundary is empty",
                                       invariant="gamma0-nonempty")
        scale = max(1.0, float(np.max(np.abs(np.asarray(self.vertices)))))
        for i, e in enumerate(self.edges):
            a, b = self.edge_endpoints(i)
            if e.kind == "segment":
                if np.hypot(*(b - a)) <= _TOL * scale:
                    raise InvalidArgumentError(f"edge {i} has zero length",
                                               invariant="edge-degenerate")
            else:
                c = np.asarray(e.center)
                for (name, q) in (("start", a), ("end", b)):
                    r = np.hypot(*(q - c))
                    if abs(r - e.radius) > 1e-7 * max(e.radius, scale):
                        raise InvalidArgumentError(
                            f"arc edge {i}: {name} point is off the circle "
                            f"(|P-c| = {r:.12g}, radius = {e.radius:.12g})",
                            invariant="arc-endpoints")
        for i in range(p):
            if not math.isfinite(self.corner_gains[i]):
                raise InvalidArgumentError(f"corner {i}: gain must be finite",
                                           invariant="gain-finite")
            if self.corner_gains[i] < 0:
                raise InvalidArgumentError(f"corner {i}: gain must be >= 0",
                                           invariant="gain-nonnegative")
            if self.corner_gains[i] != 0 and self.corner_in_clamped_closure(i):
                raise InvalidArgumentError(
                    f"corner {i} touches the clamped boundary, where its "
                    "vertex dof is eliminated; its feedback gain must be 0",
                    invariant="clamped-corner-gain")
        pts, _ = self.polygonize(64)
        if signed_area(pts) <= 0:
            raise InvalidArgumentError("boundary loop must be counterclockwise",
                                       invariant="loop-orientation")
        if not polygon_is_simple(pts):
            raise InvalidArgumentError("boundary loop is self-intersecting",
                                       invariant="loop-simple")


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of a geometric hypothesis check.

    ``margins`` holds the per-corner or per-edge slack whose positivity the
    verdict requires; ``witness`` is the observer point and its gamma for the
    observer-point condition.  ``tolerance`` is the conservative sampling
    slack applied to arc constraints (0 for straight domains).
    """

    condition: str
    satisfied: bool
    margins: dict
    witness: tuple | None = None
    tolerance: float = 0.0
    detail: str = ""

    def to_dict(self):
        out = {
            "condition": self.condition,
            "satisfied": bool(self.satisfied),
            "margins": {k: float(v) for k, v in self.margins.items()},
            "tolerance": float(self.tolerance),
            "detail": self.detail,
        }
        if self.witness is not None:
            x0, gamma = self.witness
            out["witness"] = {"x0": [float(x0[0]), float(x0[1])],
                              "gamma": float(gamma)}
        return out


# ---------------------------------------------------------------------------
# corner angles and condition (G)
# ---------------------------------------------------------------------------

def corner_angles(domain):
    """Interior angle at each corner, radians, in (0, 2*pi).

    The angle is measured between the incoming and outgoing tangents of the
    two edges meeting at the corner (true arc tangents for arc edges).
    """
    p = domain.n_corners
    angles = np.empty(p)
    for i in range(p):
        t_in = domain.edge_tangent((i - 1) % p, at_start=False)
        t_out = domain.edge_tangent(i, at_start=True)
        turn = math.atan2(t_in[0] * t_out[1] - t_in[1] * t_out[0],
                          t_in[0] * t_out[0] + t_in[1] * t_out[1])
        angle = math.pi - turn
        if angle <= 0.0 or angle >= 2.0 * math.pi:
            raise InvalidArgumentError(f"corner {i}: degenerate interior angle",
                                       invariant="corner-angle")
        angles[i] = angle
    return angles


def _lookup_omega0(mu):
    for key, val in OMEGA0_TABLE.items():
        if abs(key - mu) <= 1e-12:
            return float(val)
    raise InvalidArgumentError(
        f"no corner-angle threshold tabulated for Poisson ratio {mu}; "
        f"known ratios: {sorted(OMEGA0_TABLE)}",
        invariant="threshold-known")


def check_condition_g(domain, mu):
    """All interior angles below the tabulated threshold omega0(mu).

    A ratio absent from ``OMEGA0_TABLE`` raises InvalidArgumentError
    (``threshold-known``): the threshold is never guessed.
    """
    if not 0.0 < mu < 0.5:
        raise InvalidArgumentError("Poisson ratio must lie in (0, 1/2)",
                                   invariant="poisson-ratio")
    omega0 = _lookup_omega0(mu)
    angles = corner_angles(domain)
    margins = {f"corner_{i}": omega0 - a for i, a in enumerate(angles)}
    return ConditionReport(
        condition="G",
        satisfied=all(m > 0 for m in margins.values()),
        margins=margins,
        detail=f"omega0 = {math.degrees(omega0):.6f} deg",
    )


# ---------------------------------------------------------------------------
# condition (H)
# ---------------------------------------------------------------------------

def _arc_mdotnu_extrema(domain, i, x0):
    """Exact (min, max) of (x - x0).nu over arc edge i."""
    e = domain.edges[i]
    c = np.asarray(e.center)
    sgn = 1.0 if e.ccw else -1.0
    # (x - x0).nu = sgn * ((c - x0).u(theta) + r), u = (cos, sin)
    A, B = c[0] - x0[0], c[1] - x0[1]
    t0, dt = domain.arc_sweep(i)
    t1 = t0 + dt
    cands = [t0, t1]
    crit = math.atan2(B, A)
    for theta in (crit, crit + math.pi):
        # shift into the traversed parameter interval
        lo, hi = (t0, t1) if dt > 0 else (t1, t0)
        k0 = math.floor((lo - theta) / (2.0 * math.pi))
        for k in (k0, k0 + 1, k0 + 2):
            th = theta + 2.0 * math.pi * k
            if lo - 1e-12 <= th <= hi + 1e-12:
                cands.append(th)
    vals = [sgn * (A * math.cos(t) + B * math.sin(t) + e.radius) for t in cands]
    return min(vals), max(vals)


def _edge_mdotnu_extrema(domain, i, x0):
    """(min, max) of (x - x0).nu over edge i; exact for segments and arcs."""
    e = domain.edges[i]
    if e.kind == "segment":
        nu = domain.segment_normal(i)
        a, b = domain.edge_endpoints(i)
        va = float((a - x0) @ nu)
        vb = float((b - x0) @ nu)
        return min(va, vb), max(va, vb)
    return _arc_mdotnu_extrema(domain, i, x0)


def check_condition_h(domain, x0):
    """Observer-point check at a given x0.

    gamma is the minimum of (x - x0).nu over the damped boundary; the check
    passes when gamma > 0 and (x - x0).nu <= 0 everywhere on the clamped
    boundary.  Segment extrema are endpoint-exact; arc extrema use the
    closed-form extremum of the sinusoid in the arc parameter.
    """
    x0 = np.asarray(x0, dtype=float)
    margins = {}
    gamma = math.inf
    g0max = -math.inf
    for i, e in enumerate(domain.edges):
        lo, hi = _edge_mdotnu_extrema(domain, i, x0)
        if e.label == GAMMA1:
            margins[f"edge_{i}"] = float(lo)
            gamma = min(gamma, float(lo))
        else:
            margins[f"edge_{i}"] = float(-hi)
            g0max = max(g0max, float(hi))
    satisfied = (gamma > 0.0) and (g0max <= 0.0)
    return ConditionReport(
        condition="H",
        satisfied=bool(satisfied),
        margins=margins,
        witness=((float(x0[0]), float(x0[1])),
                 gamma if math.isfinite(gamma) else 0.0),
        detail=f"gamma = {gamma:.6g}, clamped-side max = {g0max:.6g}",
    )


def _max_gamma(A, b):
    """z = (x0, y0, gamma) maximizing gamma subject to A z <= b, or None
    if infeasible: a dual simplex on 3 x 3 bases.  A's last four rows bound
    x0 above, x0 below, y0 above and y0 below, so the first damped row
    (nonzero gamma column) and the two box rows that cancel its normal are
    a dual-feasible start.  The lowest-index violated row enters and the
    lowest-index minimum of the ratio test leaves: Bland's rule (Math.
    Oper. Res. 2, 1977), which terminates also at degenerate vertices.
    """
    m = len(b)
    d = np.flatnonzero(A[:, 2])[0]
    basis = [d, m - 4 + (A[d, 0] > 0), m - 2 + (A[d, 1] > 0)]
    tol = 1e-13 * (1.0 + np.abs(b).max())  # slack rounding, not a violation
    for _ in range(_LP_PIVOTS_PER_ROW * m):
        inv = np.linalg.inv(A[basis])
        z = inv @ b[basis]
        violated = np.flatnonzero(A @ z - b > tol)
        if violated.size == 0:
            return z
        alpha = A[violated[0]] @ inv  # the entering row in the basis rows
        pos = alpha > 1e-12
        if not pos.any():
            return None
        ratio = np.full(3, np.inf)
        ratio[pos] = np.maximum(inv[2, pos], 0.0) / alpha[pos]
        ties = np.flatnonzero(ratio == ratio.min())
        basis[min(ties, key=basis.__getitem__)] = violated[0]
    raise SolverError(f"observer-point LP took over {_LP_PIVOTS_PER_ROW * m} "
                      "pivots", invariant="lp-terminates")


def find_observer_point(domain, search_box):
    """LP search for an observer point inside ``search_box``.

    Maximizes gamma subject to (v - x0).nu >= gamma at damped constraint
    points, (v - x0).nu <= 0 at clamped ones and x0 in the box
    (``_max_gamma``).  Segments contribute exact endpoint constraints; arcs
    are sampled (``_ARC_SAMPLES``) and tightened by a conservative slack,
    so a positive verdict is trustworthy.  The witness is clipped into the
    box and re-verified with the exact checker before reporting success.
    A boundary with no damped edge leaves gamma unbounded and is reported
    unsatisfied.
    """
    (xmin, ymin), (xmax, ymax) = search_box
    if not (xmax > xmin and ymax > ymin):
        raise InvalidArgumentError("search box is empty", invariant="search-box")

    corners = np.array([[xmin, ymin], [xmin, ymax], [xmax, ymin], [xmax, ymax]])
    lo, hi = domain.bounding_box()
    # push clamped-side constraints strictly inside: LP optima otherwise sit
    # exactly on a binding constraint and fail the exact re-check by one ulp
    interior = 1e-9 * max(np.hypot(*(hi - lo)),
                          np.hypot(xmax - xmin, ymax - ymin), 1.0)
    rows, rhs = [], []
    tol = 0.0
    for i, e in enumerate(domain.edges):
        if e.kind == "segment":
            nu = domain.segment_normal(i)
            pts = list(domain.edge_endpoints(i))
            slack = 0.0
        else:
            t0, dt = domain.arc_sweep(i)
            thetas = t0 + dt * np.arange(_ARC_SAMPLES + 1) / _ARC_SAMPLES
            pts = [domain.arc_point(i, th) for th in thetas]
            nus = [domain.arc_normal(i, th) for th in thetas]
            c = np.asarray(e.center)
            reach = max(np.hypot(*(c - q)) for q in corners) + e.radius
            slack = 0.5 * reach * abs(dt) / _ARC_SAMPLES
            tol = max(tol, slack)
        for k, v in enumerate(pts):
            nu_k = nu if e.kind == "segment" else nus[k]
            if e.label == GAMMA1:
                # x0.nu + gamma <= v.nu - slack
                rows.append([nu_k[0], nu_k[1], 1.0])
                rhs.append(float(v @ nu_k) - slack)
            else:
                # -x0.nu <= -v.nu - slack - interior margin
                rows.append([-nu_k[0], -nu_k[1], 0.0])
                rhs.append(-float(v @ nu_k) - slack - interior)
    rows += [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]]  # the box
    rhs += [xmax, -xmin, ymax, -ymin]

    damped = any(e.label == GAMMA1 for e in domain.edges)
    z = _max_gamma(np.array(rows), np.array(rhs)) if damped else None
    if z is None:
        return ConditionReport(
            condition="H", satisfied=False, margins={}, tolerance=tol,
            detail="LP certificate: " + ("infeasible" if damped else
                                         "no damped edge, gamma unbounded"))
    x0 = np.clip(z[:2], (xmin, ymin), (xmax, ymax))
    gamma_lp = float(z[2])
    report = check_condition_h(domain, x0)
    satisfied = bool(gamma_lp > tol and report.satisfied)
    return ConditionReport(
        condition="H",
        satisfied=satisfied,
        margins=report.margins,
        witness=((float(x0[0]), float(x0[1])), report.witness[1]),
        tolerance=float(tol),
        detail=f"LP optimum gamma = {gamma_lp:.6g}" + ("" if satisfied else
               " (non-positive after sampling slack)" if gamma_lp <= tol else
               " (exact re-check failed)"),
    )


# ---------------------------------------------------------------------------
# convenience constructors
# ---------------------------------------------------------------------------

def polygon_domain(vertices, gamma0_edges, corner_gains=None):
    """Straight-edge domain; ``gamma0_edges`` lists clamped edge indices."""
    vertices = [tuple(v) for v in vertices]
    g0 = set(gamma0_edges)
    edges = [segment(GAMMA0 if i in g0 else GAMMA1) for i in range(len(vertices))]
    return DomainSpec(vertices=tuple(vertices), edges=tuple(edges),
                      corner_gains=corner_gains)


def unit_square_domain(gamma0_edges=(0, 3), corner_gains=None):
    """Unit square, edges 0..3 = bottom, right, top, left (CCW from origin)."""
    return polygon_domain([(0, 0), (1, 0), (1, 1), (0, 1)], gamma0_edges,
                          corner_gains=corner_gains)


def lens_domain(corner_angle, half_width=1.0, label_lower=GAMMA0,
                label_upper=GAMMA1, corner_gains=None):
    """Symmetric two-arc lens with the given interior angle at both corners.

    Vertices sit at (-half_width, 0) and (half_width, 0).  Each arc's
    tangent-chord angle is corner_angle/2, so the interior corner angle is
    exactly ``corner_angle``.
    """
    if not 0.0 < corner_angle < math.pi:
        raise InvalidArgumentError("lens corner angle must lie in (0, pi)",
                                   invariant="lens-angle")
    alpha = 0.5 * corner_angle  # tangent-chord angle per arc
    r = half_width / math.sin(alpha)
    d = r * math.cos(alpha)
    lower_center = (0.0, d)    # lower arc bulges downward
    upper_center = (0.0, -d)   # upper arc bulges upward
    verts = ((-half_width, 0.0), (half_width, 0.0))
    edges = (arc(label_lower, lower_center, r, ccw=True),
             arc(label_upper, upper_center, r, ccw=True))
    return DomainSpec(vertices=verts, edges=edges, corner_gains=corner_gains)
