"""Discrete operators of the damped plate on a C0 interior-penalty space.

The fourth-order bending form is discretized with continuous Lagrange
elements (degree 2 or 3): element integrals of the plate energy density,
plus interface terms that penalize the jump of the normal derivative and
restore consistency through the averaged co-normal bending moment.  The
clamped displacement condition is eliminated strongly; the clamped normal
derivative is enforced weakly with the same Nitsche-type terms on clamped
boundary edges.  Mass and damping pick up the boundary trace terms of the
dynamical free edge, and the corner feedback gains enter the damping matrix
as diagonal entries on free corner vertex dofs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .errors import (AssemblyStabilityError, InvalidArgumentError,
                     InvalidGeometryError)
from .geometry import GAMMA0, GAMMA1
from .plate_forms import Partials, corner_jumps, moments
from .quadrature import gauss_01, triangle_rule
from .spectral import _spd_checked


# ---------------------------------------------------------------------------
# Lagrange reference element
# ---------------------------------------------------------------------------

def _reference_nodes(p):
    """Local nodes: 3 vertices, (p-1) per edge (from first vertex), interior."""
    verts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    nodes = list(verts)
    for (a, b) in [(0, 1), (1, 2), (2, 0)]:
        pa, pb = np.array(verts[a]), np.array(verts[b])
        for k in range(1, p):
            nodes.append(tuple(pa + (pb - pa) * k / p))
    if p >= 3:
        nodes.append((1.0 / 3.0, 1.0 / 3.0))
    return np.array(nodes)


def _monomial_exponents(p):
    return [(i, j) for d in range(p + 1) for i in range(d, -1, -1)
            for j in [d - i]]


def _eval_monomials(exps, pts, dx=0, dy=0):
    """d^dx/dxi d^dy/deta of every monomial at points (..., 2)."""
    pts = np.asarray(pts, dtype=float)
    out = np.zeros(pts.shape[:-1] + (len(exps),))
    for m, (i, j) in enumerate(exps):
        ii, jj = i - dx, j - dy
        if ii < 0 or jj < 0:
            continue
        coef = 1.0
        for k in range(dx):
            coef *= i - k
        for k in range(dy):
            coef *= j - k
        out[..., m] = coef * pts[..., 0] ** ii * pts[..., 1] ** jj
    return out


class _ReferenceElement:
    """Lagrange basis on the unit triangle with derivative evaluation."""

    def __init__(self, p):
        self.p = p
        self.nodes = _reference_nodes(p)
        self.exps = _monomial_exponents(p)
        vand = _eval_monomials(self.exps, self.nodes)
        self.coeffs = np.linalg.inv(vand)  # column a = coeffs of phi_a
        self.n_local = len(self.nodes)

    def eval(self, pts, dx=0, dy=0):
        """(..., n_local) basis derivatives at reference points (..., 2)."""
        return _eval_monomials(self.exps, pts, dx, dy) @ self.coeffs


@lru_cache(maxsize=None)
def reference_element(p):
    return _ReferenceElement(p)


# ---------------------------------------------------------------------------
# dof map
# ---------------------------------------------------------------------------

@dataclass
class DofMap:
    """Global Lagrange dof enumeration with clamped-trace elimination.

    Vertex dofs coincide with mesh node ids; edge dofs follow in lexicographic
    mesh-edge order (slots measured from the lower-numbered endpoint);
    interior dofs come last in triangle order.  The enumeration is a pure
    function of the mesh, so identical input gives identical numbering.
    ``edge_dofs`` lists per mesh edge its two end vertices, then its own
    slots; ``edge_labels`` holds the boundary label (-1 inside).
    """

    degree: int
    n_dofs: int
    cell_dofs: np.ndarray
    dof_coords: np.ndarray
    edge_dofs: np.ndarray
    edge_labels: np.ndarray
    constrained: np.ndarray = field(init=False)
    free: np.ndarray = field(init=False)
    free_index: np.ndarray = field(init=False)

    def __post_init__(self):
        self.constrained = self.chord_dofs(GAMMA0)
        self.free = np.nonzero(~self.constrained)[0]
        self.free_index = np.full(self.n_dofs, -1, dtype=int)
        self.free_index[self.free] = np.arange(len(self.free))

    @property
    def n_free(self):
        return len(self.free)

    def chord_dofs(self, label):
        """Mask of the dofs whose node lies on a chord labelled ``label``."""
        mask = np.zeros(self.n_dofs, dtype=bool)
        mask[self.edge_dofs[self.edge_labels == label]] = True
        return mask

    def interpolate(self, f):
        """Nodal interpolant on the free dofs: f at their coordinates."""
        return np.asarray(f(self.dof_coords[self.free]), dtype=float)


def build_dof_map(mesh, degree):
    if degree not in (2, 3):
        raise InvalidArgumentError(f"unsupported element degree {degree}",
                                   invariant="degree-supported")
    p = degree
    table = mesh.edge_table
    tris = mesh.triangles
    n_nodes, n_tri, n_edges = mesh.n_nodes, mesh.n_triangles, len(table.edges)
    n_edofs = (p - 1) * n_edges
    n_dofs = n_nodes + n_edofs + (n_tri if p >= 3 else 0)

    # slot s of an edge sits at (s + 1) / p from its lower-numbered end
    s = np.arange(p - 1)
    slots = n_nodes + (p - 1) * np.arange(n_edges)[:, None] + s
    pa = mesh.nodes[table.edges[:, 0]][:, None]
    pb = mesh.nodes[table.edges[:, 1]][:, None]
    coords = [mesh.nodes,
              (pa + (pb - pa) * (s + 1)[:, None] / p).reshape(-1, 2)]

    # local point k / p from the start of a local edge, in that edge's slots
    k = np.arange(1, p)
    forward = (tris < np.roll(tris, -1, axis=1))[:, :, None]
    local = n_nodes + (p - 1) * table.tri_edges[:, :, None] \
        + np.where(forward, k - 1, p - 1 - k)
    cells = [tris, local.reshape(n_tri, -1)]
    if p >= 3:
        cells.append(n_nodes + n_edofs + np.arange(n_tri)[:, None])
        coords.append(mesh.nodes[tris].mean(axis=1))

    return DofMap(degree=p, n_dofs=n_dofs,
                  cell_dofs=np.concatenate(cells, axis=1),
                  dof_coords=np.concatenate(coords),
                  edge_dofs=np.concatenate([table.edges, slots], axis=1),
                  edge_labels=table.label)


# ---------------------------------------------------------------------------
# assembled system
# ---------------------------------------------------------------------------

@dataclass
class AssembledSystem:
    """Sparse stiffness/mass/damping on the free dofs.

    ``damping_parts`` holds the scaled channels (d1, d2, corner), and D is
    their sum.
    """

    K: sp.csr_matrix
    M: sp.csr_matrix
    D: sp.csr_matrix
    damping_parts: dict
    dofs: DofMap

    @property
    def n_free(self):
        return self.K.shape[0]


def sigma_floor(degree):
    return 2.0 * degree * (degree + 1)


def default_sigma(degree):
    return 10.0 * degree * (degree + 1)


def _cell_geometry(mesh):
    """Affine maps x = x0 + J xi of all triangles: x0, J, J^-1 and det J."""
    pts = mesh.nodes[mesh.triangles]
    x0 = pts[:, 0]
    jac = (pts[:, 1:] - x0[:, None]).transpose(0, 2, 1)
    det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
    bad = np.flatnonzero(~(det > 0))
    if len(bad):
        raise InvalidGeometryError(f"triangle {bad[0]} is degenerate or flipped",
                                   invariant="triangle-orientation")
    adj = np.stack([jac[:, 1, 1], -jac[:, 0, 1], -jac[:, 1, 0], jac[:, 0, 0]],
                   axis=1).reshape(-1, 2, 2)
    return x0, jac, adj / det[:, None, None], det


def _second_deriv_rows(ref, pts, binv):
    """Physical (xx, yy, xy) second-derivative rows of all basis functions.

    ``binv`` holds one inverse Jacobian per triangle; each row array is
    (triangles, points, n_local).
    """
    hxx = ref.eval(pts, 2, 0)
    hxy = ref.eval(pts, 1, 1)
    hyy = ref.eval(pts, 0, 2)
    b = binv[:, :, :, None, None]
    pxx = b[:, 0, 0] ** 2 * hxx + 2 * b[:, 0, 0] * b[:, 1, 0] * hxy \
        + b[:, 1, 0] ** 2 * hyy
    pyy = b[:, 0, 1] ** 2 * hxx + 2 * b[:, 0, 1] * b[:, 1, 1] * hxy \
        + b[:, 1, 1] ** 2 * hyy
    pxy = (b[:, 0, 0] * b[:, 0, 1] * hxx
           + (b[:, 0, 0] * b[:, 1, 1] + b[:, 1, 0] * b[:, 0, 1]) * hxy
           + b[:, 1, 0] * b[:, 1, 1] * hyy)
    return pxx, pyy, pxy


def _normal_rows(ref, pts, binv, n):
    """Rows of the derivative along n (one unit vector per triangle)."""
    gx_ref = ref.eval(pts, 1, 0)
    gy_ref = ref.eval(pts, 0, 1)
    b = binv[:, :, :, None, None]
    gx = b[:, 0, 0] * gx_ref + b[:, 1, 0] * gy_ref
    gy = b[:, 0, 1] * gx_ref + b[:, 1, 1] * gy_ref
    return n[:, 0, None, None] * gx + n[:, 1, None, None] * gy


def _bending_rows(pxx, pyy, pxy, mu, n):
    """Co-normal bending moment rows: Lap + (1-mu)(2 n1 n2 pxy - n1^2 pyy - n2^2 pxx)."""
    n1, n2 = n[:, 0, None, None], n[:, 1, None, None]
    return (pxx + pyy + (1.0 - mu) * (2.0 * n1 * n2 * pxy
                                      - n1 ** 2 * pyy - n2 ** 2 * pxx))


def _edge_points(mesh, edges, seg_t):
    """Points (edges, len(seg_t), 2) on sorted-pair edges, and edge lengths."""
    xa, xb = mesh.nodes[edges[:, 0]], mesh.nodes[edges[:, 1]]
    d = xb - xa
    phys = xa[:, None, :] + seg_t[:, None] * d[:, None, :]
    return phys, np.hypot(d[:, 0], d[:, 1])


def _edge_traces(ref, geometry, t, phys, n, mu):
    """Value, n-derivative and bending rows of triangles t at points phys."""
    x0, _, binv, _ = geometry
    b = binv[t]
    refpts = (phys - x0[t][:, None, :]) @ b.transpose(0, 2, 1)
    pxx, pyy, pxy = _second_deriv_rows(ref, refpts, b)
    return (ref.eval(refpts), _normal_rows(ref, refpts, b, n),
            _bending_rows(pxx, pyy, pxy, mu, n))


def _T(a):
    """Transpose of the last two axes (of every block in a batch)."""
    return a.swapaxes(-1, -2)


def _sym(block, out=None):
    """Exact symmetrization 0.5 (block + block'), into ``out`` if given; the
    forms are symmetric, rounding is not."""
    out = np.add(block, _T(block), out=out)
    out *= 0.5
    return out


def _nitsche(pen, jump, avg, w):
    """Symmetrized pen J'WJ - A'WJ - J'WA: the penalty and consistency
    terms of normal-derivative jumps J and averaged bending moments A with
    quadrature weights W, formed in place in that order of operations."""
    jw = _T(jump * w)
    k = (pen * jw) @ jump
    part = _T(avg * w) @ jump
    k -= part
    k -= np.matmul(jw, avg, out=part)
    return _sym(k, out=part)


def _element_blocks(ref, geometry, mu):
    """Plate energy density and interior mass blocks of all triangles."""
    _, _, binv, det = geometry
    tri_pts, tri_w = triangle_rule(2 * ref.p)
    w = (tri_w * det[:, None])[..., None]  # weights sum to 1/2: |T| = det/2
    pxx, pyy, pxy = _second_deriv_rows(ref, tri_pts, binv)
    xw, yw = _T(pxx * w), _T(pyy * w)
    kel = xw @ pxx
    kel += yw @ pyy
    cross = xw @ pyy
    cross += yw @ pxx
    cross *= mu
    kel += cross
    kel += np.matmul(2.0 * (1.0 - mu) * _T(pxy * w), pxy, out=cross)
    n_basis = ref.eval(tri_pts)
    return _sym(kel, out=cross), _sym(_T(n_basis * w) @ n_basis)


def _edge_blocks(mesh, cd, ref, geometry, mu, sigma):
    """(dofs, block) batches of the interior and clamped edge terms of K and
    of the damped edges' trace and normal-derivative forms, over the mesh's
    edge table with the outward normal of each edge's first owner.  The
    trace rows die here, before the blocks are scattered."""
    table = mesh.edge_table
    seg_t, seg_w = gauss_01(ref.p + 2)
    t1, le1 = table.owner[:, 0], table.owner_edge[:, 0]
    tang = (mesh.nodes[mesh.triangles[t1, (le1 + 1) % 3]]
            - mesh.nodes[mesh.triangles[t1, le1]])
    tang = tang / np.hypot(tang[:, 0], tang[:, 1])[:, None]
    n = np.stack([tang[:, 1], -tang[:, 0]], axis=1)
    phys, length = _edge_points(mesh, table.edges, seg_t)
    w = (seg_w * length[:, None])[..., None]
    pen = (sigma / length)[:, None, None]
    val, dn, bend = _edge_traces(ref, geometry, t1, phys, n, mu)

    inner = np.flatnonzero(table.owner[:, 1] >= 0)
    t2 = table.owner[inner, 1]
    _, dn2, bend2 = _edge_traces(ref, geometry, t2, phys[inner], n[inner], mu)
    jump = np.concatenate([dn[inner], -dn2], axis=2)
    avg = 0.5 * np.concatenate([bend[inner], bend2], axis=2)
    k_inner = _nitsche(pen[inner], jump, avg, w[inner])

    c = np.flatnonzero(table.label == GAMMA0)
    k_clamped = _nitsche(pen[c], dn[c], bend[c], w[c])

    g = np.flatnonzero(table.label == GAMMA1)
    return ((np.concatenate([cd[t1[inner]], cd[t2]], axis=1), k_inner),
            (cd[t1[c]], k_clamped),
            (cd[t1[g]], _sym(_T(val[g] * w[g]) @ val[g])),
            (cd[t1[g]], _sym(_T(dn[g] * w[g]) @ dn[g])))


def _csr(dofs, blocks):
    """n_free x n_free CSR sum of (dofs (b, m), values (b, m, m)) block
    batches; entries on clamped rows or columns are dropped.

    The kept entries go batch by batch into int32 rows and columns sized by
    their count, in the order of the whole batches one after another, so
    one coo -> csr sums duplicates in the same order whatever is dropped.
    """
    fi = dofs.free_index.astype(np.int32)
    local = [fi[d] for d, _ in blocks]
    n_kept = sum(int((np.count_nonzero(f >= 0, axis=1) ** 2).sum())
                 for f in local)
    rows, cols = np.empty((2, n_kept), dtype=np.int32)
    vals = np.empty(n_kept)
    start = 0
    for f, (_, v) in zip(local, blocks):
        free = f >= 0
        keep = free[:, :, None] & free[:, None, :]
        stop = start + np.count_nonzero(keep)
        rows[start:stop] = np.broadcast_to(f[:, :, None], v.shape)[keep]
        cols[start:stop] = np.broadcast_to(f[:, None, :], v.shape)[keep]
        vals[start:stop] = v[keep]
        start = stop
    return sp.coo_matrix((vals, (rows, cols)),
                         shape=(dofs.n_free,) * 2).tocsr()


def assemble(mesh, dofs, material, sigma=None):
    """Assemble stiffness K, mass M, damping D on the free dofs.

    ``sigma`` is the interior-penalty weight (default 10 p (p+1)); below the
    floor 2 p (p+1) assembly is refused since coercivity is no longer
    guaranteed.  ``mesh.corner_gains`` add diagonal damping at the corner
    vertex dofs (zero gains for variant 1).  A gain at a corner whose vertex
    dof is clamped could never act (``clamped-corner-gain``): ``DomainSpec``
    refuses it, and this guard covers meshes read from a file or built by
    hand.

    Every element and edge term is formed in one batch: element blocks over
    all triangles, then the interior, clamped and damped edge groups of the
    mesh's edge table.
    """
    p = dofs.degree
    if sigma is None:
        sigma = default_sigma(p)
    if sigma < sigma_floor(p):
        raise AssemblyStabilityError(
            f"penalty sigma = {sigma} below stability floor {sigma_floor(p)}",
            invariant="penalty-floor")
    gains = np.asarray(mesh.corner_gains, dtype=float)
    if len(gains) != len(mesh.corner_nodes):
        raise InvalidArgumentError("one gain per domain corner required",
                                   invariant="gain-count")
    if np.any(gains < 0):
        raise InvalidArgumentError("corner gains must be >= 0",
                                   invariant="gain-nonnegative")
    corners = mesh.corner_nodes
    fed = gains != 0.0
    bad = np.flatnonzero(fed & dofs.constrained[corners])
    if len(bad):
        raise InvalidArgumentError(
            f"corner {bad[0]} touches the clamped closure; positive "
            "feedback gain is not admissible there",
            invariant="clamped-corner-gain")

    ref = reference_element(p)
    geometry = _cell_geometry(mesh)
    cd = dofs.cell_dofs
    kel, mel = _element_blocks(ref, geometry, material.mu)
    inner, clamped, trace, normal = _edge_blocks(
        mesh, cd, ref, geometry, material.mu, sigma)
    K = _csr(dofs, [(cd, kel), inner, clamped])
    K = K + K.T  # the scatter order leaves ulp-level skew
    K.data *= 0.5
    Mi = _csr(dofs, [(cd, mel)])
    Gt = _csr(dofs, [trace])
    Gn = _csr(dofs, [normal])
    parts = {"d1": material.d1 * Gn, "d2": material.d2 * Gt,
             "corner": _csr(dofs, [(corners[fed, None],
                                    gains[fed, None, None])])}
    return AssembledSystem(
        K=K, M=Mi + material.rho * Gt + material.inertia * Gn,
        D=parts["d1"] + parts["d2"] + parts["corner"],
        damping_parts=parts, dofs=dofs)


def energy(system, u, v):
    """Discrete energy 0.5 (u' K u + v' M v) of a displacement/velocity pair."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != (system.n_free,) or v.shape != (system.n_free,):
        raise InvalidArgumentError(
            f"state vectors must have length {system.n_free}",
            invariant="dof-size")
    return 0.5 * (float(u @ (system.K @ u)) + float(v @ (system.M @ v)))


def assemble_load(mesh, dofs, domain, material, u_exact):
    """Load vector reproducing a manufactured polynomial solution.

    Builds F(v) = (Lap^2 u, v) - boundary work of the exact bending and
    shear traces on the free boundary - corner jump work at free corners,
    using the closed-form traces;  straight-edge domains only.  The exact
    field must satisfy the clamped conditions on the clamped part.
    """
    if not domain.is_straight():
        raise InvalidArgumentError("manufactured loads need straight edges",
                                   invariant="straight-edges")
    p = dofs.degree
    mu = material.mu
    ref = reference_element(p)
    geometry = _cell_geometry(mesh)
    x0, jac, _, det = geometry
    exact = Partials(u_exact)
    tri_pts, tri_w = triangle_rule(max(u_exact.degree - 4, 0) + p)
    fw = (exact(x0[:, None, :] + tri_pts @ _T(jac))["biharmonic"]
          * tri_w * det[:, None])
    at = [dofs.cell_dofs]
    work = [fw @ ref.eval(tri_pts)]

    table = mesh.edge_table
    g = np.flatnonzero(table.label == GAMMA1)
    src = mesh.boundary_source[table.chord[g]]
    if np.any(src < 0):
        raise InvalidArgumentError(
            "boundary chords must reference domain edges for loads",
            invariant="boundary-source")
    normals = np.array([domain.segment_normal(i)
                        for i in range(domain.n_corners)])
    nu = normals[src]
    seg_t, seg_w = gauss_01(max(1, (u_exact.degree + p + 2) // 2))
    phys, length = _edge_points(mesh, table.edges[g], seg_t)
    t = table.owner[g, 0]
    val, dn, _ = _edge_traces(ref, geometry, t, phys, nu, mu)
    bending, shear, _ = moments(exact(phys), mu, nu[:, None, :])
    w = seg_w * length[:, None]
    at += [dofs.cell_dofs[t]] * 2
    work += [np.einsum("eqa,eq->ea", val, -shear * w),
             np.einsum("eqa,eq->ea", dn, bending * w)]
    at = dofs.free_index[np.concatenate(at).ravel()]
    work = np.concatenate(work).ravel()
    F = np.bincount(at[at >= 0], weights=work[at >= 0],
                    minlength=dofs.n_free)

    # corners whose vertex dof is free; edge i - 1 comes in, edge i leaves
    free = np.array([i for i in range(domain.n_corners)
                     if not domain.corner_in_clamped_closure(i)], dtype=int)
    F[dofs.free_index[mesh.corner_nodes[free]]] -= corner_jumps(
        exact(np.asarray(domain.vertices, dtype=float)[free]), mu,
        normals[free - 1], normals[free])

    return F


def solve_static(system, load):
    """Direct solve K u = load on the free dofs (``energy-pd`` unless K is
    positive definite)."""
    return _spd_checked(system.K).solve(load)


def dump_coo(path, matrix):
    """Write a sparse matrix as '<row> <col> <value>' lines, 1-based."""
    coo = sp.coo_matrix(matrix)
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w") as f:
        for i in order:
            f.write(f"{coo.row[i] + 1} {coo.col[i] + 1} {coo.data[i]:.17g}\n")
