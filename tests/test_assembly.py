import copy
import json
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from platedecay import assembly
from platedecay.assembly import (_T, _cell_geometry, _edge_points,
                                 _edge_traces, assemble, assemble_load,
                                 build_dof_map, default_sigma, dump_coo,
                                 energy, reference_element, sigma_floor,
                                 solve_static)
from platedecay.cli import RunConfig, _build_mesh, _build_system
from platedecay.errors import (AssemblyStabilityError, ConfigValidationError,
                               InvalidArgumentError, InvalidGeometryError)
from platedecay.geometry import (GAMMA0, GAMMA1, lens_domain,
                                unit_square_domain)
from platedecay.meshing import read_mesh, refine, triangulate, write_mesh
from platedecay.plate_forms import PlateMaterial, PolyField, bilinear_a
from platedecay._polygon import random_convex_polygon
from platedecay.geometry import polygon_domain
from platedecay.quadrature import gauss_01, triangle_rule

import plate_oracle as oracle

DOM = unit_square_domain(gamma0_edges=(0, 3))
MAT = PlateMaterial(mu=0.3, rho=1.0, inertia=1.0, d1=1.0, d2=1.0)


def small_system(h=0.5, degree=2, mat=MAT, gamma0=(0, 3), corner_gains=None):
    dom = unit_square_domain(gamma0_edges=gamma0, corner_gains=corner_gains)
    mesh = triangulate(dom, h)
    dofs = build_dof_map(mesh, degree)
    return dom, mesh, dofs, assemble(mesh, dofs, mat)


def test_gauss_rule_is_computed_once_and_read_only():
    x, w = gauss_01(4)
    again = gauss_01(4)
    assert again[0] is x and again[1] is w
    assert abs(w.sum() - 1.0) < 1e-15
    for a in (x, w):
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_p2_dof_count_example():
    mesh = triangulate(DOM, 0.5)
    dofs = build_dof_map(mesh, 2)
    assert mesh.n_triangles == 8
    assert dofs.n_dofs == 25
    assert int(dofs.constrained.sum()) == 9


def test_p2_dof_count_formula():
    mesh = triangulate(DOM, 0.25)
    dofs = build_dof_map(mesh, 2)
    assert dofs.n_dofs == mesh.n_nodes + len(mesh.edge_table.edges)


def test_p3_dof_count_formula():
    mesh = triangulate(DOM, 0.5)
    dofs = build_dof_map(mesh, 3)
    assert dofs.n_dofs == (mesh.n_nodes + 2 * len(mesh.edge_table.edges)
                           + mesh.n_triangles)


def test_unsupported_degree():
    mesh = triangulate(DOM, 0.5)
    with pytest.raises(InvalidArgumentError):
        build_dof_map(mesh, 4)


def test_free_corner_maps_to_free_vertex_dof():
    mesh = triangulate(DOM, 0.5)
    dofs = build_dof_map(mesh, 2)
    # corner (1, 1) has both incident edges free
    c = mesh.corner_nodes[2]
    assert not dofs.constrained[c]
    # corners on the clamped closure are eliminated
    for i in (0, 1, 3):
        assert dofs.constrained[mesh.corner_nodes[i]]


def test_matrices_symmetric_and_definite():
    _, _, dofs, system = small_system(h=0.25)
    for A in (system.K, system.M, system.D):
        assert abs(A - A.T).max() == 0.0
    K = system.K.toarray()
    M = system.M.toarray()
    D = system.D.toarray()
    scale = abs(K).max()
    assert np.linalg.eigvalsh(K).min() > 0
    assert np.linalg.eigvalsh(M).min() > 0
    assert np.linalg.eigvalsh(D).min() >= -1e-12 * max(abs(D).max(), 1.0)
    assert scale > 0


def test_zero_damping_gives_zero_matrix():
    mat0 = PlateMaterial(mu=0.3, rho=1.0, inertia=1.0, d1=0.0, d2=0.0)
    _, _, _, system = small_system(mat=mat0)
    assert system.D.nnz == 0 or abs(system.D).max() == 0.0


def mass_parts(h=0.5):
    """The unscaled mass pieces (interior, gamma1 trace, gamma1 normal trace):
    M with rho = inertia = 0, and the d2 and d1 channels at d1 = d2 = 1."""
    mat = PlateMaterial(mu=0.3, rho=0.0, inertia=0.0, d1=1.0, d2=1.0)
    _, _, dofs, system = small_system(h=h, mat=mat)
    parts = system.damping_parts
    return dofs, system.M, parts["d2"], parts["d1"]


def test_interior_mass_only_when_boundary_constants_vanish():
    _, interior, trace, normal = mass_parts()
    _, _, _, system = small_system()
    whole = interior + MAT.rho * trace + MAT.inertia * normal
    assert abs(system.M - whole).max() == 0.0


def test_mass_parts_against_polynomial_oracle():
    # g = x1*x2 vanishes on the clamped edges, P2 represents it exactly
    dofs, *parts = mass_parts(h=0.25)
    g = dofs.interpolate(lambda x: x[..., 0] * x[..., 1])
    interior, trace, normal = (float(g @ (part @ g)) for part in parts)
    assert abs(interior - 1.0 / 9.0) < 1e-13      # int x1^2 x2^2
    assert abs(trace - 2.0 / 3.0) < 1e-13         # right + top edge traces
    assert abs(normal - 2.0 / 3.0) < 1e-13        # normal derivative traces


def test_energy_decomposition():
    _, interior, trace, normal = mass_parts(h=0.25)
    _, _, _, system = small_system(h=0.25)
    rng = np.random.default_rng(0)
    u = rng.standard_normal(system.n_free)
    v = rng.standard_normal(system.n_free)
    total = energy(system, u, v)
    by_parts = 0.5 * float(u @ (system.K @ u)) \
        + 0.5 * float(v @ (interior @ v)) \
        + 0.5 * MAT.rho * float(v @ (trace @ v)) \
        + 0.5 * MAT.inertia * float(v @ (normal @ v))
    assert abs(total - by_parts) < 1e-12 * max(1.0, abs(total))


def test_energy_size_mismatch():
    _, _, _, system = small_system()
    with pytest.raises(InvalidArgumentError):
        energy(system, np.zeros(3), np.zeros(system.n_free))


def test_energy_zero_state():
    _, _, _, system = small_system()
    z = np.zeros(system.n_free)
    assert energy(system, z, z) == 0.0


def test_gain_linearity_single_diagonal_entry():
    # the same square with and without a gain at its free corner (1, 1)
    _, mesh, dofs, with_gain = small_system(corner_gains=(0, 0, 2.5, 0))
    _, _, _, without = small_system()
    diff = (with_gain.D - without.D).tocoo()
    assert len(diff.data) == 1
    assert diff.row[0] == diff.col[0] == dofs.free_index[mesh.corner_nodes[2]]
    assert diff.data[0] == 2.5


def test_variant_1_has_no_corner_entries():
    # variant 1 takes zero gains only, so its corner channel is empty; a
    # gain under it is refused when the config is parsed
    data = json.loads((CONFIGS / "square.json").read_text())
    data.update(variant=1, condition_g_policy="warn", gains=[0, 0, 0, 0])
    data["mesh"]["h"] = 0.5
    system = _build_system(RunConfig.from_dict(data))
    assert system.damping_parts["corner"].nnz == 0
    data["gains"] = [0, 0, 2.5, 0]
    with pytest.raises(ConfigValidationError) as info:
        RunConfig.from_dict(data)
    assert info.value.invariant == "variant-gains"


def test_positive_gain_at_clamped_closure_corner_rejected(tmp_path):
    # DomainSpec refuses this gain, so it can reach assemble only on a mesh
    # that never passed through a domain: one edited or read from a file
    mesh = triangulate(DOM, 0.5)
    dofs = build_dof_map(mesh, 2)
    # corner 1 = (1, 0): incoming edge clamped, outgoing free
    edited = replace(mesh, corner_gains=np.array([0, 1.0, 0, 0]))
    write_mesh(tmp_path / "mesh.txt", edited)
    for junction in (edited, read_mesh(tmp_path / "mesh.txt")):
        with pytest.raises(InvalidArgumentError) as info:
            assemble(junction, dofs, MAT)
        assert info.value.invariant == "clamped-corner-gain"


def test_sigma_floor_enforced():
    mesh = triangulate(DOM, 0.5)
    dofs = build_dof_map(mesh, 2)
    assert default_sigma(2) == 60.0 and sigma_floor(2) == 12.0
    with pytest.raises(AssemblyStabilityError):
        assemble(mesh, dofs, MAT, sigma=5.0)


def test_stiffness_interpolant_convergence():
    uex = PolyField.monomial(2, 2)
    exact = bilinear_a(uex, uex, DOM, MAT.mu)
    mesh = triangulate(DOM, 0.25)
    errs = []
    for _ in range(3):
        dofs = build_dof_map(mesh, 2)
        system = assemble(mesh, dofs, MAT)
        uI = dofs.interpolate(
            lambda x: x[..., 0] ** 2 * x[..., 1] ** 2)
        errs.append(abs(float(uI @ (system.K @ uI)) - exact))
        mesh = refine(mesh)
    assert errs[0] > errs[1] > errs[2]
    assert np.log2(errs[1] / errs[2]) > 1.7


def test_p3_stiffness_is_exact_for_cubics():
    # x1^2 x2 lies in the P3 space; it satisfies both clamped conditions on
    # the left edge, so all jump and Nitsche terms drop and u'Ku = a(u).
    dom = unit_square_domain(gamma0_edges=(3,))
    mesh = triangulate(dom, 0.5)
    dofs = build_dof_map(mesh, 3)
    system = assemble(mesh, dofs, MAT)
    g = PolyField.from_terms({(2, 1): 1.0})
    uI = dofs.interpolate(
        lambda x: x[..., 0] ** 2 * x[..., 1])
    exact = bilinear_a(g, g, dom, MAT.mu)
    assert abs(float(uI @ (system.K @ uI)) - exact) < 1e-10


@pytest.mark.parametrize("h", [0.5, 0.25])
def test_p3_load_reproduces_cubic_interpolant(h):
    # the static solve with the load of x1^2 x2 returns its P3 interpolant
    dom = unit_square_domain(gamma0_edges=(3,))
    mesh = triangulate(dom, h)
    dofs = build_dof_map(mesh, 3)
    system = assemble(mesh, dofs, MAT)
    uex = PolyField.from_terms({(2, 1): 1.0})
    F = assemble_load(mesh, dofs, dom, MAT, uex)
    uh = solve_static(system, F)
    uI = dofs.interpolate(
        lambda x: x[..., 0] ** 2 * x[..., 1])
    assert np.linalg.norm(uh - uI) <= 1e-8 * np.linalg.norm(uI)


def test_manufactured_solution_convergence():
    uex = PolyField.monomial(2, 2)
    mesh = triangulate(DOM, 0.25)
    errs = []
    for _ in range(3):
        dofs = build_dof_map(mesh, 2)
        system = assemble(mesh, dofs, MAT)
        F = assemble_load(mesh, dofs, DOM, MAT, uex)
        uh = solve_static(system, F)
        uI = dofs.interpolate(
            lambda x: x[..., 0] ** 2 * x[..., 1] ** 2)
        e = uh - uI
        errs.append(float(np.sqrt(e @ (system.K @ e))))
        mesh = refine(mesh)
    assert errs[0] > errs[1] > errs[2]
    assert errs[1] / errs[2] > 1.8  # at least first-order in energy norm


def _symbolic_load(mesh, dofs, domain, material, u_exact):
    """assemble_load with its exact traces built as fields per domain edge
    and per corner, and the load's triangle rule of the degree of the
    biharmonic field's own coefficients."""
    p, mu = dofs.degree, material.mu
    ref, geometry = reference_element(p), _cell_geometry(mesh)
    x0, jac, _, det = geometry
    f_field = u_exact.biharmonic()
    tri_pts, tri_w = triangle_rule(f_field.degree + p)
    fw = f_field(x0[:, None, :] + tri_pts @ _T(jac)) * tri_w * det[:, None]
    at, work = [dofs.cell_dofs], [fw @ ref.eval(tri_pts)]
    table = mesh.edge_table
    g = np.flatnonzero(table.label == GAMMA1)
    src = mesh.boundary_source[table.chord[g]]
    normals = np.array([domain.segment_normal(i)
                        for i in range(domain.n_corners)])
    seg_t, seg_w = gauss_01(max(1, (u_exact.degree + p + 2) // 2))
    phys, length = _edge_points(mesh, table.edges[g], seg_t)
    t = table.owner[g, 0]
    val, dn, _ = _edge_traces(ref, geometry, t, phys, normals[src], mu)
    bending, shear = np.empty((2,) + phys.shape[:2])
    for i in np.unique(src):
        on = src == i
        bending[on] = oracle.bending_trace_field(u_exact, mu,
                                                 normals[i])(phys[on])
        shear[on] = oracle.shear_trace_field(u_exact, mu, normals[i])(phys[on])
    w = seg_w * length[:, None]
    at += [dofs.cell_dofs[t]] * 2
    work += [np.einsum("eqa,eq->ea", val, -shear * w),
             np.einsum("eqa,eq->ea", dn, bending * w)]
    at = dofs.free_index[np.concatenate(at).ravel()]
    work = np.concatenate(work).ravel()
    F = np.bincount(at[at >= 0], weights=work[at >= 0], minlength=dofs.n_free)
    for i in range(domain.n_corners):
        if not domain.corner_in_clamped_closure(i):
            F[dofs.free_index[mesh.corner_nodes[i]]] -= oracle.corner_jump(
                u_exact, mu, domain.vertices[i], normals[i - 1], normals[i])
    return F


@pytest.mark.parametrize("case", ["square-p2", "square-p3", "polygon-p2",
                                  "clamped-p2"])
def test_load_matches_symbolic_traces(case):
    # the oracle gives the loads of the symbolic traces bit for bit; the
    # table's loads differ from them by at most 2.0e-16 of the largest entry
    # (the bound leaves a factor of 500).  The polygon and the square have
    # free corners whose jumps are loaded.
    rng = np.random.default_rng(5)
    if case == "polygon-p2":
        dom = polygon_domain(random_convex_polygon(rng, 6), gamma0_edges={0})
        h, degree, uex = 0.2, 2, PolyField.random(rng, 6)
    elif case == "clamped-p2":  # no free edge or corner: the volume term only
        dom = unit_square_domain(gamma0_edges=(0, 1, 2, 3))
        h, degree = 0.25, 2
        uex = PolyField.from_terms({(2, 2): 1.0, (3, 2): -1.0, (2, 3): -1.0,
                                    (3, 3): 1.0})  # x^2 y^2 (1-x)(1-y)
    else:
        dom = unit_square_domain(gamma0_edges=(3,))
        h, degree = (1.0 / 12.0, 2) if case == "square-p2" else (0.25, 3)
        uex = PolyField.from_terms({(5, 1): 0.7, (3, 3): -1.1, (0, 4): 0.4,
                                    (6, 0): 0.3, (2, 1): 1.0})
    mesh = triangulate(dom, h)
    dofs = build_dof_map(mesh, degree)
    want = _symbolic_load(mesh, dofs, dom, MAT, uex)
    got = assemble_load(mesh, dofs, dom, MAT, uex)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def _all_free(dofs):
    """The same dof map with no dof clamped."""
    full = copy.copy(dofs)
    full.free = full.free_index = np.arange(dofs.n_dofs)
    return full


@pytest.mark.parametrize("dom, h, degree", [
    (unit_square_domain(gamma0_edges=(0, 3), corner_gains=(0, 0, 1.0, 0)),
     1.0 / 12.0, 2),
    (unit_square_domain(gamma0_edges=(3,), corner_gains=(0, 1.0, 1.0, 0)),
     0.25, 3),
    (lens_domain(math.radians(60), label_lower=GAMMA0, label_upper=GAMMA1),
     0.15, 2),
], ids=["square-p2", "square-p3", "lens-p2"])
def test_free_dof_scatter_matches_sliced_full_assembly(dom, h, degree):
    # scattering onto the free dofs equals assembling every dof and slicing
    # the free rows and columns, up to the order CSR sums duplicates in
    mesh = triangulate(dom, h)
    dofs = build_dof_map(mesh, degree)
    system = assemble(mesh, dofs, MAT)
    full = assemble(mesh, _all_free(dofs), MAT)
    free = dofs.free
    for name in ("K", "M", "D"):
        got = getattr(system, name)
        want = getattr(full, name)[free][:, free].tocsr()
        got.sort_indices()
        want.sort_indices()
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert (np.abs(got.data - want.data).max()
                <= 1e-15 * np.abs(want.data).max())  # measured 3.3e-16
    parts = system.damping_parts
    D = parts["d1"] + parts["d2"] + parts["corner"]
    assert np.array_equal(D.indices, system.D.indices)
    assert np.array_equal(D.data, system.D.data)
    if dom.is_straight():
        uex = PolyField.from_terms({(2, 1): 1.0})
        F = assemble_load(mesh, dofs, dom, MAT, uex)
        F_full = assemble_load(mesh, _all_free(dofs), dom, MAT, uex)
        assert np.array_equal(F, F_full[free])


def _flip_one_triangle(mesh):
    tris = mesh.triangles.copy()
    tris[3] = tris[3, [0, 2, 1]]
    return replace(mesh, triangles=tris)


def _drop_one_boundary_edge(mesh):
    return replace(mesh, boundary_edges=mesh.boundary_edges[1:],
                   boundary_labels=mesh.boundary_labels[1:],
                   boundary_source=mesh.boundary_source[1:])


@pytest.mark.parametrize("broken, invariant", [
    (_flip_one_triangle, "triangle-orientation"),
    (_drop_one_boundary_edge, "boundary-consistency"),
])
def test_assemble_rejects_malformed_mesh(broken, invariant):
    mesh = triangulate(DOM, 0.5)
    dofs = build_dof_map(mesh, 2)
    with pytest.raises(InvalidGeometryError) as exc:
        assemble(broken(mesh), dofs, MAT)
    assert exc.value.invariant == invariant


def test_dump_coo_roundtrip(tmp_path):
    _, _, _, system = small_system()
    path = tmp_path / "K.txt"
    dump_coo(path, system.K)
    rows = np.loadtxt(path)
    K = system.K.tocoo()
    assert len(rows) == K.nnz
    assert rows[:, 0].min() >= 1 and rows[:, 1].min() >= 1
    total = rows[:, 2].sum()
    assert abs(total - K.data.sum()) < 1e-9 * max(1.0, abs(K.data).max())


def test_deterministic_assembly():
    _, _, dofs, s1 = small_system(h=0.25)
    _, _, _, s2 = small_system(h=0.25)
    assert (s1.K != s2.K).nnz == 0
    assert (s1.M != s2.M).nnz == 0
    assert (s1.D != s2.D).nnz == 0


def _concatenated_csr(dofs, blocks):
    """The scatter as whole batches of index triplets, concatenated, then
    filtered: the order of entries ``assembly._csr`` must keep."""
    fi = dofs.free_index
    rows = np.concatenate([np.broadcast_to(fi[d][:, :, None], v.shape).ravel()
                           for d, v in blocks])
    cols = np.concatenate([np.broadcast_to(fi[d][:, None, :], v.shape).ravel()
                           for d, v in blocks])
    vals = np.concatenate([v.ravel() for _, v in blocks])
    keep = (rows >= 0) & (cols >= 0)
    return sp.coo_matrix((vals[keep], (rows[keep], cols[keep])),
                         shape=(dofs.n_free,) * 2).tocsr()


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _config_case(name, h=None):
    """Mesh, dofs and assemble's keywords of a shipped config."""
    data = json.loads((CONFIGS / name).read_text())
    if h is not None:
        data["mesh"]["h"] = h
    cfg = RunConfig.from_dict(data)
    mesh = _build_mesh(cfg)
    dofs = build_dof_map(mesh, cfg.mesh.degree)
    return mesh, dofs, dict(material=cfg.material, sigma=cfg.mesh.sigma)


@pytest.mark.parametrize("name, h", [("square.json", 1.0 / 8.0),
                                     ("lens.json", None)],
                         ids=["square-h8", "lens"])
def test_scatter_matches_concatenated_triplets(name, h, monkeypatch):
    mesh, dofs, kw = _config_case(name, h)
    system = assemble(mesh, dofs, **kw)
    monkeypatch.setattr(assembly, "_csr", _concatenated_csr)
    oracle = assemble(mesh, dofs, **kw)
    for matrix in ("K", "M", "D"):
        got, want = getattr(system, matrix), getattr(oracle, matrix)
        for array in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, array), getattr(want, array))


def test_assemble_peak_memory():
    # measured 11.4 MB at h = 1/24 (n_free 2304): 16.5 MB with the edge
    # trace rows alive through the scatter and each block summed from
    # full-size temporaries, 23.9 MB with concatenated int64 triplets.  The
    # bound leaves a 15 % margin.
    mesh, dofs, kw = _config_case("square.json", 1.0 / 24.0)
    assemble(mesh, dofs, **kw)  # cached reference element and rules
    tracemalloc.start()
    try:
        assemble(mesh, dofs, **kw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 13.1e6
