"""A test-side reader of the text mesh format that ``write_mesh`` writes."""

from dataclasses import fields, replace

import numpy as np


def parse_mesh_file(text):
    """The ``Mesh`` arrays that ``write_mesh`` wrote as ``text``: each
    section is a header, its row count and that many rows; the first three
    sections lead each row with its 1-based id."""
    lines = iter(text.splitlines())
    sections = {}
    for header in lines:
        name, n = header.split()
        sections[name] = np.array([next(lines).split()
                                   for _ in range(int(n))], dtype=float)
    assert list(sections) == ["$Nodes", "$Triangles", "$BoundaryEdges",
                              "$Corners"]
    nodes, tris, bnd, corners = sections.values()
    for r in (nodes, tris, bnd):
        assert np.array_equal(r[:, 0], np.arange(1, len(r) + 1))
    return dict(nodes=nodes[:, 1:], triangles=tris[:, 1:].astype(int) - 1,
                boundary_edges=bnd[:, 1:3].astype(int) - 1,
                boundary_labels=bnd[:, 3].astype(int),
                corner_nodes=corners[:, 0].astype(int) - 1,
                corner_gains=corners[:, 1])


def written_arrays(mesh):
    """What ``parse_mesh_file`` gives for the file of ``mesh``: its arrays,
    each chord's label (that of its source edge) and its domain's gains."""
    return dict(nodes=mesh.nodes, triangles=mesh.triangles,
                boundary_edges=mesh.boundary_edges,
                boundary_labels=np.array([mesh.domain.edges[j].label
                                          for j in mesh.boundary_source]),
                corner_nodes=mesh.corner_nodes,
                corner_gains=np.array(mesh.domain.corner_gains))


def with_parsed(mesh, parsed):
    """``mesh`` with the parsed arrays that it stores; the labels and gains
    are its domain's."""
    return replace(mesh, **{f.name: parsed[f.name] for f in fields(mesh)
                            if f.name in parsed})
