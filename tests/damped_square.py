"""The damped square of the dynamics, spectral and acceptance tests.

The unit square with Gamma0 = edges 0 and 3 (clamped), corner gains
(0, 0, 1, 0) and P2 elements; ``build`` assembles it at mesh size ``h``,
with another material or other gains when given.
"""

from dataclasses import replace

from platedecay.assembly import assemble, build_dof_map
from platedecay.geometry import unit_square_domain
from platedecay.meshing import triangulate
from platedecay.plate_forms import PlateMaterial

DOM = unit_square_domain(gamma0_edges=(0, 3), corner_gains=(0, 0, 1.0, 0))
DAMPED = PlateMaterial(mu=0.3, rho=1.0, inertia=1.0, d1=1.0, d2=1.0)


def build(mat=DAMPED, h=0.25, gains=None):
    dom = DOM if gains is None else replace(DOM, corner_gains=gains)
    mesh = triangulate(dom, h)
    dofs = build_dof_map(mesh, 2)
    return assemble(mesh, dofs, mat)
