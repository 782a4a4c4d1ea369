"""Numerical laboratory for boundary-damped Kirchhoff plates on polygons."""

__version__ = "0.1.0"

from .geometry import (ConditionReport, DomainSpec, EdgeSpec, GAMMA0, GAMMA1,
                       check_condition_g, check_condition_h, corner_angles,
                       find_observer_point, lens_domain, polygon_domain,
                       unit_square_domain)
from .meshing import Mesh, refine, triangulate, validate_mesh, write_mesh
from .plate_forms import (PlateMaterial, PolyField, bilinear_a,
                          greens_identity_residual,
                          multiplier_identity_residual, q_density)
from .assembly import (AssembledSystem, DofMap, assemble, assemble_load,
                       build_dof_map, energy, solve_static)
from .dynamics import (DecayFit, EnergyTrace, boundary_bump_data, decay_fit,
                       dissipation_residual, eigenpacket_data, simulate)
from .spectral import (damping_branch_fit, growth_fit, pencil_eigenvalues,
                       resolved_band, resolvent_sweep, suggest_sweep_omegas)
