"""Polarization of planar sets/functions and p-Laplacian eigenvalues on
punctured domains, with experiment runners for the associated inequality
and monotonicity checks."""

from . import errors
from .geometry import (
    DIRICHLET,
    NEUMANN,
    Disk,
    Ellipse,
    Grid,
    Polarizer,
    PuncturedDomain,
    RasterSet,
    Rectangle,
    Rhombus,
    UnionShape,
    axis_polarizer,
    connected_components,
    default_polarizer_pool,
    dual_polarize_set,
    fss_polarizer_pool,
    is_foliated_schwarz,
    is_polarization_invariant,
    is_steiner_symmetric,
    polarize_punctured,
    polarize_set,
    rasterize,
    reflect_point,
    rotated_obstacle,
    rotation_polarizer,
    translated_obstacle,
    witness_sets,
)
from .rearrange import (
    GridFunction,
    check_nonexpansive,
    nodal_p_norm,
    polarize_function,
    support_set,
)
from .discretize import TriMesh, energy_p, grad_energy_p, grad_mass_p, mass_p, triangulate
from .eigensolve import EigenResult, SolverConfig, check_weak_form, rayleigh, solve

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
