"""Exact cone and volume-polynomial machinery for smooth toroidal
compactifications of Siegel varieties, with exact period-domain checks.
"""

from .cone_lattice import (
    ConeShapeError,
    DegenerateConeError,
    EdgeClass,
    Fan,
    GroupElement,
    MarkedCone,
    NotInLatticeError,
    component_count,
    cones_meet_nontrivially,
    coords_in_lattice,
    delta_basis,
    edge_class,
    gl_act,
    is_fan,
    is_regular,
    is_separable,
    lattice_volume,
    sym_dim,
)
from .exact_algebra import (
    DimensionError,
    MultiPoly,
    ZeroPolynomialError,
    pencil_det,
)
from .residue_intersect import (
    ChiDescriptor,
    IntersectionVerdict,
    ResidueChain,
    chi_descriptor,
    degree_profile,
    intersection_vanishing,
    residue_chain,
    toric_full_intersection,
)
from .volume_ke import (
    CostGuardError,
    MAReport,
    VolumeFunction,
    g2_closed_form,
    is_ke_point,
    permutation_check,
    verify_ma_identity,
    volume_function,
)
from .catalog import CatalogEntry, catalog_get, catalog_names, principal_cone

__version__ = "0.1.0"
