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
    cones_meet_nontrivially,
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
    intersection_vanishing,
    residue_chain,
)
from .volume_ke import (
    CostGuardError,
    MAReport,
    VolumeFunction,
    is_ke_point,
    verify_ma_identity,
    volume_function,
)
from .catalog import CatalogEntry, catalog_get, catalog_names, principal_cone

__version__ = "0.1.0"
