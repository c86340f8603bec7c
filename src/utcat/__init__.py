"""utcat: numerics for C*-algebra objects internal to unitary tensor categories."""

from .algebra_object import AlgebraObject, validate_algebra_object
from .annulus import annulus_basis, build_annulus, z_state
from .basis_change import relabel_category
from .coend import CoendAlgebra
from .fusion_ring import FusionRing, validate_ring
from .inclusion import HilbertSpaceObject, commutant_blocks, discreteness_report
from .semicircular import build_fock, semicircular_ops
from .skeletal import SkeletalUTC

__all__ = [
    "AlgebraObject", "CoendAlgebra", "FusionRing", "HilbertSpaceObject",
    "SkeletalUTC", "annulus_basis",
    "build_annulus", "build_fock", "commutant_blocks",
    "discreteness_report", "relabel_category", "semicircular_ops",
    "validate_algebra_object", "validate_ring", "z_state",
]

__version__ = "0.1.0"
