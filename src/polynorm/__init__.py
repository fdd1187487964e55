"""polynorm: exact k-normality, very-ampleness, and regularity invariants
of lattice polytopes.

All computation is exact (arbitrary-precision integers and rationals); the
library decides k-normality by enumeration, certifies very-ampleness through
vertex-semigroup saturation at the decomposition threshold, and evaluates a
family of combinatorial upper bounds against the computed ground truth.
"""

__version__ = "0.1.0"

from .bounds import (
    InvariantReport,
    classical_bounds,
    eg_check,
    full_report,
    refined_bound,
    regularity,
    report_to_dict,
    smooth_bounds,
    theorem_bound,
)
from .catalog import (
    bruns_gubeladze,
    cube,
    higashitani,
    parse_family,
    random_polytope,
    reeve_like,
    standard_simplex,
)
from .invariants import (
    SmoothData,
    compute_d_P,
    compute_k_P,
    compute_nu_P,
    degree,
    volume_ehrhart,
    volume_triangulation,
)
from .polytope import (
    GeometryError,
    HalfSpace,
    Polytope,
    from_points,
)
from .semigroup import (
    GeneratorSet,
    ReprCertificate,
    compute_m_P,
    generator_set,
    sigma,
)

__all__ = [
    "InvariantReport", "classical_bounds", "eg_check",
    "full_report", "refined_bound", "regularity",
    "report_to_dict", "smooth_bounds", "theorem_bound",
    "bruns_gubeladze", "cube", "higashitani", "parse_family",
    "random_polytope", "reeve_like", "standard_simplex",
    "SmoothData", "compute_d_P", "compute_k_P", "compute_nu_P",
    "degree", "volume_ehrhart", "volume_triangulation",
    "GeometryError", "HalfSpace", "Polytope", "from_points",
    "GeneratorSet", "ReprCertificate", "compute_m_P", "generator_set",
    "sigma",
]
