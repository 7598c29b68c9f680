"""weylkit: exact Weyl-module computations over Schur algebras in prime
characteristic.

The package computes weight-space models of Weyl modules and their simple
heads over F_p, straightens tableau classes to the semistandard basis,
multiplies Schur-algebra basis symbols, builds Hom complexes out of
projective resolutions, and verifies the degree-raising periodicity of Ext
dimensions together with its sharpness witnesses.
"""

__version__ = "0.1.0"

from .fparith import binom_mod, is_prime, multinom_mod
from .shapes import (
    Tableau,
    dominates,
    enumerate_compositions,
    enumerate_omega,
    enumerate_partitions,
    enumerate_sst,
    enumerate_strictly_dominating,
    enumerate_theta,
    kostka,
    matrix_margins,
    plus_shift_composition,
    plus_shift_matrix,
)
from .schur import (
    SchurElement,
    element_product,
    identity_element,
    structure_constant_int,
    xi_product,
)
from .weyl import (
    GramData,
    WeightSpaceModel,
    act_matrix,
    build_weight_space,
    gram_data,
    simple_dim,
    simple_weight_dims,
    straighten,
    two_row_straighten,
)
from .resolutions import (
    box_presentation,
    hook_resolution,
    sy_degree,
    sy_max_degree,
)
from .ext import (
    HomComplex,
    ResourceLimitError,
    TheoremViolationError,
    build_hom_complex,
    build_hook_hom_complex,
    check_hypotheses,
    euler_check,
    hom_dim_oracle,
    hook_ext_crosscheck,
    verify_complex_isomorphism,
    verify_hom_bound,
    verify_periodicity,
)

__all__ = [name for name in dir() if not name.startswith("_")]
