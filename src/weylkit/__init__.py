"""Exact divided-difference calculus on character rings of compact Lie groups.

Everything is integer-exact: characters live in sparse Laurent-polynomial
form over the weight lattice, divided differences divide exactly or raise,
and every randomized check is seeded. See the README for conventions (in
particular the Cartan-matrix column convention) and the CLI reference.
"""

import gc

from .charring import CharElt, monomial, weyl_act_simple
from .config import resolve_strict, set_strict_default, strict_default
from .covers import CoverDatum, build_cover, decompose_cover, pullback, reconstruct_cover
from .demazure import alternating_quotient, delta, delta_prime, partial, partial_prime, top
from .errors import (
    FreenessCheckFailed,
    InternalInvariantError,
    NotDivisible,
    NotFiniteType,
    NotInvariant,
    ParseError,
    SafetyBoundExceeded,
    SingularMatrix,
    WeylkitError,
    WordMismatch,
)
from .hecke import (
    HeckeOp,
    OpExpr,
    in_augmentation_ideal,
    is_ideal_invariant,
    is_weyl_invariant,
    to_basis,
)
from .parsing import parse_char_expression, parse_operator_expression, parse_weight
from .repring import (
    IrredDecomp,
    SteinbergBasis,
    decompose_into_irreducibles,
    decompose_over_invariants,
    induce,
    irreducible_character,
    orbit_sum,
    reconstruct_over_invariants,
    restrict,
    steinberg_basis,
    tensor_product,
    weyl_dimension,
)
from .rootdata import Root, RootDatum, Weight, build_root_datum
from .selftest import run_selftest
from .weyl import WeylElt, WeylGroup, orbit, weyl_group

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # root data
    "Root",
    "RootDatum",
    "Weight",
    "build_root_datum",
    # Weyl group
    "WeylElt",
    "WeylGroup",
    "orbit",
    "weyl_group",
    # character ring
    "CharElt",
    "monomial",
    "weyl_act_simple",
    # divided differences
    "alternating_quotient",
    "delta",
    "delta_prime",
    "partial",
    "partial_prime",
    "top",
    # operator algebra
    "HeckeOp",
    "OpExpr",
    "in_augmentation_ideal",
    "is_ideal_invariant",
    "is_weyl_invariant",
    "to_basis",
    # representation ring
    "IrredDecomp",
    "SteinbergBasis",
    "decompose_into_irreducibles",
    "decompose_over_invariants",
    "induce",
    "irreducible_character",
    "orbit_sum",
    "reconstruct_over_invariants",
    "restrict",
    "steinberg_basis",
    "tensor_product",
    "weyl_dimension",
    # covers
    "CoverDatum",
    "build_cover",
    "decompose_cover",
    "pullback",
    "reconstruct_cover",
    # parsing
    "parse_char_expression",
    "parse_operator_expression",
    "parse_weight",
    # config
    "resolve_strict",
    "set_strict_default",
    "strict_default",
    # selftest
    "run_selftest",
    # errors
    "WeylkitError",
    "InternalInvariantError",
    "WordMismatch",
    "NotFiniteType",
    "SafetyBoundExceeded",
    "NotDivisible",
    "NotInvariant",
    "FreenessCheckFailed",
    "SingularMatrix",
    "ParseError",
]

# The objects that importing the package creates (functions, classes, module
# tables) live as long as the process. One sweep of the young generations
# here runs the collection they would otherwise trigger, about 1.3 ms, during
# import, instead of in the caller's first operations.
gc.collect(1)
