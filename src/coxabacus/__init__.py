"""Minimal-length coset representatives of affine Weyl group quotients in
types C, B, and D, modeled six ways: mirrored permutations, abacus
diagrams, root lattice points, symmetric cores, bounded partitions, and
canonical reduced words."""

from .abacus import (
    Abacus,
    abacus_from_word,
    apply_generator_abacus,
    bruhat_leq,
    from_permutation,
    identity_abacus,
    is_even,
    make_abacus,
    to_permutation,
)
from .bounded import (
    BoundedPartition,
    abacus_from_bounded,
    bounded_from_abacus,
    make_bounded,
    parse_bounded,
    residue_filling,
    word_from_filling,
)
from .context import Family, GroupContext, make_context
from .core import CorePartition, from_abacus, make_core, residue, to_abacus
from .errors import CoxabacusError
from .rootlattice import RootPoint, coordinates, from_coordinates
from .window import MirroredPermutation, from_base_window

__all__ = [
    "Abacus",
    "BoundedPartition",
    "CorePartition",
    "CoxabacusError",
    "Family",
    "GroupContext",
    "MirroredPermutation",
    "QuotientTable",
    "RootPoint",
    "abacus_from_bounded",
    "abacus_from_word",
    "apply_generator_abacus",
    "apply_generator_left",
    "bounded_diagram",
    "bounded_from_abacus",
    "bruhat_leq",
    "bruhat_leq_lifting",
    "central_peel",
    "coordinates",
    "coxeter_matrix",
    "descent_class",
    "enumerate_quotient",
    "from_abacus",
    "from_base_window",
    "from_coordinates",
    "from_permutation",
    "identity",
    "identity_abacus",
    "is_even",
    "is_minimal_coset_rep",
    "length_from_abacus",
    "length_from_core",
    "length_from_rimwalk",
    "make_abacus",
    "make_bounded",
    "make_context",
    "make_core",
    "normalize",
    "parse_bounded",
    "reflect",
    "residue",
    "residue_filling",
    "to_abacus",
    "to_permutation",
    "word_from_filling",
]


def __getattr__(name):
    """The oracle names in __all__, loaded on first use: they check the
    engine and no command runs them, so a command never imports oracle.py."""
    if name in __all__:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
