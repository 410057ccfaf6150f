"""Minimal-length coset representatives of affine Weyl group quotients in
types C, B, and D, modeled six ways: mirrored permutations, abacus
diagrams, root lattice points, symmetric cores, bounded partitions, and
canonical reduced words."""

from .abacus import (
    Abacus,
    abacus_from_word,
    apply_generator_abacus,
    descent_class,
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
    bounded_partition,
    make_bounded,
    parse_bounded,
    residue_filling,
    word_from_filling,
)
from .context import Family, GroupContext, coxeter_matrix, make_context
from .core import (
    CorePartition,
    apply_generator_core,
    bruhat_leq,
    contains,
    from_abacus,
    make_core,
    residue,
    to_abacus,
    word_to_core,
)
from .errors import CoxabacusError
from .lengths import length_from_abacus, length_from_core, length_from_rimwalk
from .oracle import (
    QuotientTable,
    bounded_diagram,
    bruhat_leq_lifting,
    central_peel,
    enumerate_quotient,
)
from .rootlattice import RootPoint, coordinates, from_coordinates, reflect
from .window import (
    MirroredPermutation,
    apply_generator_left,
    from_base_window,
    identity,
    is_minimal_coset_rep,
    normalize,
)

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
    "apply_generator_core",
    "apply_generator_left",
    "bounded_diagram",
    "bounded_from_abacus",
    "bounded_partition",
    "bruhat_leq",
    "bruhat_leq_lifting",
    "central_peel",
    "contains",
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
    "word_to_core",
]
