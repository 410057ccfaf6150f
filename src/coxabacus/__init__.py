"""Minimal-length coset representatives of affine Weyl group quotients in
types C, B, and D, modeled six ways: mirrored permutations, abacus
diagrams, root lattice points, symmetric cores, bounded partitions, and
canonical reduced words.

The package root imports nothing: each public name below loads the module
that holds it on first use, so `import coxabacus` alone loads no
submodule, and a command (`import coxabacus.cli`) never loads oracle.py,
the slow paths kept to check the engine."""

_NAMES = {
    "abacus": """Abacus MirroredPermutation RootPoint abacus_from_word
        apply_generator_abacus bruhat_leq coordinates from_base_window
        from_coordinates from_permutation identity_abacus is_even make_abacus
        to_permutation""",
    "context": "Family GroupContext make_context",
    "core": """BoundedPartition CorePartition abacus_from_bounded
        bounded_from_abacus from_abacus make_bounded make_core parse_bounded
        residue residue_filling to_abacus word_from_filling""",
    "errors": "CoxabacusError",
    "oracle": """QuotientTable apply_generator_left bounded_diagram
        bruhat_leq_lifting central_peel coxeter_matrix descent_class
        enumerate_quotient identity is_minimal_coset_rep length_from_abacus
        length_from_core length_from_rimwalk normalize reflect""",
}
_HOME = {name: module for module, names in _NAMES.items() for name in names.split()}
__all__ = sorted(_HOME)


def __getattr__(name):
    """`from .<home> import <name>`, kept in the module's globals, so the
    next lookup of the name is a plain attribute read."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__import__(_HOME[name], globals(), None, [name], 1), name)
    return value


def __dir__():
    return sorted(globals().keys() | _HOME.keys())
