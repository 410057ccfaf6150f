import pytest

import coxabacus as cx
from coxabacus import Family
from coxabacus.errors import ParityViolation
from coxabacus.oracle import reflect
from coxabacus.abacus import RootPoint, coordinates, from_coordinates

C3 = cx.make_context(Family.C_OVER_C, 3)
D4 = cx.make_context(Family.D_OVER_D, 4)


def test_golden_coordinates():
    w = cx.from_base_window(C3, [-11, -9, -1, 8, 16, 18])
    pt = coordinates(cx.from_permutation(w))
    assert pt.coords == (1, 2, -2)


def test_round_trip(tables):
    for (fam, n), table in tables.items():
        for w in table.elements():
            a = cx.from_permutation(w)
            assert from_coordinates(coordinates(a)).levels == a.levels


def test_identity_is_origin():
    a = cx.from_permutation(cx.identity(C3))
    assert coordinates(a).coords == (0, 0, 0)


def test_parity_rejected_in_even_family():
    with pytest.raises(ParityViolation):
        from_coordinates(RootPoint(D4, (1, 0, 0, 0)))


def test_reflect_matches_abacus_action(tables):
    for (fam, n), table in tables.items():
        ctx = cx.make_context(fam, n)
        for w in table.elements():
            if table.length(w) > 5:
                continue
            a = cx.from_permutation(w)
            pt = coordinates(a)
            for g in ctx.generators():
                moved = coordinates(cx.apply_generator_abacus(a, g))
                assert reflect(pt, g).coords == moved.coords


def test_reflections_are_involutions():
    pt = RootPoint(C3, (1, 2, -2))
    for g in C3.generators():
        assert reflect(reflect(pt, g), g).coords == pt.coords
