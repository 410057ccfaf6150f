import sys

import coxabacus as cx
import coxabacus.oracle as oracle
from coxabacus import Family
from coxabacus.abacus import abacus_from_word, generator_moves
from coxabacus.oracle import bounded_diagram, central_peel, reference_diagonal

C3 = cx.make_context(Family.C_OVER_C, 3)


def test_reference_diagonal_by_family():
    assert reference_diagonal(cx.make_context(Family.C_OVER_C, 2)) == 0
    assert reference_diagonal(cx.make_context(Family.B_OVER_D, 3)) == 0
    assert reference_diagonal(cx.make_context(Family.B_OVER_B, 3)) == 1
    assert reference_diagonal(cx.make_context(Family.D_OVER_D, 4)) == 1


def test_golden_word():
    lam = cx.make_core(C3, (10, 9, 6, 5, 5, 3, 2, 2, 2, 1))
    letters, boxes = central_peel(lam)
    assert letters == [0, 1, 0, 3, 2, 1, 0, 2, 3, 2, 1, 0, 2, 3, 2, 1, 0]
    assert len(boxes) == len(letters)
    assert len(set(boxes)) == len(boxes)


def test_empty_peel():
    lam = cx.make_core(C3, ())
    assert central_peel(lam) == ([], [])
    assert bounded_diagram(lam) == set()


def test_word_to_core_round_trip(tables):
    for (fam, n), table in tables.items():
        ctx = cx.make_context(fam, n)
        for w in table.elements():
            lam = cx.from_abacus(cx.from_permutation(w))
            letters, _ = central_peel(lam)
            assert cx.from_abacus(abacus_from_word(ctx, letters)).rows == lam.rows


def test_word_is_reduced(tables):
    for (fam, n), table in tables.items():
        for w in table.elements():
            lam = cx.from_abacus(cx.from_permutation(w))
            letters, _ = central_peel(lam)
            assert len(letters) == table.length(w)


def test_bounded_diagram_matches_peel(tables):
    for (fam, n), table in tables.items():
        for w in table.elements():
            lam = cx.from_abacus(cx.from_permutation(w))
            _, boxes = central_peel(lam)
            assert bounded_diagram(lam) == set(boxes)


def test_bounded_diagram_size_is_length(tables):
    for (fam, n), table in tables.items():
        for w in table.elements():
            lam = cx.from_abacus(cx.from_permutation(w))
            assert len(bounded_diagram(lam)) == table.length(w)


def test_peel_letters_start_with_zero():
    # the rightmost letter of every canonical word is s_0
    lam = cx.make_core(C3, (10, 9, 6, 5, 5, 3, 2, 2, 2, 1))
    letters, _ = central_peel(lam)
    assert letters[-1] == 0


def test_bounded_diagram_conjugates_once(monkeypatch):
    calls = []
    original = oracle.conjugate

    def counted(rows):
        calls.append(rows)
        return original(rows)

    # rebind in every module that imported it, so no call goes unseen
    for name, mod in list(sys.modules.items()):
        if name.startswith("coxabacus") and getattr(mod, "conjugate", None) is original:
            monkeypatch.setattr(mod, "conjugate", counted)
    lam = cx.make_core(C3, (10, 9, 6, 5, 5, 3, 2, 2, 2, 1))
    calls.clear()
    bounded_diagram(lam)
    assert len(calls) == 1


def test_bounded_diagram_of_a_long_element():
    # |lambda| = 5772; one hook per box made this quadratic
    lam = cx.from_abacus(cx.from_coordinates(cx.RootPoint(C3, (24, -16, 12))))
    assert sum(lam.rows) == 5772
    assert bounded_diagram(lam) == set(central_peel(lam)[1])


def test_abacus_from_word_fetches_each_move_table_once(monkeypatch):
    c2 = cx.make_context(Family.C_OVER_C, 2)
    a = cx.from_coordinates(cx.RootPoint(c2, (300, -120)))
    letters = cx.word_from_filling(cx.bounded_from_abacus(a))
    assert len(letters) == 1437
    fetched = []

    def counted(ctx, g):
        fetched.append(g)
        return generator_moves(ctx, g)

    monkeypatch.setattr("coxabacus.abacus.generator_moves", counted)
    b = abacus_from_word(c2, letters)
    assert b == a
    assert 0 < len(fetched) <= c2.n + 1
