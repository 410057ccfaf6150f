import pytest

import coxabacus as cx
from coxabacus import Family
from coxabacus.abacus import generator_moves, move_levels, size_change
from coxabacus.core import (
    CorePartition,
    conjugate,
    contains,
    descent_chain,
    diagonal_boxes,
    from_abacus,
    make_core,
    residue,
    to_abacus,
    validate_core,
)
from coxabacus.errors import (
    CoxabacusError,
    NotACore,
    NotSymmetric,
    ParityViolation,
)
from coxabacus.oracle import apply_generator_scan, core_size, validate_core_scan

C3 = cx.make_context(Family.C_OVER_C, 3)
D5 = cx.make_context(Family.D_OVER_D, 5)
GOLDEN_C3 = (10, 9, 6, 5, 5, 3, 2, 2, 2, 1)


def test_golden_core_from_abacus():
    w = cx.from_base_window(C3, [-11, -9, -1, 8, 16, 18])
    lam = from_abacus(cx.from_permutation(w))
    assert lam.rows == GOLDEN_C3


def test_core_abacus_round_trip(tables):
    for (fam, n), table in tables.items():
        for w in table.elements():
            a = cx.from_permutation(w)
            lam = from_abacus(a)
            validate_core(lam)
            assert to_abacus(lam).levels == a.levels


def test_empty_core_is_identity():
    lam = make_core(C3, ())
    assert to_abacus(lam).levels == (0,) * 6
    assert from_abacus(cx.from_permutation(cx.identity(C3))).rows == ()


def test_conjugate():
    assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
    assert conjugate(GOLDEN_C3) == GOLDEN_C3  # symmetric


def test_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        make_core(C3, (2, 1, 1, 1))
    # a long first row is rejected before any transpose is built
    with pytest.raises(NotSymmetric) as err:
        make_core(C3, (10**7,))
    assert len(str(err.value)) < 100


def test_rejects_bad_hook():
    # symmetric, but box (1,2) has hook length 6
    with pytest.raises(NotACore):
        make_core(C3, (4, 4, 4, 4))


def test_rejects_odd_diagonal_in_even_family():
    d4 = cx.make_context(Family.D_OVER_D, 4)
    with pytest.raises((ParityViolation, NotACore, NotSymmetric)):
        make_core(d4, (1,))


def test_residue_fixed_region():
    lam = make_core(C3, GOLDEN_C3)
    assert residue(lam, 1, 2) == 1
    assert residue(lam, 1, 1) == 0
    assert residue(lam, 1, 4) == 3  # past n the residues fold back
    assert residue(lam, 2, 1) == 1


def test_residue_d5_figure_cell():
    w = cx.from_base_window(D5, [-12, -7, -5, 2, 3, 8, 9, 16, 18, 23])
    lam = from_abacus(cx.from_permutation(w))
    assert residue(lam, 1, 12) == 1


def test_apply_generator_neither_fixes():
    w = cx.from_base_window(D5, [-12, -7, -5, 2, 3, 8, 9, 16, 18, 23])
    lam = from_abacus(cx.from_permutation(w))
    assert cx.apply_generator_core(lam, 2).rows == lam.rows
    assert cx.apply_generator_core(lam, 5).rows == lam.rows
    for g in D5.generators():
        assert cx.apply_generator_core(lam, g) == apply_generator_scan(lam, g)


def test_contains_reflexive_and_grounded(tables):
    for (fam, n), table in tables.items():
        empty = make_core(cx.make_context(fam, n), ())
        for w in table.elements():
            if table.length(w) > 5:
                continue
            lam = from_abacus(cx.from_permutation(w))
            assert contains(lam, lam)
            assert contains(lam, empty)
            assert cx.bruhat_leq(empty, lam)


def test_contains_respects_length(tables):
    for (fam, n), table in tables.items():
        elements = [w for w in table.elements() if table.length(w) <= 5]
        cores = {w.window: from_abacus(cx.from_permutation(w)) for w in elements}
        for x in elements:
            for w in elements:
                if contains(cores[w.window], cores[x.window]):
                    assert table.length(x) <= table.length(w)


def test_contains_is_partial_order(tables):
    for (fam, n), table in tables.items():
        elements = [w for w in table.elements() if table.length(w) <= 5]
        cores = [from_abacus(cx.from_permutation(w)) for w in elements]
        rel = {
            (a.rows, b.rows)
            for a in cores
            for b in cores
            if contains(b, a)
        }
        for a in cores:
            for b in cores:
                if (a.rows, b.rows) in rel and (b.rows, a.rows) in rel:
                    assert a.rows == b.rows
                for c in cores:
                    if (a.rows, b.rows) in rel and (b.rows, c.rows) in rel:
                        assert (a.rows, c.rows) in rel


def test_covers_of_identity(tables):
    for (fam, n), table in tables.items():
        ctx = cx.make_context(fam, n)
        empty = make_core(ctx, ())
        layer1 = [w for w in table.elements() if table.length(w) == 1]
        assert len(layer1) == 1  # only s_0 leaves the finite subgroup
        lam = from_abacus(cx.from_permutation(layer1[0]))
        assert contains(lam, empty) and not contains(empty, lam)


def test_diagonal_boxes():
    lam = make_core(C3, GOLDEN_C3)
    assert diagonal_boxes(lam, 0) == 5
    assert diagonal_boxes(lam, 3) == sum(
        1 for i in range(1, 11) if GOLDEN_C3[i - 1] >= i + 3
    )


def test_core_size_formula(tables):
    for (fam, n), table in tables.items():
        for w in table.elements():
            a = cx.from_permutation(w)
            assert core_size(a) == sum(from_abacus(a).rows)
            for g in a.ctx.generators():
                moved = cx.apply_generator_abacus(a, g)
                change = size_change(n, a.levels, generator_moves(a.ctx, g))
                assert change == core_size(moved) - core_size(a)


def test_descent_chain_has_one_step_per_letter(tables):
    for (fam, n), table in tables.items():
        for w in table.elements():
            a = cx.from_permutation(w)
            chain = descent_chain(a)
            assert len(chain) == cx.length_from_abacus(a) == table.length(w)
            if chain:
                last, moves = chain[-1]
                assert chain[0][0] == a.levels and not any(move_levels(last, moves))


def test_contains_past_the_recursion_limit():
    c2 = cx.make_context(Family.C_OVER_C, 2)
    a = cx.from_coordinates(cx.RootPoint(c2, (300, -120)))
    assert cx.length_from_abacus(a) == 1437
    lam = from_abacus(a)
    empty = make_core(c2, ())
    assert contains(lam, empty)
    assert not contains(empty, lam)


def _partitions(total, most):
    if total == 0:
        yield ()
        return
    for first in range(min(total, most), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


def _symmetric_partitions(max_size):
    """Symmetric partitions by Frobenius arms a_1 > ... > a_d >= 0: row i
    is a_i + i on the diagonal and the column count of the arms below."""

    def arms(budget, below):
        yield ()
        for a in range(min(below, (budget - 1) // 2), -1, -1):
            for rest in arms(budget - 2 * a - 1, a - 1):
                yield (a,) + rest

    for arm in arms(max_size, max_size):
        top = [a + i for i, a in enumerate(arm, start=1)]
        width = top[0] if top else 0
        low = [sum(1 for t in top if t >= i) for i in range(len(top) + 1, width + 1)]
        yield tuple(top + low)


def _outcome(check, lam):
    try:
        check(lam)
    except CoxabacusError as exc:
        return type(exc)
    return None


def test_validate_core_matches_hook_scan(tables):
    # every partition of size <= 22, and every symmetric one of size <= 60
    shapes = [p for k in range(23) for p in _partitions(k, k)]
    shapes += [p for p in _symmetric_partitions(60) if sum(p) > 22]
    for fam, n in tables:
        ctx = cx.make_context(fam, n)
        for rows in shapes:
            lam = CorePartition(ctx, rows)
            expected = _outcome(validate_core_scan, lam)
            assert _outcome(validate_core, lam) == expected, rows
