"""End-to-end acceptance suite: golden worked examples for each family,
then the exhaustive laws (round trips, action commutation, Bruhat order,
length agreement, parity) over BFS-enumerated elements, and the README's
library quick start as written."""

import pathlib
import re

import coxabacus as cx
from coxabacus import Family
from coxabacus.abacus import from_permutation, is_even
from coxabacus.oracle import apply_generator_left, apply_generator_scan, bruhat_leq_lifting
from coxabacus.oracle import diagonal_boxes, family_membership, normalize


# 1. full pipeline through all six representations, C~/C rank 3
def test_golden_pipeline_c3():
    ctx = cx.make_context(Family.C_OVER_C, 3)
    w = cx.from_base_window(ctx, [-11, -9, -1, 8, 16, 18])
    a = cx.from_permutation(w)
    assert a.levels == (1, 2, -2, 2, -2, -1)
    assert cx.coordinates(a).coords == (1, 2, -2)
    lam = cx.from_abacus(a)
    assert lam.rows == (10, 9, 6, 5, 5, 3, 2, 2, 2, 1)
    beta = cx.bounded_from_abacus(a)
    assert beta.parts == (5, 5, 4, 2, 1)
    assert beta.star is None
    letters, boxes = cx.central_peel(lam)
    assert letters == [0, 1, 0, 3, 2, 1, 0, 2, 3, 2, 1, 0, 2, 3, 2, 1, 0]
    assert len(boxes) == 17
    assert cx.length_from_abacus(a) == 17
    assert cx.length_from_core(lam) == 17
    assert cx.length_from_rimwalk(lam) == 17


# 2. D~/D rank 5: core, descent classes, s_0 removal size
def test_golden_d5():
    ctx = cx.make_context(Family.D_OVER_D, 5)
    w = cx.from_base_window(ctx, [-12, -7, -5, 2, 3, 8, 9, 16, 18, 23])
    a = cx.from_permutation(w)
    lam = cx.from_abacus(a)
    assert lam.rows == (11, 8, 7, 4, 3, 3, 3, 2, 1, 1, 1)
    expected = {
        0: "descent",
        1: "ascent",
        2: "neither",
        3: "ascent",
        4: "descent",
        5: "neither",
    }
    for g, cls in expected.items():
        assert cx.descent_class(w, g) == cls
    shrunk = cx.from_abacus(cx.apply_generator_abacus(a, 0))
    assert sum(lam.rows) - sum(shrunk.rows) == 4


# 3. D~/D rank 4: canonical word of a length-16 element
def test_golden_d4_word():
    ctx = cx.make_context(Family.D_OVER_D, 4)
    w = cx.from_base_window(ctx, [-14, -11, -10, 3, 6, 19, 20, 23])
    lam = cx.from_abacus(cx.from_permutation(w))
    assert lam.rows == (13, 11, 11, 8, 6, 6, 4, 4, 3, 3, 3, 1, 1)
    letters, _ = cx.central_peel(lam)
    assert letters == [0, 4, 2, 1, 4, 3, 2, 0, 4, 3, 2, 1, 4, 3, 2, 0]
    assert cx.length_from_abacus(cx.to_abacus(lam)) == 16


# 4. B~/D rank 3: one length by all three formulas
def test_golden_b3d3_lengths():
    ctx = cx.make_context(Family.B_OVER_D, 3)
    lam = cx.make_core(ctx, (12, 12, 8, 8, 7, 5, 5, 4, 2, 2, 2, 2))
    assert cx.length_from_core(lam) == 17
    assert cx.length_from_rimwalk(lam) == 17
    assert cx.length_from_abacus(cx.to_abacus(lam)) == 17


# 5. D~/D rank 5: filling of a bounded partition reads off the word
def test_golden_d5_filling_word():
    ctx = cx.make_context(Family.D_OVER_D, 5)
    beta = cx.make_bounded(ctx, (8, 8, 5, 5, 5, 4, 2))
    word = cx.word_from_filling(beta)
    assert word == [
        2, 0, 5, 3, 2, 1, 5, 4, 3, 2, 0, 5, 4, 3, 2, 1, 5, 4, 3, 2, 0,
        1, 2, 3, 5, 4, 3, 2, 1, 0, 2, 3, 5, 4, 3, 2, 0,
    ]


# 6. every composable round trip is the identity, all elements l <= 14
def test_round_trips(tables):
    for (fam, n), table in tables.items():
        ctx = cx.make_context(fam, n)
        for w in table.elements():
            a = cx.from_permutation(w)
            assert cx.to_permutation(a).window == w.window
            lam = cx.from_abacus(a)
            assert cx.to_abacus(lam).levels == a.levels
            assert cx.from_coordinates(cx.coordinates(a)).levels == a.levels
            beta = cx.bounded_from_abacus(a)
            assert cx.abacus_from_bounded(beta).levels == a.levels
            letters, boxes = cx.central_peel(lam)
            # the parts are the row sizes of the peeled upper diagram
            rows = sorted({i for i, _ in boxes})
            assert beta.parts == tuple(sum(1 for i, _ in boxes if i == r) for r in rows)
            assert cx.abacus_from_word(ctx, letters).levels == a.levels
            # re-validate the window through the public constructor
            assert cx.from_base_window(ctx, w.window).window == w.window


# 7. generator actions commute with the bijections, l <= 6; the abacus-based
# core action agrees with the residue-scan oracle
def test_action_commutation(tables):
    for (fam, n), table in tables.items():
        ctx = cx.make_context(fam, n)
        for w in table.elements():
            if table.length(w) > 6:
                continue
            a = cx.from_permutation(w)
            lam = cx.from_abacus(a)
            for g in ctx.generators():
                moved = apply_generator_left(w, g)
                assert cx.apply_generator_abacus(a, g).levels == (
                    from_permutation(moved).levels
                )
                u = normalize(moved)
                core = cx.from_abacus(cx.apply_generator_abacus(a, g))
                assert core.rows == cx.from_abacus(cx.from_permutation(u)).rows
                assert apply_generator_scan(lam, g).rows == core.rows
                assert cx.reflect(cx.coordinates(a), g).coords == (
                    cx.coordinates(cx.apply_generator_abacus(a, g)).coords
                )


# 8. the bounded diagram equals the peeled box set, l <= 14
def test_bounded_diagram_is_peel_set(tables):
    for (fam, n), table in tables.items():
        for w in table.elements():
            lam = cx.from_abacus(cx.from_permutation(w))
            _, boxes = cx.central_peel(lam)
            assert cx.bounded_diagram(lam) == set(boxes)


# 9. Bruhat order on the abacus agrees with the lifting-lemma oracle, all
# pairs l <= 10
def test_bruhat_equivalence(tables):
    for (fam, n), table in tables.items():
        elements = [w for w in table.elements() if table.length(w) <= 10]
        abaci = {w.window: cx.from_permutation(w) for w in elements}
        for x in elements:
            for w in elements:
                assert cx.bruhat_leq(abaci[x.window], abaci[w.window]) == (
                    bruhat_leq_lifting(table, x, w)
                )


# 10. three formulas, BFS distance and word length all agree
def test_length_agreement(tables):
    for (fam, n), table in tables.items():
        for w in table.elements():
            a = cx.from_permutation(w)
            lam = cx.from_abacus(a)
            letters, _ = cx.central_peel(lam)
            target = table.length(w)
            assert cx.length_from_abacus(a) == target
            assert cx.length_from_core(lam) == target
            assert cx.length_from_rimwalk(lam) == target
            assert len(letters) == target


# 11. evenness in the even families
def test_parity_restriction(tables):
    for (fam, n), table in tables.items():
        ctx = cx.make_context(fam, n)
        if not ctx.fork_at_zero:
            continue
        for w in table.elements():
            a = cx.from_permutation(w)
            assert is_even(a)
            lam = cx.from_abacus(a)
            assert diagonal_boxes(lam, 0) % 2 == 0
            assert family_membership(w)


# 12. the README's library quick start runs as written
def test_readme_quick_start():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```$", readme.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(readme), "exec"), {})
