import random

import coxabacus as cx
from coxabacus import Family
from coxabacus.oracle import (
    length_from_abacus,
    length_from_core,
    length_from_rimwalk,
    length_from_window,
)

C3 = cx.make_context(Family.C_OVER_C, 3)


def test_identity_has_length_zero():
    for fam, n in [
        (Family.C_OVER_C, 2),
        (Family.B_OVER_B, 3),
        (Family.B_OVER_D, 3),
        (Family.D_OVER_D, 4),
    ]:
        ctx = cx.make_context(fam, n)
        a = cx.from_permutation(cx.identity(ctx))
        assert length_from_abacus(a) == 0
        lam = cx.from_abacus(a)
        assert length_from_core(lam) == 0
        assert length_from_rimwalk(lam) == 0
        assert length_from_window(cx.identity(ctx)) == 0


def test_golden_c3_all_three():
    lam = cx.make_core(C3, (10, 9, 6, 5, 5, 3, 2, 2, 2, 1))
    assert length_from_core(lam) == 17
    assert length_from_rimwalk(lam) == 17
    assert length_from_abacus(cx.to_abacus(lam)) == 17
    assert length_from_window(cx.to_permutation(cx.to_abacus(lam))) == 17


def test_golden_b3d3():
    ctx = cx.make_context(Family.B_OVER_D, 3)
    lam = cx.make_core(ctx, (12, 12, 8, 8, 7, 5, 5, 4, 2, 2, 2, 2))
    assert length_from_core(lam) == 17
    assert length_from_rimwalk(lam) == 17


def test_small_core_branch():
    # all parts <= n: the core length reduces to a diagonal-shifted sum
    lam = cx.make_core(C3, (2, 1))
    assert length_from_core(lam) == length_from_rimwalk(lam)
    assert length_from_core(lam) == length_from_abacus(cx.to_abacus(lam))


def test_agreement_with_bfs(tables):
    for (fam, n), table in tables.items():
        for w in table.elements():
            a = cx.from_permutation(w)
            lam = cx.from_abacus(a)
            target = table.length(w)
            assert length_from_abacus(a) == target
            assert length_from_core(lam) == target
            assert length_from_rimwalk(lam) == target
            assert length_from_window(w) == target


def test_generator_changes_length_by_one(tables):
    from coxabacus.oracle import apply_generator_left, normalize

    for (fam, n), table in tables.items():
        ctx = cx.make_context(fam, n)
        for w in table.elements():
            if table.length(w) > 5:
                continue
            for g in ctx.generators():
                u = normalize(apply_generator_left(w, g))
                du = length_from_abacus(cx.from_permutation(u))
                dw = table.length(w)
                assert du - dw in (-1, 0, 1)
                if u.window != w.window:
                    assert du != dw


def test_window_inversions_past_the_bfs():
    # root points far past the BFS tables' length 14, where the fitted d terms
    # could first go wrong; odd points are not elements in B~/B and D~/D
    rng = random.Random(0)
    for fam, n in [(Family.C_OVER_C, 3), (Family.B_OVER_B, 3), (Family.B_OVER_D, 4),
                   (Family.D_OVER_D, 5), (Family.C_OVER_C, 8)]:
        ctx = cx.make_context(fam, n)
        for _ in range(40):
            point = [rng.randint(-6, 6) for _ in range(n)]
            if fam in (Family.B_OVER_B, Family.D_OVER_D) and sum(point) % 2:
                point[0] += 1
            a = cx.from_coordinates(cx.RootPoint(ctx, tuple(point)))
            target = length_from_abacus(a)
            assert length_from_window(cx.to_permutation(a)) == target
            assert length_from_core(cx.from_abacus(a)) == target
