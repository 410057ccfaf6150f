import pytest

import coxabacus as cx
from coxabacus import Family
from coxabacus.abacus import (
    Abacus,
    apply_generator_abacus,
    bead_at,
    first_gap,
    from_permutation,
    generator_moves,
    identity_abacus,
    is_even,
    last_bead,
    make_abacus,
    runner_of,
    to_permutation,
)
from coxabacus.errors import BalanceViolation, ParityViolation, UnknownGenerator, ZeroResidue
from coxabacus.oracle import gaps_between, lowest_bead
from coxabacus.window import generator_value

C3 = cx.make_context(Family.C_OVER_C, 3)
B3 = cx.make_context(Family.B_OVER_B, 3)


def golden():
    w = cx.from_base_window(C3, [-11, -9, -1, 8, 16, 18])
    return from_permutation(w)


def test_golden_levels():
    assert golden().levels == (1, 2, -2, 2, -2, -1)


def test_identity_abacus():
    a = identity_abacus(C3)
    assert a.levels == (0,) * 6
    assert first_gap(a) == 8
    assert last_bead(a) == 6


def test_rejects_unbalanced_levels():
    with pytest.raises(BalanceViolation):
        make_abacus(C3, (1, 0, 0, 0, 0, 0))
    with pytest.raises(BalanceViolation):
        make_abacus(C3, (1, 0, 0, 0))


def test_bead_positions():
    a = golden()
    # runner 1 holds beads at ... -6, 1, 8 and gaps above
    assert bead_at(a, 8)
    assert not bead_at(a, 15)
    assert lowest_bead(a, 1) == 8
    assert lowest_bead(a, 3) == -11


def test_first_gap_and_last_bead():
    a = golden()
    assert first_gap(a) == min((lvl + 1) * 7 + r for r, lvl in enumerate(a.levels, 1))
    assert last_bead(a) == 18


def test_gap_counts():
    a = identity_abacus(C3)
    assert gaps_between(a, 1, 6) == 0
    assert gaps_between(a, 6, 15) == 6  # 8..13 are all gaps, 14 skipped, 7 skipped


def test_round_trip_window(tables):
    for (fam, n), table in tables.items():
        for w in table.elements():
            assert to_permutation(from_permutation(w)).window == w.window


def test_is_even_identity():
    assert is_even(identity_abacus(B3))


def test_to_permutation_rejects_odd_in_even_family():
    with pytest.raises(ParityViolation):
        to_permutation(make_abacus(B3, (1, 0, 0, 0, 0, -1)))


def test_odd_levels_raise_in_even_families():
    D4 = cx.make_context(Family.D_OVER_D, 4)
    for ctx, levels in ((B3, (1, 0, 0, 0, 0, -1)), (D4, (0, 0, 0, 1, -1, 0, 0, 0))):
        with pytest.raises(ParityViolation):
            make_abacus(ctx, levels)
        with pytest.raises(ParityViolation):  # the bare dataclass skips make_abacus
            to_permutation(Abacus(ctx, levels))


def test_runner_of_a_multiple_of_n_raises():
    with pytest.raises(ZeroResidue):
        runner_of(C3, C3.N)


def test_action_matches_window_action(tables):
    from coxabacus.oracle import apply_generator_left

    for (fam, n), table in tables.items():
        ctx = cx.make_context(fam, n)
        for w in table.elements():
            if table.length(w) > 5:
                continue
            a = from_permutation(w)
            for g in ctx.generators():
                expect = from_permutation(apply_generator_left(w, g))
                assert cx.apply_generator_abacus(a, g).levels == expect.levels


def test_action_is_the_runner_map(tables):
    # each runner's lowest bead mapped through the value action of s_g
    for (fam, n), table in tables.items():
        ctx = cx.make_context(fam, n)
        for w in table.elements():
            a = from_permutation(w)
            for g in ctx.generators():
                levels = [0] * (2 * n)
                for r, lvl in enumerate(a.levels, start=1):
                    m, s = divmod(generator_value(ctx, g, lvl * ctx.N + r), ctx.N)
                    levels[s - 1] = m
                assert apply_generator_abacus(a, g).levels == tuple(levels)
                assert len(generator_moves(ctx, g)) <= 4


def test_generator_moves_cache_is_bounded():
    assert generator_moves.cache_info().maxsize is not None


@pytest.mark.parametrize(
    "family, n, g",
    [(Family.C_OVER_C, 3, -1), (Family.C_OVER_C, 3, 4), (Family.D_OVER_D, 4, -1),
     (Family.D_OVER_D, 4, 5)],
)
def test_out_of_range_generator_raises(family, n, g):
    ctx = cx.make_context(family, n)
    w = cx.identity(ctx)
    a = from_permutation(w)
    actions = (
        lambda: apply_generator_abacus(a, g),
        lambda: cx.apply_generator_left(w, g),
        lambda: cx.descent_class(w, g),
        lambda: cx.reflect(cx.coordinates(a), g),
        lambda: cx.abacus_from_word(ctx, [g]),
    )
    for act in actions:
        with pytest.raises(UnknownGenerator):
            act()
