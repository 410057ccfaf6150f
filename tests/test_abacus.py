import pytest

import coxabacus as cx
from coxabacus import Family, coxeter_matrix
from coxabacus.abacus import (
    Abacus,
    RootPoint,
    apply_generator_abacus,
    ascent_walk,
    from_permutation,
    generator_moves,
    identity_abacus,
    is_even,
    make_abacus,
    move_levels,
    runner_of,
    to_permutation,
    window_of,
)
from coxabacus.errors import BadRequest, BalanceViolation, MalformedText, ParityViolation, UnknownGenerator
from coxabacus.errors import ZeroResidue
from coxabacus.oracle import apply_generator_left, bead_at, descent_class, first_gap, gaps_between
from coxabacus.oracle import generator_value, identity, last_bead, lowest_bead, reflect, size_change

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
    with pytest.raises(BalanceViolation) as err:
        make_abacus(C3, (1, 0, 0, 0, 0, 0))
    assert str(err.value) == "levels of runners 1 and 6 do not cancel"
    with pytest.raises(BalanceViolation) as err:
        make_abacus(C3, (1, 0, 0, 0))
    assert str(err.value) == "need 6 runner levels"


def test_balance_is_checked_on_every_mirrored_pair():
    # the loop checks each pair (i, N-i) once, from i = 1 up to the middle pair (n, n+1)
    for i in (1, 2, 3):
        levels = [0] * 6
        levels[i - 1] = 1
        with pytest.raises(BalanceViolation, match=f"^levels of runners {i} and {7 - i} do not cancel$"):
            make_abacus(C3, levels)


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
        with pytest.raises(ParityViolation):  # the bare constructor skips make_abacus
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


def test_the_runner_table_satisfies_the_coxeter_relations(tables):
    # (s_i s_j)^m(i,j) fixes every element, and each smaller power moves one
    for (fam, n), table in tables.items():
        ctx = cx.make_context(fam, n)
        m, moves = coxeter_matrix(ctx), [generator_moves(ctx, g) for g in ctx.generators()]
        for i in ctx.generators():
            for j in ctx.generators():
                moved = set()
                for w in table.elements():
                    x = start = from_permutation(w).levels
                    for k in range(1, m[i][j] + 1):
                        x = move_levels(move_levels(x, moves[j]), moves[i])
                        if x != start:
                            moved.add(k)
                    assert x == start, (fam, n, i, j, start)
                assert moved == set(range(1, m[i][j])), (fam, n, i, j)


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


@pytest.mark.parametrize("family", list(Family))
def test_ascent_walk_records_a_descent_step_for_each_element(family):
    # lower_covers reads each element's covers off the recorded step: w = s_g x
    # for x one layer below, so the moves of g take w back to x and lower it
    for n in range(family.min_rank, 7):
        ctx = cx.make_context(family, n)
        tables = [generator_moves(ctx, g) for g in ctx.generators()]
        layers = ascent_walk(ctx, 10)
        length = {w: k for k, layer in enumerate(layers) for w in layer}
        assert layers[0] == {(0,) * (2 * n): None}
        for layer in layers[1:]:
            for w, (x, moves) in layer.items():
                assert moves in tables
                assert move_levels(w, moves) == x
                assert size_change(n, w, moves) < 0
                assert length[x] == length[w] - 1


def test_ascent_walk_rejects_a_negative_length():
    # the identity alone would be the walk of length 0, not an answer to -1
    with pytest.raises(BadRequest, match="^--max-len must be nonnegative$"):
        ascent_walk(C3, -1)
    assert ascent_walk(C3, 0) == [{(0,) * 6: None}]


@pytest.mark.parametrize("letters", [["1"], [None], "10", [1.0]])
def test_abacus_from_word_reads_its_letters_as_integers(letters):
    # read like every other constructor's integers, not compared or indexed raw
    with pytest.raises(MalformedText, match="not an integer"):
        cx.abacus_from_word(C3, letters)


def test_window_of_is_the_minimal_window(tables):
    # every element's own window, from its level vector alone
    for (fam, n), table in tables.items():
        ctx = cx.make_context(fam, n)
        for w in table.elements():
            assert window_of(ctx, from_permutation(w).levels) == w.window


@pytest.mark.parametrize("bad", [1.0, "1", None])
@pytest.mark.parametrize(
    "call",
    [lambda g: ascent_walk(C3, g),
     lambda g: apply_generator_abacus(identity_abacus(C3), g),
     lambda g: apply_generator_left(identity(C3), g),
     lambda g: descent_class(identity(C3), g),
     lambda g: reflect(RootPoint(C3, (0, 0, 0)), g)],
    ids=["ascent_walk", "apply_generator_abacus", "apply_generator_left", "descent_class", "reflect"],
)
def test_generator_index_and_walk_length_are_read_as_integers(call, bad):
    # a float index would move runners to float levels; a string or None is no index
    with pytest.raises(MalformedText, match="not an integer"):
        call(bad)
