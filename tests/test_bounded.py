import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coxabacus as cx
from coxabacus import Family
from coxabacus.abacus import Abacus, abacus_from_word, ascent_walk, generator_moves, move_levels
from coxabacus.abacus import rise
from coxabacus.core import (
    abacus_from_bounded,
    bounded_after_ascent,
    bounded_from_abacus,
    make_bounded,
    parse_bounded,
    residue_filling,
    star_size,
    word_from_filling,
)
from coxabacus.errors import MalformedBounded
from coxabacus.oracle import apply_generator_left, identity, length_from_window, normalize, size_change
from conftest import BENCH_CASES, STANDARD_CASES, long_element

C3 = cx.make_context(Family.C_OVER_C, 3)
B3 = cx.make_context(Family.B_OVER_B, 3)
BD3 = cx.make_context(Family.B_OVER_D, 3)
D4 = cx.make_context(Family.D_OVER_D, 4)


def test_golden_bounded():
    lam = cx.make_core(C3, (10, 9, 6, 5, 5, 3, 2, 2, 2, 1))
    beta = bounded_from_abacus(cx.to_abacus(lam))
    assert beta.parts == (5, 5, 4, 2, 1)
    assert beta.star is None
    assert str(beta) == "(5,5,4,2,1)"


def test_star_size_per_family():
    assert star_size(C3) is None
    assert star_size(B3) is None
    assert star_size(BD3) == 3
    assert star_size(D4) == 3


def test_parse_and_str_round_trip():
    beta = parse_bounded(BD3, "(3*,2)")
    assert beta.parts == (3, 2) and beta.star == 0
    assert str(beta) == "(3*,2)"
    assert parse_bounded(C3, "(5,5,4,2,1)").parts == (5, 5, 4, 2, 1)
    assert parse_bounded(C3, "()").parts == ()


def test_parse_reads_fields_as_every_value_does():
    # one tokenizer for every model: commas or spaces, in at most one bracket pair
    assert parse_bounded(C3, "(5 5 4 2 1)") == parse_bounded(C3, "(5,5,4,2,1)")
    assert parse_bounded(BD3, "[3* 2]") == parse_bounded(BD3, "(3*,2)")
    assert parse_bounded(C3, "( )").parts == ()


def test_part_bound():
    # parts are bounded by 2n + x0 + xn
    make_bounded(C3, (6,))
    with pytest.raises(MalformedBounded):
        make_bounded(C3, (7,))
    make_bounded(D4, (6,))
    with pytest.raises(MalformedBounded):
        make_bounded(D4, (7,))


def test_parts_positive():
    for parts in [(2, 0), (0,), (3, -1)]:
        with pytest.raises(MalformedBounded) as err:
            make_bounded(C3, parts)
        assert str(err.value) == "parts must be positive"


def test_parts_weakly_decreasing():
    with pytest.raises(MalformedBounded, match="^parts must be weakly decreasing$"):
        make_bounded(C3, (1, 2))
    make_bounded(C3, (2, 1))


def test_small_parts_distinct():
    with pytest.raises(MalformedBounded):
        make_bounded(C3, (2, 2))
    make_bounded(C3, (5, 5))  # parts above n + x0 + xn may repeat


def test_star_rules():
    with pytest.raises(MalformedBounded):
        make_bounded(C3, (3, 2), star=0)  # family has no star
    with pytest.raises(MalformedBounded):
        make_bounded(BD3, (4, 2), star=0)  # wrong size
    beta = make_bounded(BD3, (3, 3, 1), star=0)
    assert beta.star == 1  # canonicalized to the last part of that size
    for parts, star in (((3, 1), 2), ((3, 3), -1)):  # one past the last part, one before the first
        with pytest.raises(MalformedBounded, match="star must sit on a part of size 3"):
            make_bounded(BD3, parts, star=star)


def test_starred_part_may_repeat_its_size():
    beta = make_bounded(BD3, (3, 3), star=1)
    assert beta.parts == (3, 3) and beta.star == 1


def test_abacus_round_trip(tables):
    for (fam, n), table in tables.items():
        for w in table.elements():
            a = cx.from_permutation(w)
            beta = bounded_from_abacus(a)
            assert abacus_from_bounded(beta).levels == a.levels


def test_filling_word_matches_peel(tables):
    for (fam, n), table in tables.items():
        for w in table.elements():
            a = cx.from_permutation(w)
            letters, _ = cx.central_peel(cx.from_abacus(a))
            assert word_from_filling(bounded_from_abacus(a)) == letters


@pytest.mark.parametrize(
    "family, n, point",
    [
        (Family.C_OVER_C, 3, (12, -8, 6)),
        (Family.C_OVER_C, 2, (300, -120)),
        (Family.B_OVER_B, 3, (10, -6, 4)),
        (Family.B_OVER_D, 3, (9, -7, 5)),
        (Family.D_OVER_D, 4, (8, -6, 4, 2)),
        (Family.C_OVER_C, 8, (5, -3, 2, 0, 1, -4, 6, -1)),
    ],
)
def test_filling_word_matches_peel_on_long_elements(family, n, point):
    a = cx.from_coordinates(cx.RootPoint(cx.make_context(family, n), point))
    letters, boxes = cx.central_peel(cx.from_abacus(a))
    assert len(letters) == cx.length_from_abacus(a)
    beta = bounded_from_abacus(a)
    assert word_from_filling(beta) == letters
    assert abacus_from_bounded(beta) == a
    # the parts are the row sizes of the peeled upper diagram
    rows = sorted({i for i, _ in boxes})
    assert beta.parts == tuple(sum(1 for i, _ in boxes if i == r) for r in rows)


def test_row_maps_walk_the_filling_word():
    # every family to rank 8, root coordinates up to 30 either side
    rng = random.Random(8)
    for fam in Family:
        for n in range(fam.min_rank, 9):
            ctx = cx.make_context(fam, n)
            for _ in range(12):
                point = [rng.randint(-30, 30) for _ in range(n)]
                if ctx.fork_at_zero and sum(map(abs, point)) % 2:
                    point[0] += 1
                a = cx.from_coordinates(cx.RootPoint(ctx, tuple(point)))
                beta = bounded_from_abacus(a)
                walked = abacus_from_word(ctx, word_from_filling(beta))
                assert abacus_from_bounded(beta) == walked == a


def test_row_maps_at_a_wide_rank():
    c20 = cx.make_context(Family.C_OVER_C, 20)
    a = cx.from_coordinates(cx.RootPoint(c20, tuple((-1) ** i * (40 - 2 * i) for i in range(20))))
    beta = bounded_from_abacus(a)
    assert sum(beta.parts) == 11270
    assert abacus_from_bounded(beta) == abacus_from_word(c20, word_from_filling(beta)) == a


def test_abacus_from_bounded_fetches_no_move_table(monkeypatch):
    # the parts are read straight onto the level vector: no generator acts
    c2 = cx.make_context(Family.C_OVER_C, 2)
    a = cx.from_coordinates(cx.RootPoint(c2, (300, -120)))
    beta = bounded_from_abacus(a)
    assert sum(beta.parts) == 1437
    walked = abacus_from_word(c2, word_from_filling(beta))
    fetched = []

    def counted(ctx, g):
        fetched.append(g)
        return generator_moves(ctx, g)

    monkeypatch.setattr("coxabacus.abacus.generator_moves", counted)
    monkeypatch.setattr("coxabacus.core.generator_moves", counted, raising=False)
    assert abacus_from_bounded(beta) == walked == a
    assert fetched == []


def valid_bounded(ctx, size):
    """Every partition of size that make_bounded accepts, with each star."""
    def parts(total, top):
        if total == 0:
            yield ()
        for p in range(min(total, top), 0, -1):
            for rest in parts(total - p, p):
                yield (p, *rest)

    out = set()
    for ps in parts(size, 2 * ctx.n + ctx.x0 + ctx.xn):
        for star in (None, *range(len(ps))):
            try:
                out.add(make_bounded(ctx, ps, star))
            except MalformedBounded:
                pass
    return out


@pytest.mark.parametrize("family, n", STANDARD_CASES)
def test_bounded_partitions_are_the_layers(family, n):
    # the inverse walks the filling word, so it is only an inverse if the
    # valid partitions of size k are exactly the readings of layer k
    ctx = cx.make_context(family, n)
    for k, layer in enumerate(ascent_walk(ctx, 12)):
        read = {bounded_from_abacus(a): a for a in (Abacus(ctx, x) for x in layer)}
        assert len(read) == len(layer)
        assert set(read) == valid_bounded(ctx, k)
        for beta, a in read.items():
            assert abacus_from_bounded(beta) == a


def test_filling_grid_shape():
    beta = make_bounded(C3, (5, 5, 4, 2, 1))
    grid = residue_filling(beta)
    assert [len(row) for row in grid] == [5, 5, 4, 2, 1]
    assert all(0 <= v <= C3.n for row in grid for v in row)


def test_filling_star_steering():
    starred = make_bounded(BD3, (3,), star=0)
    plain = make_bounded(BD3, (3,))
    assert residue_filling(starred)[0][2] == 2
    assert residue_filling(plain)[0][2] == 3


WORD = st.lists(st.integers(min_value=0, max_value=3), max_size=10)


@settings(max_examples=50, deadline=None)
@given(WORD)
def test_parse_round_trip_on_random_elements(word):
    w = identity(BD3)
    for g in word:
        w = normalize(apply_generator_left(w, g))
    beta = bounded_from_abacus(cx.from_permutation(w))
    assert parse_bounded(BD3, str(beta)) == beta


def _parts_by_gap_count(a):
    """The parts and star of the bounded partition, each part past N+n
    counted on its own: 1 + x0 + xn plus the runners s < r below level m and
    the runners s > r below level m-1, for the bead mN+r."""
    ctx, levels = a.ctx, a.levels
    n = ctx.n
    parts, star = [], None
    for m in range(max(levels), 0, -1):
        for r in range(2 * n, 0, -1):
            if levels[r - 1] < m:
                continue
            if m > 1 or r > n:
                gaps = sum(lvl < m for lvl in levels[: r - 1]) + sum(lvl < m - 1 for lvl in levels[r:])
                parts.append(gaps + 1 + ctx.x0 + ctx.xn)
            elif r + ctx.x0 > 0:
                parts.append(r + ctx.x0)
                if r == n and ctx.fork_at_n:
                    star = len(parts) - 1
    return parts, star


def test_running_gap_count_is_the_per_bead_count():
    # 200 random root points, ranks 2 to 12, coordinates up to 30 either side
    rng = random.Random(20)
    families = list(Family)
    for i in range(200):
        fam = families[i % 4]
        ctx = cx.make_context(fam, rng.randint(max(2, fam.min_rank), 12))
        point = [rng.randint(-30, 30) for _ in range(ctx.n)]
        if ctx.fork_at_zero and sum(map(abs, point)) % 2:
            point[rng.randrange(ctx.n)] += 1
        a = cx.from_coordinates(cx.RootPoint(ctx, tuple(point)))
        beta = bounded_from_abacus(a)
        assert beta == make_bounded(ctx, *_parts_by_gap_count(a))
        assert sum(beta.parts) == length_from_window(cx.to_permutation(a))
        assert abacus_from_bounded(beta) == a


@pytest.mark.parametrize(
    "family, n, max_len",
    [*((fam, n, 8) for fam, n in STANDARD_CASES),
     (Family.C_OVER_C, 6, 12), (Family.B_OVER_B, 5, 12), (Family.B_OVER_D, 5, 12),
     (Family.D_OVER_D, 6, 12)],
)
def test_each_ascent_adds_one_box(family, n, max_len):
    # w = s_g x above x: beta(w) is beta(x) with one box on the first part of
    # some size, or with a new last part 1
    ctx = cx.make_context(family, n)
    tables = [generator_moves(ctx, g) for g in ctx.generators()]
    for layer in ascent_walk(ctx, max_len - 1):
        for x in layer:
            p = bounded_from_abacus(Abacus(ctx, x)).parts
            grown = {p + (1,)} | {p[:i] + (p[i] + 1,) + p[i + 1:]
                                  for i in range(len(p)) if i == 0 or p[i - 1] != p[i]}
            for moves in tables:
                if size_change(n, x, moves) > 0:
                    assert bounded_from_abacus(Abacus(ctx, move_levels(x, moves))).parts in grown


@pytest.mark.parametrize(
    "family, n, max_len",
    [*((fam, n, 8) for fam, n in STANDARD_CASES),
     (Family.C_OVER_C, 6, 12), (Family.B_OVER_B, 5, 12), (Family.B_OVER_D, 5, 12),
     (Family.D_OVER_D, 6, 12), (Family.C_OVER_C, 2, 40), (Family.B_OVER_B, 3, 24),
     (Family.B_OVER_D, 3, 24)],
)
def test_each_ascent_is_labelled_from_below(family, n, max_len):
    # every ascent w = s_g x, not only the step the walk records: the label
    # read off x's label and the moves is the one read off w's abacus, star too
    ctx = cx.make_context(family, n)
    tables = [generator_moves(ctx, g) for g in ctx.generators()]
    for layer in ascent_walk(ctx, max_len - 1):
        for x in layer:
            beta = bounded_from_abacus(Abacus(ctx, x))
            for moves in tables:
                if size_change(n, x, moves) > 0:
                    w = move_levels(x, moves)
                    expected = bounded_from_abacus(Abacus(ctx, w))
                    assert bounded_after_ascent(beta, x, w, moves) == expected


@pytest.mark.parametrize("family", list(Family))
def test_rise_has_the_sign_of_the_size_change(family):
    # random balanced level vectors, even at a fork at s_0, with small levels
    # so that many generators fix the coset
    rng = random.Random(25)
    for n in range(family.min_rank, 12):
        ctx = cx.make_context(family, n)
        tables = [generator_moves(ctx, g) for g in ctx.generators()]
        for _ in range(1000):
            half = [rng.randint(-3, 3) for _ in range(n)]
            if ctx.fork_at_zero and sum(map(abs, half)) % 2:
                half[rng.randrange(n)] += 1
            x = (*half, *(-level for level in reversed(half)))
            for moves in tables:
                change = size_change(n, x, moves)
                assert (rise(x, moves) > 0) - (rise(x, moves) < 0) == (change > 0) - (change < 0)


# three ranks of each family, from its least
READING_CASES = [(fam, fam.min_rank + k) for fam in Family for k in range(3)]


def test_every_small_bounded_partition_reads_back_as_its_word():
    read = 0
    for fam, n in READING_CASES:
        ctx = cx.make_context(fam, n)
        for size in range(15):
            for beta in valid_bounded(ctx, size):
                a = abacus_from_bounded(beta)
                assert a == abacus_from_word(ctx, word_from_filling(beta)), beta
                assert bounded_from_abacus(a) == beta
                read += 1
    assert read == 1318


@pytest.mark.parametrize("family, n", BENCH_CASES)
@pytest.mark.parametrize("length", [1000, 3000])
def test_long_elements_read_back_from_their_bounded_partitions(family, n, length):
    ctx = cx.make_context(family, n)
    rng = random.Random(f"bounded {family.alias} {n} {length}")
    for _ in range(30):
        a = long_element(ctx, rng, length)
        beta = bounded_from_abacus(a)
        assert length <= sum(beta.parts) <= 1.3 * length
        assert make_bounded(ctx, beta.parts, beta.star) == beta
        assert abacus_from_bounded(beta) == abacus_from_word(ctx, word_from_filling(beta)) == a


def test_bounded_record_is_the_canonical_one(tables):
    # bounded_from_abacus builds its record itself: make_bounded would give the same
    for (fam, n), table in tables.items():
        for w in table.elements():
            beta = bounded_from_abacus(cx.from_permutation(w))
            assert make_bounded(beta.ctx, beta.parts, beta.star) == beta


@pytest.mark.parametrize(
    "ctx, text, levels",
    [
        # the bead at N+1 has no part: runner 1 at level a + 1 reads as runner 2n at
        # level a, and evenness decides
        (B3, "()", (0, 0, 0, 0, 0, 0)),
        (B3, "(1)", (1, 1, 0, 0, -1, -1)),
        (B3, "(4,1)", (-1, 1, 0, 0, -1, 1)),
        (B3, "(5)", (2, 0, 0, 0, 0, -2)),
        (D4, "(1)", (1, 1, 0, 0, 0, 0, -1, -1)),
        (D4, "(5,1)", (-1, 1, 0, 0, 0, 0, -1, 1)),
        (D4, "(6)", (2, 0, 0, 0, 0, 0, 0, -2)),
    ],
)
def test_parity_bead_is_set_by_evenness(ctx, text, levels):
    a = abacus_from_bounded(parse_bounded(ctx, text))
    assert a.levels == levels
    assert cx.is_even(a) and str(bounded_from_abacus(a)) == text


@pytest.mark.parametrize(
    "text, levels",
    [
        # at a fork at s_n the part n + x0 = 3 is runner 3's level-1 bead only when
        # starred; unstarred, it is runner 4's
        ("(3*)", (0, 0, 1, -1, 0, 0)),
        ("(3)", (0, 0, -1, 1, 0, 0)),
        ("(3,3*)", (0, -1, 1, -1, 1, 0)),
        ("(3,3)", (0, -1, -1, 1, 1, 0)),
        ("(3,3*,2,1)", (2, 1, 1, -1, -1, -2)),
        ("(3,3,2,1)", (2, 1, -1, 1, -1, -2)),
    ],
)
def test_starred_part_beside_unstarred_parts_of_its_size(text, levels):
    beta = parse_bounded(BD3, text)
    a = abacus_from_bounded(beta)
    assert a.levels == levels
    assert bounded_from_abacus(a) == beta
    assert a == abacus_from_word(BD3, word_from_filling(beta))
