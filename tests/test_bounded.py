import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coxabacus as cx
from coxabacus import Family
from coxabacus.abacus import enumerate_abaci
from coxabacus.bounded import (
    abacus_from_bounded,
    bounded_from_abacus,
    make_bounded,
    parse_bounded,
    residue_filling,
    star_size,
    word_from_filling,
)
from coxabacus.errors import MalformedBounded
from coxabacus.oracle import apply_generator_left
from coxabacus.window import identity, normalize
from conftest import STANDARD_CASES

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


def test_part_bound():
    # parts are bounded by 2n + x0 + xn
    make_bounded(C3, (6,))
    with pytest.raises(MalformedBounded):
        make_bounded(C3, (7,))
    make_bounded(D4, (6,))
    with pytest.raises(MalformedBounded):
        make_bounded(D4, (7,))


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
    for k, layer in enumerate(enumerate_abaci(ctx, 12)):
        read = {bounded_from_abacus(a): a for a in layer}
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
