import random
import time
import tracemalloc

import pytest

import coxabacus as cx
import coxabacus.core as core
from coxabacus import Family
from coxabacus.abacus import bruhat_leq, first_descent, generator_moves, move_levels
from coxabacus.core import (
    CorePartition,
    abacus_of,
    from_abacus,
    make_core,
    residue,
    to_abacus,
)
from coxabacus.errors import (
    BadRequest,
    CoxabacusError,
    MalformedText,
    NotACore,
    NotSymmetric,
    ParityViolation,
)
from coxabacus.oracle import abacus_of_path, apply_generator_scan, conjugate, core_size, diagonal_boxes
from coxabacus.oracle import from_abacus_scan, size_change, validate_core_scan
from conftest import BENCH_CASES, long_element

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
            assert to_abacus(lam).levels == a.levels


def _random_abaci(seed, count, reach):
    """count random elements per family and rank, from the smallest rank to 20,
    as root points with coordinates in [-reach, reach]."""
    rng = random.Random(seed)
    for fam in Family:
        for n in range(fam.min_rank, 21):
            ctx = cx.make_context(fam, n)
            for _ in range(count):
                point = [rng.randint(-reach, reach) for _ in range(n)]
                if ctx.fork_at_zero and sum(map(abs, point)) % 2:
                    point[rng.randrange(n)] += 1
                yield cx.from_coordinates(cx.RootPoint(ctx, tuple(point)))


def test_abacus_of_reads_the_beta_numbers(tables):
    # the beta-number reading against the boundary-path labels it replaced
    cores = [from_abacus(cx.from_permutation(w)) for t in tables.values() for w in t.elements()]
    long_cores = [from_abacus(a) for a in _random_abaci(13, 2, 30)]
    assert max(len(lam.rows) for lam in long_cores) > 1000
    for lam in cores + long_cores:
        a = abacus_of(lam)
        assert a == abacus_of_path(lam)
        assert make_core(lam.ctx, lam.rows) == lam
        assert to_abacus(from_abacus(a)) == a


def test_from_abacus_reads_the_beta_numbers(tables):
    # the beta-number reading against the walk over every position
    abaci = [cx.from_permutation(w) for t in tables.values() for w in t.elements()]
    for a in abaci + list(_random_abaci(17, 3, 30)):
        assert from_abacus(a) == from_abacus_scan(a)


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


B3 = cx.make_context(Family.B_OVER_B, 3)
D4 = cx.make_context(Family.D_OVER_D, 4)


@pytest.mark.parametrize(
    "ctx,rows,error,message",
    [
        # checks run in order: positive, decreasing, symmetric, core, parity
        (C3, (3, 0), NotACore, "rows must be positive"),
        (C3, (0, 3), NotACore, "rows must be positive"),
        (C3, (-1,), NotACore, "rows must be positive"),
        (C3, (2, 3), NotACore, "rows must be weakly decreasing"),
        (C3, (1, 1, 2), NotACore, "rows must be weakly decreasing"),
        # asymmetric and not a core
        (C3, (7, 1), NotSymmetric, "(7, 1) differs from its transpose"),
        (C3, (8, 2, 1), NotSymmetric, "(8, 2, 1) differs from its transpose"),
        # not a core, and an odd main diagonal in a family that forks at s_0
        (D4, (9, 1, 1, 1, 1, 1, 1, 1, 1), NotACore, "row 1 has a hook of length 8"),
        (B3, (7, 1, 1, 1, 1, 1, 1), NotACore, "row 1 has a hook of length 6"),
        # the first row with a hook of length 2n is named
        (C3, (4, 4, 4, 4), NotACore, "row 1 has a hook of length 6"),
        (C3, (8, 8, 7, 5, 4, 3, 3, 2), NotACore, "row 2 has a hook of length 6"),
        (B3, (8, 7, 7, 5, 4, 3, 3, 1), NotACore, "row 3 has a hook of length 6"),
        (D4, (7, 7, 7, 7, 4, 4, 4), NotACore, "row 3 has a hook of length 8"),
        (D4, (1,), ParityViolation, "odd number of main-diagonal boxes"),
        (B3, (5, 1, 1, 1, 1), ParityViolation, "odd number of main-diagonal boxes"),
    ],
)
def test_core_errors_name_the_first_failed_check(ctx, rows, error, message):
    with pytest.raises(error) as err:
        make_core(ctx, rows)
    assert type(err.value) is error and str(err.value) == message
    with pytest.raises(error) as err:
        to_abacus(CorePartition(ctx, rows))
    assert type(err.value) is error and str(err.value) == message


# the last two would pass as symmetric cores, from their level vectors, if a
# last row of 0 were taken for a partition's
@pytest.mark.parametrize(
    "rows, message",
    [((2, 3), "rows must be weakly decreasing"), ((3, 0, 0), "rows must be positive"),
     ((2, 0), "rows must be positive"), ((3, 1, 2), "rows must be weakly decreasing"),
     ((1, 0), "rows must be positive"), ((2, 1, 0), "rows must be positive")],
    ids=[f"rows{i}" for i in range(6)],
)
def test_validate_core_calls_a_non_partition_asymmetric(rows, message):
    with pytest.raises(NotACore) as err:
        to_abacus(CorePartition(C3, rows))
    assert type(err.value) is NotACore and str(err.value) == message


def test_make_core_rejects_non_integer_rows():
    with pytest.raises(MalformedText, match="'x'"):
        make_core(C3, (3, "x"))


def test_residue_fixed_region():
    lam = make_core(C3, GOLDEN_C3)
    assert residue(lam, 1, 2) == 1
    assert residue(lam, 1, 1) == 0
    assert residue(lam, 1, 4) == 3  # past n the residues fold back
    assert residue(lam, 2, 1) == 1


@pytest.mark.parametrize("i, j", [(-5, 3), (0, 0), (1, 0), (0, 2), (3, -1)])
def test_residue_of_a_cell_outside_the_quadrant_is_a_bad_request(i, j):
    lam = make_core(C3, (3, 1, 1))
    with pytest.raises(BadRequest) as err:
        residue(lam, i, j)
    assert str(err.value) == f"no cell ({i}, {j}): rows and columns are numbered from 1"
    assert residue(lam, 1, 1) == 0


def test_residue_d5_figure_cell():
    w = cx.from_base_window(D5, [-12, -7, -5, 2, 3, 8, 9, 16, 18, 23])
    lam = from_abacus(cx.from_permutation(w))
    assert residue(lam, 1, 12) == 1


def test_residue_of_a_band_cell_may_be_none_or_a_pair():
    # B~/D n=3, root point (2,-1,1): cells in the band around diagonal n
    # that the row does not end near carry no residue, and those it ends
    # at may carry both n-1 and n
    bd3 = cx.make_context(Family.B_OVER_D, 3)
    lam = from_abacus(cx.from_coordinates(cx.RootPoint(bd3, (2, -1, 1))))
    assert lam.rows == (7, 6, 5, 4, 3, 2, 1)
    assert residue(lam, 1, 3) is None
    assert residue(lam, 2, 6) == (2, 3)


@pytest.mark.parametrize("family, n", [(Family.B_OVER_D, 3), (Family.B_OVER_D, 4),
                                       (Family.D_OVER_D, 4), (Family.B_OVER_B, 3)])
def test_band_residues_past_the_first_period_match_the_abacus(monkeypatch, family, n):
    # the residue scan reads band cells k periods out along the diagonal;
    # random long words reach k >= 1, and the scan must still agree with
    # the generator action on the level vector
    ctx = cx.make_context(family, n)
    band_residue, far = core._band_residue, []

    def counted(rows, i, j, band_lo, hi, lo, p):
        far.append((j - i - band_lo) // p >= 1)
        return band_residue(rows, i, j, band_lo, hi, lo, p)

    monkeypatch.setattr(core, "_band_residue", counted)
    rng = random.Random(f"band {family.alias} {n}")
    for _ in range(25):
        a = cx.abacus_from_word(ctx, [rng.randint(0, n) for _ in range(rng.randint(20, 60))])
        lam = from_abacus(a)
        for g in ctx.generators():
            assert apply_generator_scan(lam, g) == from_abacus(cx.apply_generator_abacus(a, g))
    assert any(far)


def test_apply_generator_neither_fixes():
    w = cx.from_base_window(D5, [-12, -7, -5, 2, 3, 8, 9, 16, 18, 23])
    a = cx.from_permutation(w)
    lam = from_abacus(a)
    assert cx.apply_generator_abacus(a, 2) == a
    assert cx.apply_generator_abacus(a, 5) == a
    for g in D5.generators():
        assert from_abacus(cx.apply_generator_abacus(a, g)) == apply_generator_scan(lam, g)


def test_contains_reflexive_and_grounded(tables):
    for (fam, n), table in tables.items():
        e = cx.identity_abacus(cx.make_context(fam, n))
        for w in table.elements():
            if table.length(w) > 5:
                continue
            a = cx.from_permutation(w)
            assert bruhat_leq(a, a)
            assert bruhat_leq(e, a)


def test_contains_respects_length(tables):
    for (fam, n), table in tables.items():
        elements = [w for w in table.elements() if table.length(w) <= 5]
        abaci = {w.window: cx.from_permutation(w) for w in elements}
        for x in elements:
            for w in elements:
                if bruhat_leq(abaci[x.window], abaci[w.window]):
                    assert table.length(x) <= table.length(w)


def test_contains_is_partial_order(tables):
    for (fam, n), table in tables.items():
        elements = [w for w in table.elements() if table.length(w) <= 5]
        abaci = [cx.from_permutation(w) for w in elements]
        rel = {(a.levels, b.levels) for a in abaci for b in abaci if bruhat_leq(a, b)}
        for a in abaci:
            for b in abaci:
                if (a.levels, b.levels) in rel and (b.levels, a.levels) in rel:
                    assert a.levels == b.levels
                for c in abaci:
                    if (a.levels, b.levels) in rel and (b.levels, c.levels) in rel:
                        assert (a.levels, c.levels) in rel


def _inside(small: tuple[int, ...], big: tuple[int, ...]) -> bool:
    """Containment of diagrams, on their rows: each row fits beside its twin."""
    return len(small) <= len(big) and all(p <= q for p, q in zip(small, big))


def _bruhat_and_containment(table):
    abaci = [cx.from_permutation(w) for w in table.elements()]
    rows = [from_abacus(a).rows for a in abaci]
    return [
        (bruhat_leq(x, w), _inside(rx, rw))
        for x, rx in zip(abaci, rows)
        for w, rw in zip(abaci, rows)
    ]


def test_c_over_c_bruhat_order_is_core_containment(tables):
    for (fam, n), table in tables.items():
        if fam is Family.C_OVER_C:
            assert all(leq == inside for leq, inside in _bruhat_and_containment(table))


def test_bruhat_order_implies_core_containment(tables):
    # in the families with a fork the converse fails, as the README's note says
    for (fam, n), table in tables.items():
        pairs = _bruhat_and_containment(table)
        assert all(inside for leq, inside in pairs if leq)
        assert any(inside and not leq for leq, inside in pairs) == (fam is not Family.C_OVER_C)


def test_covers_of_identity(tables):
    for (fam, n), table in tables.items():
        e = cx.identity_abacus(cx.make_context(fam, n))
        layer1 = [w for w in table.elements() if table.length(w) == 1]
        assert len(layer1) == 1  # only s_0 leaves the finite subgroup
        a = cx.from_permutation(layer1[0])
        assert bruhat_leq(e, a) and not bruhat_leq(a, e)


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


def test_first_descent_walk_has_one_step_per_letter(tables):
    for (fam, n), table in tables.items():
        ctx = cx.make_context(fam, n)
        moves_of = [generator_moves(ctx, g) for g in ctx.generators()]
        for w in table.elements():
            a = cx.from_permutation(w)
            levels, steps = a.levels, 0
            while any(levels):
                levels = move_levels(levels, first_descent(levels, moves_of))
                steps += 1
            assert steps == cx.length_from_abacus(a) == table.length(w)
        with pytest.raises(NotACore):
            first_descent(cx.identity_abacus(ctx).levels, moves_of)


def test_bruhat_leq_rejects_mixed_contexts():
    bd3, c4 = cx.make_context(Family.B_OVER_D, 3), cx.make_context(Family.C_OVER_C, 4)
    x = cx.abacus_from_word(C3, [1, 0])
    for left, right, message in [
        (x, cx.abacus_from_word(bd3, [3, 2, 1, 0]), "x is in C~/C at rank 3, w in B~/D at rank 3"),
        (x, cx.abacus_from_word(c4, [2, 1, 0]), "x is in C~/C at rank 3, w in C~/C at rank 4"),
        (cx.abacus_from_word(c4, [2, 1, 0]), x, "x is in C~/C at rank 4, w in C~/C at rank 3"),
    ]:
        with pytest.raises(BadRequest) as err:
            bruhat_leq(left, right)
        assert str(err.value) == message


C20 = cx.make_context(Family.C_OVER_C, 20)


def test_bruhat_leq_of_a_long_element_with_itself_is_immediate():
    a = cx.from_coordinates(cx.RootPoint(C20, tuple((40 - 2 * i) * (-1) ** i for i in range(20))))
    assert cx.length_from_abacus(a) == 11270
    start = time.perf_counter()
    assert bruhat_leq(a, a)
    assert time.perf_counter() - start < 0.01  # a walk down all 11,270 steps takes ~80 ms


def test_bruhat_leq_holds_two_level_vectors_not_the_walk():
    point = (12, -11, 10, -9, 8, -7, 6, -5, 4, -3, 2, -1) + (0,) * 8
    a = cx.from_coordinates(cx.RootPoint(C20, point))
    assert cx.length_from_abacus(a) == 2374
    e = cx.identity_abacus(C20)
    tracemalloc.start()
    try:
        assert bruhat_leq(e, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024  # one stored level vector per step would be ~0.9 MB


def test_contains_past_the_recursion_limit():
    c2 = cx.make_context(Family.C_OVER_C, 2)
    a = cx.from_coordinates(cx.RootPoint(c2, (300, -120)))
    assert cx.length_from_abacus(a) == 1437
    e = cx.identity_abacus(c2)
    assert bruhat_leq(e, a)
    assert not bruhat_leq(a, e)


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
            assert _outcome(to_abacus, lam) == expected, rows


def _with_box(rows, i):
    """The rows with one box added to row i (0-based), or None when no box
    can be added there."""
    length = rows[i] if i < len(rows) else 0
    if i > len(rows) or (i > 0 and rows[i - 1] == length):
        return None
    return (*rows[:i], length + 1, *rows[i + 1:])


@pytest.mark.parametrize("family, n", BENCH_CASES)
def test_long_cores_read_straight_onto_the_level_vector(family, n):
    # cores of an element of length about 10^3: the level vector read off
    # the beta numbers is the abacus, as the boundary-path labels give it;
    # one box added to the first row, or the last row dropped, fails the
    # check the hook scan fails, and a box on the diagonal may give a core
    ctx = cx.make_context(family, n)
    rng = random.Random(f"core {family.alias} {n}")
    for _ in range(3):
        a = long_element(ctx, rng, 1000)
        lam = from_abacus(a)
        assert to_abacus(lam) == abacus_of_path(lam) == a
        assert make_core(ctx, lam.rows) == lam
        assert _outcome(validate_core_scan, CorePartition(ctx, _with_box(lam.rows, 0))) is NotSymmetric
        broken = [_with_box(lam.rows, 0), lam.rows[:-1], _with_box(lam.rows, diagonal_boxes(lam, 0))]
        for rows in filter(None, broken):
            bad = CorePartition(ctx, rows)
            expected = _outcome(validate_core_scan, bad)
            assert _outcome(to_abacus, bad) == expected
            assert _outcome(lambda lam: make_core(ctx, lam.rows), bad) == expected
            if expected is None:
                assert to_abacus(bad) == abacus_of_path(bad)
