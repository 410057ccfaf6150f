import copy
import pickle

import pytest

import coxabacus as cx
from coxabacus import Family, GroupContext, coxeter_matrix, make_context
from coxabacus.context import integers, tokens
from coxabacus.errors import BadRequest, MalformedText, RankTooSmall

ALL_FAMILIES = list(Family)


def test_family_keeps_its_enum_surface():
    names = ["C_OVER_C", "B_OVER_B", "B_OVER_D", "D_OVER_D"]
    values = ["C~/C", "B~/B", "B~/D", "D~/D"]
    assert [f.name for f in Family] == names and len(Family) == 4
    assert [f.value for f in Family] == values
    assert all(Family(v) is getattr(Family, n) for n, v in zip(names, values))
    assert all(Family(f) is f for f in Family)
    with pytest.raises(ValueError, match="'CC' is not a valid Family"):
        Family("CC")
    bd = Family.B_OVER_D
    assert repr(bd) == "<Family.B_OVER_D: 'B~/D'>" and str(bd) == "Family.B_OVER_D"
    assert isinstance(bd, Family) and bd != "B~/D"
    assert {f: f.value for f in Family}[Family("B~/D")] == "B~/D"
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(bd, protocol)) is bd
    assert copy.copy(bd) is bd and copy.deepcopy(bd) is bd
    with pytest.raises(AttributeError):
        bd.value = "D~/D"
    assert bd.value == "B~/D"


def test_family_table():
    cc = make_context(Family.C_OVER_C, 3)
    assert (cc.fork_at_zero, cc.fork_at_n) == (False, False)
    assert (cc.x0, cc.xn) == (0, 0)
    bb = make_context(Family.B_OVER_B, 3)
    assert (bb.fork_at_zero, bb.fork_at_n) == (True, False)
    assert (bb.x0, bb.xn) == (-1, 0)
    bd = make_context(Family.B_OVER_D, 3)
    assert (bd.fork_at_zero, bd.fork_at_n) == (False, True)
    assert (bd.x0, bd.xn) == (0, -1)
    dd = make_context(Family.D_OVER_D, 4)
    assert (dd.fork_at_zero, dd.fork_at_n) == (True, True)
    assert (dd.x0, dd.xn) == (-1, -1)


def test_modulus_and_generators():
    ctx = make_context(Family.C_OVER_C, 5)
    assert ctx.N == 11
    assert list(ctx.generators()) == [0, 1, 2, 3, 4, 5]


@pytest.mark.parametrize(
    "family,min_rank",
    [
        (Family.C_OVER_C, 2),
        (Family.B_OVER_B, 3),
        (Family.B_OVER_D, 3),
        (Family.D_OVER_D, 4),
    ],
)
def test_rank_minima(family, min_rank):
    assert make_context(family, min_rank).n == min_rank
    with pytest.raises(RankTooSmall):
        make_context(family, min_rank - 1)


@pytest.mark.parametrize(
    "family, least",
    [(Family.C_OVER_C, 2), (Family.B_OVER_B, 3), (Family.B_OVER_D, 3), (Family.D_OVER_D, 4)],
)
def test_rank_too_small_names_the_least_rank(family, least):
    with pytest.raises(RankTooSmall) as err:
        make_context(family, least - 1)
    assert str(err.value) == f"family {family.value} requires rank >= {least}, got {least - 1}"


def test_coxeter_matrix_c():
    ctx = make_context(Family.C_OVER_C, 3)
    m = coxeter_matrix(ctx)
    assert m[0][1] == m[1][0] == 4
    assert m[2][3] == 4
    assert m[1][2] == 3
    assert m[0][2] == 2
    assert all(m[i][i] == 1 for i in range(4))


def test_coxeter_matrix_forks():
    dd = coxeter_matrix(make_context(Family.D_OVER_D, 4))
    # s_0 forks onto s_2, s_4 forks onto s_2; adjacent pairs commute
    assert dd[0][2] == 3 and dd[0][1] == 2
    assert dd[4][2] == 3 and dd[4][3] == 2
    bd = coxeter_matrix(make_context(Family.B_OVER_D, 3))
    assert bd[0][1] == 4
    assert bd[3][1] == 3 and bd[3][2] == 2


def test_symmetry_of_matrix():
    for fam in ALL_FAMILIES:
        m = coxeter_matrix(make_context(fam, 4))
        for i in range(5):
            for j in range(5):
                assert m[i][j] == m[j][i]


def test_coxeter_matrix_has_a_row_and_a_column_per_generator():
    for fam in ALL_FAMILIES:
        m = coxeter_matrix(make_context(fam, 5))
        assert len(m) == 6 and all(len(row) == 6 for row in m)


def test_context_identity_is_family_and_rank():
    ctx = make_context(Family.B_OVER_D, 4)
    assert repr(ctx) == "GroupContext(family=<Family.B_OVER_D: 'B~/D'>, n=4)"
    twin = GroupContext(Family.B_OVER_D, 4)
    assert ctx == twin and hash(ctx) == hash(twin)
    assert ctx != make_context(Family.B_OVER_D, 5)
    assert ctx != make_context(Family.D_OVER_D, 4)
    assert len({ctx, twin, make_context(Family.D_OVER_D, 4)}) == 2


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_context_pickles_with_its_constants(family):
    ctx = make_context(family, 6)
    back = pickle.loads(pickle.dumps(ctx))
    assert back == ctx and hash(back) == hash(ctx) and repr(back) == repr(ctx)
    assert (back.N, back.fork_at_zero, back.fork_at_n, back.x0, back.xn) == (
        ctx.N, ctx.fork_at_zero, ctx.fork_at_n, ctx.x0, ctx.xn,
    )


def test_direct_construction_derives_the_constants():
    five = GroupContext(Family.D_OVER_D, 5)
    assert five == make_context(Family.D_OVER_D, 5)
    assert five.N == 11 and (five.x0, five.xn) == (-1, -1)
    cc = GroupContext(Family.C_OVER_C, 4)
    assert cc == make_context(Family.C_OVER_C, 4)
    assert (cc.fork_at_zero, cc.fork_at_n, cc.x0, cc.xn, cc.N) == (False, False, 0, 0, 9)


C3 = GroupContext(Family.C_OVER_C, 3)
BD3 = GroupContext(Family.B_OVER_D, 3)


@pytest.mark.parametrize(
    "build, bad",
    [
        (lambda: cx.make_abacus(C3, (1.7, 0, 0, 0, 0, -1.7)), "1.7"),
        (lambda: cx.from_coordinates(cx.RootPoint(C3, (1.5, 0, 0))), "1.5"),
        (lambda: cx.from_coordinates(cx.RootPoint(C3, ("1", 0, 0))), "'1'"),
        (lambda: cx.make_core(C3, (3.0, 1, 1)), "3.0"),
        (lambda: cx.make_bounded(C3, (2.5,)), "2.5"),
        (lambda: cx.make_bounded(BD3, (2,), 0.0), "0.0"),
        (lambda: cx.make_bounded(BD3, (2,), "0"), "'0'"),
        (lambda: cx.from_base_window(C3, (1, 2, 3.0, 4, 5, 6)), "3.0"),
        (lambda: make_context(Family.C_OVER_C, 3.0), "3.0"),
    ],
)
def test_non_integers_raise_malformed_text(build, bad):
    # int() would truncate 1.7 to 1 and read "1" as 1: neither is an element
    with pytest.raises(MalformedText) as err:
        build()
    assert str(err.value) == f"not an integer: {bad}"


def test_family_by_name_is_a_typed_error():
    # the CLI maps names to members; the library takes only a member
    with pytest.raises(BadRequest) as err:
        make_context("CC", 3)
    assert str(err.value) == "not a Family: 'CC'"


def test_integers_take_what_operator_index_takes():
    assert integers([3, True, -2]) == (3, 1, -2)
    assert integers(x for x in (1, 2)) == (1, 2)
    assert integers(()) == ()


def test_tokens_split_on_commas_and_spaces_in_one_bracket_pair():
    fields = ["5", "5", "4", "2", "1"]
    for text in ("(5 5 4 2 1)", "(5,5,4,2,1)", "[5, 5,4 2,1]", " 5 5 4 2 1 ", "(5,5 ,4,2,1)"):
        assert tokens(text) == fields
    assert tokens("(3*,2)") == ["3*", "2"]
    assert tokens("") == tokens("()") == tokens("[ ]") == []


@pytest.mark.parametrize(
    "text, message",
    [("(5,,5)", "empty field between commas"), ("(5,5,)", "empty field between commas"),
     (",", "empty field between commas"), ("((3,2", "unbalanced brackets"),
     ("(3,2]", "unbalanced brackets"), ("3 [2]", "unbalanced brackets")],
)
def test_tokens_reject_stray_brackets_and_empty_fields(text, message):
    with pytest.raises(MalformedText) as err:
        tokens(text)
    assert str(err.value) == f"{message}: {text!r}"
