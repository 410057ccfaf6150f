"""Typed errors at the public entry points: a call that takes values returns
or raises a CoxabacusError, whatever the types of the values it is given."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coxabacus as cx
from coxabacus import Family
from coxabacus.errors import BadRequest, CoxabacusError, MalformedText

C3 = cx.make_context(Family.C_OVER_C, 3)
LAM = cx.make_core(C3, (3, 1, 1))


@pytest.mark.parametrize(
    "call, bad, error",
    [(lambda v: cx.residue(LAM, v, 1), bad, MalformedText) for bad in (1.5, 2.0, "1", None)]
    + [(lambda v: cx.enumerate_quotient(C3, v), bad, MalformedText) for bad in (1.5, "1", None)]
    # the identity alone would be the table of length 0, not an answer to -1
    + [(lambda v: cx.enumerate_quotient(C3, v), -1, BadRequest)],
    ids=["residue-1.5", "residue-2.0", "residue-str", "residue-None",
         "enumerate-1.5", "enumerate-str", "enumerate-None", "enumerate-negative"],
)
def test_cell_and_length_are_read_as_integers(call, bad, error):
    # a float cell would give a float residue; a string or None is no cell
    with pytest.raises(error):
        call(bad)


def test_length_zero_enumerates_the_identity_alone():
    # 0 is the least length: only a negative one is refused
    assert cx.enumerate_quotient(C3, 0).by_length == [[cx.identity(C3)]]


# one context per family, at its least rank
CONTEXTS = [cx.make_context(f, f.min_rank) for f in Family]
SCALARS = st.one_of(
    st.integers(-12, 12),
    st.integers(-2**70, 2**70),
    st.floats(),
    st.text(max_size=4),
    st.none(),
    st.booleans(),
)
# a length is real work when it is large, so only a small one is drawn
LENGTHS = st.one_of(st.integers(-3, 6), st.floats(), st.text(max_size=3), st.none())
TEXTS = st.one_of(
    st.text(alphabet="0123456789*-+ ,.()[]sx_", max_size=16),
    st.text(max_size=8),
    st.lists(SCALARS, max_size=6).map(lambda xs: "(" + ",".join(map(str, xs)) + ")"),
)


def sequences(size):
    """Lists and tuples of scalars, often exactly `size` long."""
    lists = st.one_of(st.lists(SCALARS, min_size=size, max_size=size), st.lists(SCALARS, max_size=8))
    return st.one_of(lists, lists.map(tuple))


def calls(ctx):
    """(function, its arguments) for each entry point of the API that takes values."""
    n, e = ctx.n, cx.identity_abacus(ctx)
    lam = cx.from_abacus(cx.abacus_from_word(ctx, ctx.generators()))

    def call(f, *args):
        return st.tuples(st.just(f), *args)

    return st.one_of(
        call(cx.make_context, st.one_of(st.sampled_from(list(Family)), SCALARS), SCALARS),
        call(cx.make_abacus, st.just(ctx), sequences(2 * n)),
        call(cx.make_core, st.just(ctx), sequences(3)),
        call(cx.make_bounded, st.just(ctx), sequences(3), SCALARS),
        call(cx.parse_bounded, st.just(ctx), TEXTS),
        call(cx.from_base_window, st.just(ctx), sequences(2 * n)),
        call(cx.from_coordinates, sequences(n).map(lambda c: cx.RootPoint(ctx, tuple(c)))),
        call(cx.abacus_from_word, st.just(ctx), sequences(4)),
        call(cx.apply_generator_abacus, st.just(e), SCALARS),
        call(cx.apply_generator_left, st.just(cx.identity(ctx)), SCALARS),
        call(cx.descent_class, st.just(cx.identity(ctx)), SCALARS),
        call(cx.reflect, st.just(cx.coordinates(e)), SCALARS),
        call(cx.residue, st.just(lam), SCALARS, SCALARS),
        call(cx.enumerate_quotient, st.just(ctx), LENGTHS),
    )


@settings(max_examples=1000, deadline=None)
@given(st.one_of([calls(ctx) for ctx in CONTEXTS]))
def test_every_entry_point_returns_or_raises_a_typed_error(case):
    f, *args = case
    try:
        f(*args)
    except CoxabacusError:
        pass
