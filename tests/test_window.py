import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coxabacus as cx
from coxabacus import Family
from coxabacus.errors import (
    BalanceViolation,
    NotMinimal,
    ResidueClash,
    ZeroResidue,
)
from coxabacus.oracle import (
    _count_cond_zero,
    apply_generator_left,
    family_membership,
    identity,
    is_minimal_coset_rep,
    normalize,
)
from coxabacus.window import _cond_n, from_base_window

C3 = cx.make_context(Family.C_OVER_C, 3)
D4 = cx.make_context(Family.D_OVER_D, 4)


def test_identity_window():
    w = identity(C3)
    assert w.window == (1, 2, 3, 4, 5, 6)
    assert is_minimal_coset_rep(w)
    assert family_membership(w)


def test_golden_window_validates():
    w = from_base_window(C3, [-11, -9, -1, 8, 16, 18])
    assert is_minimal_coset_rep(w)
    assert family_membership(w)


def test_rejects_zero_residue():
    with pytest.raises(ZeroResidue) as err:
        from_base_window(C3, [7, 2, 3, 4, 5, -1])
    assert str(err.value) == "entry 7 is divisible by N=7"


def test_rejects_residue_clash():
    with pytest.raises(ResidueClash) as err:
        from_base_window(C3, [1, 8, 3, 4, -1, 6])
    assert str(err.value) == "entries 1 and 8 agree mod N=7"


def test_rejects_unbalanced():
    for window, message in [
        ([2, 1, 3, 4, 5, 6], "w(1) + w(6) = 8 != 7"),
        ([1, 3, 2, 4, 5, 6], "w(2) + w(5) = 8 != 7"),
    ]:
        with pytest.raises(BalanceViolation) as err:
            from_base_window(C3, window)
        assert str(err.value) == message


def test_rejects_unbalanced_middle_pair():
    # the last pair the loop checks, (n, n+1), with its residues still distinct
    with pytest.raises(BalanceViolation, match=r"^w\(3\) \+ w\(4\) = 14 != 7$"):
        from_base_window(C3, [1, 2, 10, 4, 5, 6])


def test_rejects_wrong_length():
    with pytest.raises(ResidueClash) as err:
        from_base_window(C3, [1, 2, 3, 4])
    assert str(err.value) == "window must have 6 entries"


def test_generators_are_involutions():
    w = from_base_window(C3, [-11, -9, -1, 8, 16, 18])
    for g in C3.generators():
        again = apply_generator_left(apply_generator_left(w, g), g)
        assert again.window == w.window


def test_normalize_idempotent():
    w = from_base_window(C3, [-11, -9, -1, 8, 16, 18])
    for g in C3.generators():
        u = normalize(apply_generator_left(w, g))
        assert is_minimal_coset_rep(u)
        assert normalize(u).window == u.window


def test_normalize_picks_even_branch():
    w = identity(D4)
    for g in D4.generators():
        u = normalize(apply_generator_left(w, g))
        assert family_membership(u)


def test_descent_class_requires_minimal():
    w = apply_generator_left(identity(C3), 1)  # window no longer sorted
    with pytest.raises(NotMinimal):
        cx.descent_class(w, 0)


def test_descent_classes_of_identity():
    w = identity(C3)
    assert cx.descent_class(w, 0) == "ascent"
    for g in range(1, 4):
        assert cx.descent_class(w, g) == "neither"


WORD = st.lists(st.integers(min_value=0, max_value=3), max_size=12)


@settings(max_examples=60, deadline=None)
@given(WORD)
def test_random_products_stay_in_quotient(word):
    w = identity(C3)
    for g in word:
        w = normalize(apply_generator_left(w, g))
    assert is_minimal_coset_rep(w)
    assert family_membership(w)
    # balance is preserved throughout
    N = C3.N
    for i in range(1, 7):
        assert w.window[i - 1] + w.window[N - i - 1] == N


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=4), max_size=10))
def test_random_products_even_family(word):
    w = identity(D4)
    for g in word:
        w = normalize(apply_generator_left(w, g))
    assert family_membership(w)
    assert cx.from_base_window(D4, w.window).window == w.window


def evaluate(w, k):
    m, r = divmod(k, w.ctx.N)
    return k if r == 0 else m * w.ctx.N + w.window[r - 1]


def _count_by_scan(w, pos, val):
    """|{i <= pos : w(i) >= val}| by evaluating w on every i in range."""
    bound = max(abs(e) for e in w.window) + w.ctx.N
    return sum(1 for i in range(pos - bound, pos + 1) if evaluate(w, i) >= val)


def test_closed_form_counts_match_scan(tables):
    for (fam, n), table in tables.items():
        for w in table.elements():
            # the raw neighbours are not minimal and may fail the parity
            for u in (w, *(apply_generator_left(w, g) for g in w.ctx.generators())):
                assert _count_cond_zero(u) == _count_by_scan(u, 0, 1)
                assert _cond_n(u.ctx, u.window) == _count_by_scan(u, n, n + 1)
