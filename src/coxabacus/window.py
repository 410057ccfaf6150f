"""Mirrored Z-permutations stored by their base window.

A mirrored permutation w is a bijection of Z with w(k+N) = w(k)+N and
w(-k) = -w(k); it is determined by the window [w(1),...,w(2n)].  Elements
of the quotient are represented by the unique window satisfying the
family's sorting condition, which minimal_window finds from any ordering.
"""

from __future__ import annotations

from .context import GroupContext, Record, integers
from .errors import BalanceViolation, ResidueClash, ZeroResidue


class MirroredPermutation(Record):
    __slots__ = ("ctx", "window")

    def __init__(self, ctx: GroupContext, window: tuple[int, ...]):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "window", window)


def from_base_window(ctx: GroupContext, entries) -> MirroredPermutation:
    entries = integers(entries)
    N = ctx.N
    if len(entries) != 2 * ctx.n:
        raise ResidueClash(f"window must have {2 * ctx.n} entries")
    seen = {}
    for e in entries:
        r = e % N
        if r == 0:
            raise ZeroResidue(f"entry {e} is divisible by N={N}")
        if r in seen:
            raise ResidueClash(f"entries {seen[r]} and {e} agree mod N={N}")
        seen[r] = e
    for i in range(1, ctx.n + 1):  # each pair (i, N-i) once
        if entries[i - 1] + entries[N - i - 1] != N:
            raise BalanceViolation(
                f"w({i}) + w({N - i}) = {entries[i - 1] + entries[N - i - 1]} != {N}"
            )
    return MirroredPermutation(ctx, entries)


def _cond_n(ctx: GroupContext, window) -> int:
    """|{i <= n : w(i) >= n+1}| for the window of w: per window position r,
    the shifts m with mN + r <= n and mN + w(r) >= n+1, counted in closed form."""
    n, N = ctx.n, ctx.N
    return sum(max(0, (e - n - 1) // N + (r <= n)) for r, e in enumerate(window, start=1))


def minimal_window(ctx: GroupContext, entries) -> tuple[int, ...]:
    """The window of the minimal representative of the coset whose window
    holds entries.  Sorting restores balance positionally; in the families
    with a fork at s_n, exactly one of the two orderings that swap
    positions n and n+1 satisfies the membership parity: that one."""
    window = sorted(entries)
    if ctx.fork_at_n and _cond_n(ctx, window) % 2:
        n = ctx.n
        window[n - 1], window[n] = window[n], window[n - 1]
    return tuple(window)
