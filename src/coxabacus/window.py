"""Mirrored Z-permutations stored by their base window.

A mirrored permutation w is a bijection of Z with w(k+N) = w(k)+N and
w(-k) = -w(k); it is determined by the window [w(1),...,w(2n)].  Elements
of the quotient are represented by the unique window satisfying the
family's sorting condition.
"""

from __future__ import annotations

from dataclasses import dataclass

from .context import GroupContext
from .errors import BalanceViolation, ResidueClash, UnknownGenerator, ZeroResidue


@dataclass(frozen=True)
class MirroredPermutation:
    ctx: GroupContext
    window: tuple[int, ...]


def from_base_window(ctx: GroupContext, entries) -> MirroredPermutation:
    entries = tuple(int(e) for e in entries)
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
    for i in range(1, 2 * ctx.n + 1):
        if entries[i - 1] + entries[N - i - 1] != N:
            raise BalanceViolation(
                f"w({i}) + w({N - i}) = {entries[i - 1] + entries[N - i - 1]} != {N}"
            )
    return MirroredPermutation(ctx, entries)


def identity(ctx: GroupContext) -> MirroredPermutation:
    return MirroredPermutation(ctx, tuple(range(1, 2 * ctx.n + 1)))


def _base_image(ctx: GroupContext, g: int, r: int) -> int:
    """Image of position r in 1..n under the generator g."""
    n = ctx.n
    if g == 0:
        if ctx.fork_at_zero:
            if r == 1:
                return -2
            if r == 2:
                return -1
        elif r == 1:
            return -1
        return r
    if g == n:
        if ctx.fork_at_n:
            if r == n - 1:
                return n + 1
            if r == n:
                return n + 2
        elif r == n:
            return n + 1
        return r
    if r == g:
        return g + 1
    if r == g + 1:
        return g
    return r


def generator_value(ctx: GroupContext, g: int, v: int) -> int:
    """Value of the generator s_g, as a mirrored permutation, at v."""
    if not 0 <= g <= ctx.n:
        raise UnknownGenerator(f"no generator s{g} at rank {ctx.n}")
    N = ctx.N
    m, r = divmod(v, N)
    if r == 0:
        return v
    if r <= ctx.n:
        return m * N + _base_image(ctx, g, r)
    return m * N + (N - _base_image(ctx, g, N - r))


def _count_cond_n(w: MirroredPermutation) -> int:
    """|{i <= n : w(i) >= n+1}|: per window position r, the shifts m with
    mN + r <= n and mN + w(r) >= n+1, counted in closed form."""
    n, N = w.ctx.n, w.ctx.N
    return sum(
        max(0, (e - n - 1) // N + (r <= n)) for r, e in enumerate(w.window, start=1)
    )


def normalize(w: MirroredPermutation) -> MirroredPermutation:
    """The minimal representative of the coset of w.

    Sorting the entries restores balance positionally; in the families with
    a fork at s_n, exactly one of the two orderings that swap positions n
    and n+1 satisfies the membership parity, and we pick that one.
    """
    ctx = w.ctx
    entries = sorted(w.window)
    cand = MirroredPermutation(ctx, tuple(entries))
    if not ctx.fork_at_n:
        return cand
    if _count_cond_n(cand) % 2 == 0:
        return cand
    n = ctx.n
    entries[n - 1], entries[n] = entries[n], entries[n - 1]
    return MirroredPermutation(ctx, tuple(entries))

