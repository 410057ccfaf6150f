"""Bounded partitions, a view of the level vector: the parts of the upper
diagram rows, with the star decoration, read off the abacus runner by
runner and read back onto it bead by bead, and the residue filling, whose
reading is the canonical reduced word."""

from __future__ import annotations

from operator import lt

from .abacus import Abacus
from .context import GroupContext, Record, integers, tokens
from .errors import MalformedBounded


class BoundedPartition(Record):
    __slots__ = ("ctx", "parts", "star")

    def __init__(self, ctx: GroupContext, parts: tuple[int, ...], star: int | None = None):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "star", star)  # 0-based index of the starred part

    def __str__(self) -> str:
        items = [
            f"{p}*" if i == self.star else str(p) for i, p in enumerate(self.parts)
        ]
        return "(" + ",".join(items) + ")"


def parse_bounded(ctx: GroupContext, text: str) -> BoundedPartition:
    parts, star = [], None
    for tok in tokens(text):
        if tok.endswith("*"):
            if star is not None:
                raise MalformedBounded("more than one part is starred")
            star = len(parts)
            tok = tok[:-1]
        try:
            parts.append(int(tok))
        except ValueError:
            raise MalformedBounded(f"part {tok!r} is not an integer") from None
    return make_bounded(ctx, parts, star)


def star_size(ctx: GroupContext) -> int | None:
    """Part size eligible for the star, when the family allows one."""
    return ctx.n + ctx.x0 if ctx.fork_at_n else None


def make_bounded(ctx: GroupContext, parts, star=None) -> BoundedPartition:
    parts = integers(parts)
    if min(parts, default=1) <= 0:
        raise MalformedBounded("parts must be positive")
    if any(map(lt, parts, parts[1:])):
        raise MalformedBounded("parts must be weakly decreasing")
    limit = 2 * ctx.n + ctx.x0 + ctx.xn
    if parts and parts[0] > limit:
        raise MalformedBounded(f"parts must be at most {limit}")
    once_below = ctx.n + ctx.x0 + ctx.xn
    seen = set()
    for i, p in enumerate(parts):
        if p <= once_below and i != star:
            if p in seen:
                raise MalformedBounded(f"part {p} repeated")
            seen.add(p)
    if star is not None:
        (star,) = integers((star,))
        if star_size(ctx) is None:
            raise MalformedBounded("family does not admit a star")
        if not (0 <= star < len(parts)) or parts[star] != star_size(ctx):
            raise MalformedBounded(f"star must sit on a part of size {star_size(ctx)}")
        # canonical position: the last part of the starred size
        star = max(i for i, p in enumerate(parts) if p == parts[star])
    return BoundedPartition(ctx, parts, star)


def bounded_from_abacus(a: Abacus) -> BoundedPartition:
    """One part per bead mN+r past N, read from the last bead back.  Past
    N+n the part is 1 + x0 + xn plus the gaps among the N positions before
    the bead: runners s < r below level m (before) and runners s > r below
    m-1 (after), both kept as running counts down the runners."""
    ctx = a.ctx
    n, levels = ctx.n, a.levels
    parts, star = [], None
    for m in range(max(levels), 0, -1):
        before, after = sum(map(m.__gt__, levels)), 1 + ctx.x0 + ctx.xn
        for r in range(2 * n, 0, -1):
            level = levels[r - 1]
            if level < m:
                before -= 1
                after += level < m - 1
            elif m > 1 or r > n:
                parts.append(before + after)
            elif r + ctx.x0 > 0:  # the parity bead at N+1 carries no boxes
                parts.append(r + ctx.x0)
                if r == n and ctx.fork_at_n:
                    star = len(parts) - 1
    return BoundedPartition(ctx, tuple(parts), star)  # the last part of its size


def abacus_from_bounded(beta: BoundedPartition) -> Abacus:
    """bounded_from_abacus backwards, one bead past N per part, smallest first:
    a part that is not the next runner's gap count marks a gap there, as all
    later parts are larger.  A run of levels where none of the j runners
    going stops is j parts c + 2n - j a level, read in one step."""
    ctx, desc = beta.ctx, beta.parts
    n, c, total = ctx.n, 1 + ctx.x0 + ctx.xn, len(desc)
    parts = [*reversed(desc), None]  # None ends the parts: no count equals it
    unstarred = star_size(ctx) if beta.star is None else None
    levels, i = [0] * (2 * n), 0
    for r in range(n):  # part r + 1 + x0, but n + x0 only if starred at a fork at s_n
        if parts[i] == r + 1 + ctx.x0 != unstarred:
            levels[r], i = 1, i + 1
    after, before = sum(levels), n - sum(levels)  # below 0 after r, below 1 before
    for r in range(n, 2 * n):  # a bead at level 1 where the mirror has none
        mirror = levels[~r]
        after -= mirror
        if not mirror and parts[i] == c + before + after:
            levels[r], i = 1, i + 1
        before += not levels[r]
    active, m = [r for r, level in enumerate(levels) if level], 2
    while active:  # each level decided stops at least one runner
        v = c + 2 * n - len(active)
        if parts[i] == v:  # the levels where none stops: j parts v each
            full = (total - i - desc.index(v)) // len(active)
            m, i = m + full, i + full * len(active)
        going = []
        for k, r in enumerate(active):
            if parts[i] == v + k - len(going):
                going.append(r)
                i += 1
            else:
                levels[r] = m - 1
        active, m = going, m + 1
    levels = [level or -levels[~r] for r, level in enumerate(levels)]  # the rest mirror
    if ctx.fork_at_zero and sum(map(abs, levels[:n])) % 2:  # the bead at N+1 has no part,
        levels[0], levels[-1] = 1 - levels[0], levels[0] - 1  # so runner 1 at a+1 reads as 2n at a
    return Abacus(ctx, tuple(levels))


def residue_filling(beta: BoundedPartition) -> list[list[int]]:
    """Row i holds the first parts[i] entries of the C~/C row 0 1 ... n ... 1,
    folded at each fork.  A fork at s_n turns n-1 n n-1 into one column,
    steered by the star, followed by n; a fork at s_0 turns the leading 0 1
    and the trailing 1 into columns that alternate 0/1 down the rows."""
    ctx, parts = beta.ctx, beta.parts
    n, size = ctx.n, star_size(ctx)
    template = [*range(n + 1), *range(n - 1, 0, -1)]
    if ctx.fork_at_n:
        template[n - 1 : n + 2] = [n - 1, n]  # n-1 unless the row ends there
    if ctx.fork_at_zero:
        template[:2], template[-1] = [0], 0  # 1 on the odd rows
    # the rows ending in the steered column alternate n, n-1 upwards from
    # the last one, which starts at n-1 when it carries the star
    bottom = max((i for i, p in enumerate(parts) if p == size), default=None)
    grid = []
    for i, p in enumerate(parts):
        row = template[:p]
        if ctx.fork_at_zero and i % 2:
            row[0] = 1
            if p == len(template):
                row[-1] = 1
        if p == size:
            row[-1] = n - (bottom - i + (beta.star == bottom)) % 2
        grid.append(row)
    return grid


def word_from_filling(beta: BoundedPartition) -> list[int]:
    grid = residue_filling(beta)
    out: list[int] = []
    for row in reversed(grid):
        out.extend(reversed(row))
    return out
