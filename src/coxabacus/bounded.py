"""Bounded partitions, a view of the level vector: the parts of the upper
diagram rows, with the star decoration, read off the abacus runner by
runner, and the residue filling whose reading is the canonical reduced
word, which walks back to the abacus."""

from __future__ import annotations

from dataclasses import dataclass

from .abacus import Abacus, abacus_from_word
from .context import GroupContext
from .errors import CoxabacusError, MalformedBounded


@dataclass(frozen=True)
class BoundedPartition:
    ctx: GroupContext
    parts: tuple[int, ...]
    star: int | None = None  # 0-based index of the starred part

    def __str__(self) -> str:
        items = [
            f"{p}*" if i == self.star else str(p) for i, p in enumerate(self.parts)
        ]
        return "(" + ",".join(items) + ")"


def unwrap(text: str, error: type[CoxabacusError] = MalformedBounded) -> str:
    """text inside at most one enclosing () or [] pair; any other bracket raises."""
    inner = text.strip()
    if inner[:1] + inner[-1:] in ("()", "[]"):
        inner = inner[1:-1]
    if any(c in "()[]" for c in inner):
        raise error(f"unbalanced brackets: {text!r}")
    return inner


def parse_bounded(ctx: GroupContext, text: str) -> BoundedPartition:
    text = unwrap(text)
    parts, star = [], None
    if text:
        for tok in text.split(","):
            tok = tok.strip()
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
    parts = tuple(int(p) for p in parts)
    if any(p <= 0 for p in parts):
        raise MalformedBounded("parts must be positive")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
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
    the bead: runners s < r below level m and runners s > r below m-1."""
    ctx = a.ctx
    n, levels = ctx.n, a.levels
    parts, star = [], None
    for m in range(max(levels), 0, -1):
        for r in range(2 * n, 0, -1):
            if levels[r - 1] < m:
                continue
            if m > 1 or r > n:
                gaps = sum(lvl < m for lvl in levels[: r - 1])
                gaps += sum(lvl < m - 1 for lvl in levels[r:])
                parts.append(gaps + 1 + ctx.x0 + ctx.xn)
            elif r + ctx.x0 > 0:  # the parity bead at N+1 carries no boxes
                parts.append(r + ctx.x0)
                if r == n and ctx.fork_at_n:
                    star = len(parts) - 1
    return make_bounded(ctx, parts, star)


def abacus_from_bounded(beta: BoundedPartition) -> Abacus:
    """The filling reads the canonical word, so the word rebuilds the abacus."""
    return abacus_from_word(beta.ctx, word_from_filling(beta))


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
