"""Bounded partitions: parts of the upper diagram rows, with the star
decoration, the abacus conversions both ways, and the residue fillings
whose reading recovers the canonical reduced word."""

from __future__ import annotations

from dataclasses import dataclass

from .abacus import Abacus
from .context import GroupContext
from .core import CorePartition, abacus_of
from .errors import MalformedBounded


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


def parse_bounded(ctx: GroupContext, text: str) -> BoundedPartition:
    text = text.strip().strip("()")
    parts, star = [], None
    if text:
        for tok in text.split(","):
            tok = tok.strip()
            if tok.endswith("*"):
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


def bounded_partition(lam: CorePartition) -> BoundedPartition:
    """Row sizes of the upper diagram of central peeling, read off the
    abacus of the core."""
    return bounded_from_abacus(abacus_of(lam))


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
    """Rebuild the abacus by placing one bead per part: small parts go in
    the window right of N, the window is mirror-completed, and big parts
    are threaded below the existing beads in reading order."""
    ctx = beta.ctx
    N, n = ctx.N, ctx.n
    big_min = n + 1 + ctx.x0 + ctx.xn
    big = [
        p for i, p in enumerate(beta.parts) if p >= big_min and i != beta.star
    ]
    small = [
        p for i, p in enumerate(beta.parts) if p < big_min or i == beta.star
    ]
    levels: list[int | None] = [None] * (2 * n)

    def place(value: int) -> None:
        r = value % N
        lvl = (value - r) // N
        if levels[r - 1] is not None and levels[r - 1] >= lvl:
            raise MalformedBounded("bead placement collides")
        levels[r - 1] = lvl

    for p in small:
        place(N + p - ctx.x0)
    if ctx.fork_at_zero and len(beta.parts) % 2 == 1:
        place(N + 1)
    for j in range(1, n + 1):
        if levels[j - 1] is None or levels[j - 1] < 1:
            place(N - j)

    def is_bead(value: int) -> bool:
        r = value % N
        if r == 0:
            return False
        lvl = (value - r) // N
        return levels[r - 1] is not None and lvl <= levels[r - 1]

    def insert_at_possible(idx: int) -> None:
        cursor = max(
            levels[r - 1] * N + r
            for r in range(1, 2 * n + 1)
            if levels[r - 1] is not None
        )
        seen = 0
        v = cursor
        limit = cursor + (idx + 2) * N
        while v < limit:
            v += 1
            if v % N == 0:
                continue
            if is_bead(v - N):
                seen += 1
                if seen == idx:
                    place(v)
                    return
        raise MalformedBounded("no slot for big part")

    for i in range(len(big) - 1, -1, -1):
        if i == len(big) - 1:
            idx = big[i] - (n + ctx.x0 + ctx.xn)
        else:
            idx = big[i] - big[i + 1] + 1
        if idx < 1:
            raise MalformedBounded("big parts out of order")
        insert_at_possible(idx)

    out = [0] * (2 * n)
    for r in range(1, n + 1):
        a = levels[r - 1]
        b = levels[N - r - 1]
        if a is None and b is None:
            raise MalformedBounded("unconstrained runner pair")
        if a is None:
            a = -b
        elif b is None:
            b = -a
        elif a + b < 0:
            if a < -b:
                a = -b
            else:
                b = -a
        elif a + b > 0:
            raise MalformedBounded("runner pair cannot be balanced")
        out[r - 1], out[N - r - 1] = a, b
    return Abacus(ctx, tuple(out))


# --- residue fillings ----------------------------------------------------

def residue_filling(beta: BoundedPartition) -> list[list[int]]:
    ctx = beta.ctx
    n = ctx.n
    fam_fill = {
        False: _fill_plain_zero,  # no fork at 0: fixed first column
        True: _fill_fork_zero,  # fork at 0: alternating flank columns
    }[ctx.fork_at_zero]
    return fam_fill(beta, n)


def _col_height(parts, c: int) -> int:
    return sum(1 for p in parts if p >= c)


def _alternating(parts, grid, c: int) -> None:
    for i in range(_col_height(parts, c)):
        grid[i][c - 1] = 0 if i % 2 == 0 else 1


def _star_column(beta: BoundedPartition, grid, c: int, size: int, n: int) -> None:
    """Column c carries n/(n-1) residues steered by the star on parts of
    the given size; rows with larger parts all carry n-1."""
    rows_of_size = [i for i, p in enumerate(beta.parts) if p == size]
    if rows_of_size:
        bottom = rows_of_size[-1]
        value = n - 1 if beta.star == bottom else n
        for step, i in enumerate(reversed(rows_of_size)):
            grid[i][c - 1] = value if step % 2 == 0 else (2 * n - 1) - value
    for i, p in enumerate(beta.parts):
        if p > size:
            grid[i][c - 1] = n - 1


def _fill_plain_zero(beta: BoundedPartition, n: int):
    grid = [[0] * p for p in beta.parts]
    if beta.ctx.fork_at_n:
        # columns: 1..n-1 -> i-1, n+1 -> n, n+2..2n-1 -> 2n-i, n steered
        for i, p in enumerate(beta.parts):
            for c in range(1, p + 1):
                if c <= n - 1:
                    grid[i][c - 1] = c - 1
                elif c == n + 1:
                    grid[i][c - 1] = n
                elif c >= n + 2:
                    grid[i][c - 1] = 2 * n - c
        _star_column(beta, grid, n, n, n)
    else:
        for i, p in enumerate(beta.parts):
            for c in range(1, p + 1):
                grid[i][c - 1] = c - 1 if c <= n + 1 else 2 * n + 1 - c
    return grid


def _fill_fork_zero(beta: BoundedPartition, n: int):
    grid = [[0] * p for p in beta.parts]
    if beta.ctx.fork_at_n:
        # columns: 2..n-2 -> i, n -> n, n+1..2n-3 -> 2n-i-1, n-1 steered,
        # flanks 1 and 2n-2 alternate 0/1
        for i, p in enumerate(beta.parts):
            for c in range(2, p + 1):
                if c <= n - 2:
                    grid[i][c - 1] = c
                elif c == n:
                    grid[i][c - 1] = n
                elif n + 1 <= c <= 2 * n - 3:
                    grid[i][c - 1] = 2 * n - c - 1
        _star_column(beta, grid, n - 1, n - 1, n)
        _alternating(beta.parts, grid, 1)
        _alternating(beta.parts, grid, 2 * n - 2)
    else:
        # columns: 2..n -> i, n+1..2n-2 -> 2n-i, flanks 1 and 2n-1 alternate
        for i, p in enumerate(beta.parts):
            for c in range(2, p + 1):
                grid[i][c - 1] = c if c <= n else 2 * n - c
        _alternating(beta.parts, grid, 1)
        _alternating(beta.parts, grid, 2 * n - 1)
    return grid


def word_from_filling(beta: BoundedPartition) -> list[int]:
    grid = residue_filling(beta)
    out: list[int] = []
    for row in reversed(grid):
        out.extend(reversed(row))
    return out
