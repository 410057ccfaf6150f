"""Three Coxeter length formulas: from the abacus gap counts, from core
row statistics, and from rim walks on the core."""

from __future__ import annotations

from .abacus import Abacus, bead_at, gaps_between, last_bead, lowest_bead, runner_of
from .core import CorePartition, conjugate, diagonal_boxes, row_len, runner_number


def length_from_abacus(a: Abacus) -> int:
    """Gap counts between each pair's lowest bead and its window bead,
    plus per-bead corrections beyond position N."""
    ctx = a.ctx
    N, n = ctx.N, ctx.n
    total = 0
    for i in range(1, n + 1):
        big = max(lowest_bead(a, i), lowest_bead(a, N - i))
        r = runner_of(ctx, big)
        b = r if r >= n + 1 else N + r
        total += gaps_between(a, min(b, big), max(b, big))
    for v in range(N + 1, last_bead(a) + 1):
        if v % N != 0 and bead_at(a, v):
            total += 1 + ctx.x0 + ctx.xn if v > N + n else v - N + ctx.x0
    return total


def length_from_core(lam: CorePartition) -> int:
    ctx = lam.ctx
    n, N = ctx.n, ctx.N
    rows = lam.rows
    k = len(rows)
    if all(p <= n for p in rows):
        return sum(max(0, rows[i - 1] - i + 1 + ctx.x0) for i in range(1, k + 1))

    # u values of the boundary's vertical steps, one per (possibly empty) row
    steps = {row_len(rows, j) - j: j for j in range(1, k + 2 * n + 1)}

    total = 0
    for i in range(1, n + 1):
        pair = {i, N - i}
        u_top = max(u for u in steps if runner_number(ctx, u) in pair)
        runner = runner_number(ctx, u_top)
        u_low = runner - 1 if runner <= n else runner - N
        total += row_len(rows, steps[u_top]) - row_len(rows, steps[u_low])

    conj = conjugate(rows)
    d = sum(
        1
        for j in range(1, k + 1)
        if rows[j - 1] >= j and rows[j - 1] + conj[j - 1] - 2 * j + 1 > 2 * n
    )
    total += (1 + ctx.x0 + ctx.xn) * d
    total += sum(max(0, rows[i - 1] - i + 1 + ctx.x0) for i in range(d + 1, k + 1))
    return total


def _rim_box(rows, u: int) -> tuple[int, int] | None:
    """Last box of the diagonal u, which is the rim box on that diagonal."""
    best = None
    for i in range(1, len(rows) + 1):
        j = i + u
        if 1 <= j <= rows[i - 1]:
            best = (i, j)
    return best


def length_from_rimwalk(lam: CorePartition) -> int:
    ctx = lam.ctx
    n, N = ctx.n, ctx.N
    rows = lam.rows
    p = 2 * n
    total = 0
    for i in range(1, n + 1):
        pair = {i, N - i}
        ends = [
            (rows[j - 1] - j, j)
            for j in range(1, len(rows) + 1)
            if runner_number(ctx, rows[j - 1] - j) in pair
        ]
        if not ends:
            continue
        u_r, big_row = max(ends)
        if u_r < 0:
            # the pair's beads all precede the window: no bounded rows
            continue
        walk = range(i - 1, u_r + 1)
        boxes = [b for u in walk if (b := _rim_box(rows, u)) is not None]
        runner = runner_number(ctx, u_r)
        h = sum(
            1
            for j in {b[0] for b in boxes}
            if runner_number(ctx, rows[j - 1] - j) != runner
        )
        total += rows[big_row - 1] - big_row - h + 1
    return total + ctx.x0 * diagonal_boxes(lam, 0) + ctx.xn * diagonal_boxes(lam, n)
