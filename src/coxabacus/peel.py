"""Central peeling and the bounded diagram.

Peeling repeatedly removes the component of the last box of row d, where d
counts the boxes on the family's reference diagonal; the recorded boxes
form the upper diagram and the letters form the canonical reduced word
(leftmost letter applied last).
"""

from __future__ import annotations

from .abacus import Abacus, generator_moves, identity_abacus, move_levels
from .context import GroupContext
from .core import (
    CorePartition,
    abacus_of,
    conjugate,
    diagonal_boxes,
    from_abacus,
    residue_set,
    row_len,
)
from .errors import StuckPeel, UnknownGenerator


def reference_diagonal(ctx: GroupContext) -> int:
    return 1 if ctx.fork_at_zero else 0


def _peel_letter(lam: CorePartition, i: int, j: int) -> int:
    rs = residue_set(lam, i, j)
    if not rs:
        raise StuckPeel(f"box ({i},{j}) has undetermined residue")
    if len(rs) == 1:
        return next(iter(rs))
    # a doubly removable box: prefer the fork-side letter
    return max(rs) if lam.ctx.n in rs else min(rs)


def _recorded_box(ctx: GroupContext, letter: int, d: int, removed_cols) -> tuple:
    if len(removed_cols) == 1:
        return (d, removed_cols[0])
    skip = set()
    if letter == ctx.n and ctx.fork_at_n:
        skip = {d + ctx.n}
    elif letter == 0 and ctx.fork_at_zero:
        skip = {d, d + 2 * ctx.n}
    keep = [c for c in removed_cols if c not in skip]
    return (d, keep[0] if keep else removed_cols[0])


def central_peel(lam: CorePartition) -> tuple[list[int], list[tuple]]:
    """Returns (letters, boxes); letters[k] was applied at step k, so the
    group element is the product s_letters[0] ... s_letters[-1].  The level
    vector is the state; the core is read only for the box to peel."""
    ctx = lam.ctx
    ref = reference_diagonal(ctx)
    tables = [generator_moves(ctx, g) for g in ctx.generators()]
    letters: list[int] = []
    boxes: list[tuple] = []
    levels = abacus_of(lam).levels
    cur = lam
    while cur.rows:
        d = diagonal_boxes(cur, ref)
        if d == 0 or d > len(cur.rows):
            raise StuckPeel("no box on the reference diagonal")
        j = cur.rows[d - 1]
        r = _peel_letter(cur, d, j)
        levels = move_levels(levels, tables[r])
        nxt = from_abacus(Abacus(ctx, levels))
        if sum(nxt.rows) >= sum(cur.rows):
            raise StuckPeel(f"letter {r} does not shrink the partition")
        removed = list(range(row_len(nxt.rows, d) + 1, j + 1))
        letters.append(r)
        boxes.append(_recorded_box(ctx, r, d, removed))
        cur = nxt
    return letters, boxes


def word_to_core(ctx: GroupContext, letters) -> CorePartition:
    """Rebuild the core from a word by applying letters right to left."""
    tables = [generator_moves(ctx, g) for g in ctx.generators()]
    levels = identity_abacus(ctx).levels
    for r in reversed(list(letters)):
        if r not in ctx.generators():
            raise UnknownGenerator(f"no generator s{r} at rank {ctx.n}")
        levels = move_levels(levels, tables[r])
    return from_abacus(Abacus(ctx, levels))


def bounded_diagram(lam: CorePartition) -> set[tuple]:
    """Left-justified row segments of skew boxes, truncated at the forks:
    equal to the upper diagram from central peeling."""
    ctx = lam.ctx
    p = 2 * ctx.n
    conj = conjugate(lam.rows)
    boxes = set()
    for i, r in enumerate(lam.rows, start=1):
        if r < i:
            continue
        # boxes (i, j) with hook (r - j) + (conj_j - i) + 1 below 2n
        skew = sum(1 for j in range(1, r + 1) if r - j + conj[j - 1] - i + 1 < p)
        # diagonal box plus one box per skew box, clipped to the row
        for j in range(i, min(i + skew, r) + 1):
            boxes.add((i, j))
    if ctx.fork_at_zero:
        boxes = {(i, j) for (i, j) in boxes if j != i}
    if ctx.fork_at_n:
        boxes = {(i, j) for (i, j) in boxes if j != i + ctx.n}
    return boxes
