"""Slow paths kept to check the level-vector engine: breadth-first
enumeration of the quotient by the window action, Bruhat order via the
lifting property, the generator action on a core by scanning its cells for
residues, the core check by one hook per box, central peeling, and the
bounded diagram read off the hooks of the core.  Peeling removes the
component of the last box of row d, d the number of boxes on the family's
reference diagonal, until the core is empty: the letters form the
canonical word and the recorded boxes its upper diagram."""

from __future__ import annotations

from dataclasses import dataclass, field

from .abacus import Abacus, generator_moves, move_levels
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
from .errors import NotACore, NotEnumerated, NotSymmetric, ParityViolation, StuckPeel
from .window import MirroredPermutation, apply_generator_left, identity, normalize


@dataclass
class QuotientTable:
    ctx: GroupContext
    max_len: int
    lengths: dict[tuple, int]
    by_length: list[list[MirroredPermutation]]
    _bruhat_memo: dict = field(default_factory=dict, repr=False)

    def length(self, w: MirroredPermutation) -> int:
        try:
            return self.lengths[w.window]
        except KeyError:
            raise NotEnumerated(f"{w.window} beyond max_len={self.max_len}")

    def elements(self):
        for layer in self.by_length:
            yield from layer


def enumerate_quotient(ctx: GroupContext, max_len: int) -> QuotientTable:
    e = identity(ctx)
    lengths = {e.window: 0}
    by_length = [[e]]
    frontier = [e]
    for dist in range(1, max_len + 1):
        layer = []
        for w in frontier:
            for g in ctx.generators():
                u = normalize(apply_generator_left(w, g))
                if u.window not in lengths:
                    lengths[u.window] = dist
                    layer.append(u)
        by_length.append(layer)
        frontier = layer
    return QuotientTable(ctx, max_len, lengths, by_length)


def oracle_descents(table: QuotientTable, w: MirroredPermutation) -> set[int]:
    lw = table.length(w)
    out = set()
    for g in table.ctx.generators():
        u = normalize(apply_generator_left(w, g))
        if u.window != w.window and table.lengths.get(u.window, lw + 1) < lw:
            out.add(g)
    return out


def bruhat_leq_lifting(
    table: QuotientTable, x: MirroredPermutation, w: MirroredPermutation
) -> bool:
    """x <= w in Bruhat order on the quotient, by repeated lifting."""
    key = (x.window, w.window)
    memo = table._bruhat_memo
    if key in memo:
        return memo[key]
    if table.length(x) > table.length(w):
        result = False
    elif table.length(w) == 0:
        result = table.length(x) == 0
    else:
        g = min(oracle_descents(table, w))
        wg = normalize(apply_generator_left(w, g))
        xg = normalize(apply_generator_left(x, g))
        lxg = table.lengths.get(xg.window)
        if xg.window != x.window and lxg is not None and lxg < table.length(x):
            x = xg
        result = bruhat_leq_lifting(table, x, wg)
    memo[key] = result
    return result


def contains_box(rows: tuple[int, ...], i: int, j: int) -> bool:
    return 1 <= i <= len(rows) and 1 <= j <= rows[i - 1]


def _components(cells: set) -> list[set]:
    out = []
    left = set(cells)
    while left:
        seed = left.pop()
        comp = {seed}
        stack = [seed]
        while stack:
            i, j = stack.pop()
            for cell in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
                if cell in left:
                    left.remove(cell)
                    comp.add(cell)
                    stack.append(cell)
        out.append(comp)
    return out


def _shape_after(rows, comp, sign) -> tuple | None:
    """Row lengths after adding (sign=+1) or removing (sign=-1) the cells
    of comp, or None when the result is not a partition built by whole
    boundary strips."""
    per_row = {}
    for i, _ in comp:
        per_row[i] = per_row.get(i, 0) + 1
    height = max(len(rows), max(per_row) if sign > 0 else 0)
    new = [row_len(rows, i) + sign * per_row.get(i, 0) for i in range(1, height + 1)]
    for (i, j) in comp:
        old = row_len(rows, i)
        if sign > 0 and not (old < j <= new[i - 1]):
            return None
        if sign < 0 and not (new[i - 1] < j <= old):
            return None
    if any(new[i] < new[i + 1] for i in range(len(new) - 1)):
        return None
    if any(x < 0 for x in new):
        return None
    while new and new[-1] == 0:
        new.pop()
    return tuple(new)


def apply_generator_scan(lam: CorePartition, g: int) -> CorePartition:
    """Add all addable g-components, or remove all removable ones, found by
    scanning about (|lam| + 2n)^2 cells for the residue g."""
    ctx = lam.ctx
    rows = lam.rows
    size = max((len(rows), row_len(rows, 1))) if rows else 0
    bound = size + 2 * ctx.n + 2
    cells = set()
    for i in range(1, bound + 1):
        for j in range(1, bound + 1):
            if g in residue_set(lam, i, j):
                cells.add((i, j))
    addable, removable = [], []
    for comp in _components(cells):
        inside = sum(1 for c in comp if contains_box(rows, *c))
        if inside == len(comp):
            if _shape_after(rows, comp, -1) is not None:
                removable.append(comp)
        elif inside == 0:
            if _shape_after(rows, comp, +1) is not None:
                addable.append(comp)
    if removable:
        chosen, sign = removable, -1
    elif addable:
        chosen, sign = addable, +1
    else:
        return lam
    merged = set().union(*chosen)
    new = _shape_after(rows, merged, sign)
    return CorePartition(ctx, new)


def validate_core_scan(lam: CorePartition) -> None:
    """`core.validate_core` by computing the hook of every box: symmetry,
    no hook divisible by 2n, and diagonal parity in the even families."""
    ctx = lam.ctx
    rows = lam.rows
    conj = conjugate(rows)
    if rows != conj:
        raise NotSymmetric(f"{rows} differs from its transpose {conj}")
    p = 2 * ctx.n
    for i, r in enumerate(rows, start=1):
        for j in range(1, r + 1):
            if ((r - j) + (conj[j - 1] - i) + 1) % p == 0:
                raise NotACore(f"hook of box ({i},{j}) divisible by {p}")
    if ctx.is_even_family and diagonal_boxes(lam, 0) % 2 != 0:
        raise ParityViolation("odd number of main-diagonal boxes")


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
