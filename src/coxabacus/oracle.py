"""Slow paths kept to check the level-vector engine: the Coxeter matrix,
the window action, written from the definition of the generators as value
swaps, the identity window, the minimal representative of a coset
(normalize) and breadth-first enumeration by them, the membership and
minimality tests and the descent class of a window, Bruhat order via the
lifting property, the generator action on a core by scanning its cells
for residues and on root points by hand, the core check by one hook per
box, the boxes on a diagonal, the abacus of a core by labelling its
boundary path and the core of an abacus by walking its positions,
central peeling, the bounded diagram read off the hooks of the core, and
four length formulas, the first reading beads off the abacus (bead_at),
the last an inversion count on the window that shares no code with the
abacus or the core.  Peeling removes the component of the last box of
row d, d the number of boxes on the family's reference diagonal, until
the core is empty: the letters form the canonical word and the recorded
boxes its upper diagram."""

from operator import ge

from .abacus import Abacus, MirroredPermutation, RootPoint, from_permutation
from .abacus import generator_moves, move_levels, runner_of
from .context import Family, GroupContext, Record, integers
from .core import CorePartition, abacus_of, from_abacus, residue_set, row_len
from .errors import NotACore, NotEnumerated, NotMinimal, NotSymmetric, ParityViolation, StuckPeel
from .errors import BadRequest, UnknownGenerator


def coxeter_matrix(ctx: GroupContext) -> list[list[int]]:
    """Bond orders m(i,j) for the generator alphabet 0..n.

    The underlying graph is a path 2,...,n-2 of unlabeled (order 3) edges,
    closed off on each end either by a 4-bond to the path (C flavor) or by
    a fork of two 3-bonds (D flavor).
    """
    n = ctx.n
    m = [[2] * (n + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        m[i][i] = 1

    def bond(i, j, order):
        m[i][j] = order
        m[j][i] = order

    for i in range(1, n - 1):
        bond(i, i + 1, 3)
    if ctx.fork_at_zero:
        bond(0, 2, 3)
    else:
        bond(0, 1, 4)
    if ctx.fork_at_n:
        bond(n - 2, n, 3)
        bond(n - 1, n, 2)
    else:
        bond(n - 1, n, 4)
    return m


def generator_value(ctx: GroupContext, g: int, v: int) -> int:
    """Value of the generator s_g, as a mirrored permutation, at v, from its
    definition as value swaps modulo N: s_i (0 < i < n) swaps i, i+1 and
    -i, -i-1; s_0 swaps 1 and -1, or at a fork 1 with -2 and 2 with -1; s_n
    swaps n and n+1, or at a fork n-1 with n+1 and n with n+2."""
    (g,) = integers((g,))
    n, N = ctx.n, ctx.N
    if 0 < g < n:
        swaps = ((g, g + 1), (-g, -g - 1))
    elif g == 0:
        swaps = ((1, -2), (2, -1)) if ctx.fork_at_zero else ((1, -1),)
    elif g == n:
        swaps = ((n - 1, n + 1), (n, n + 2)) if ctx.fork_at_n else ((n, n + 1),)
    else:
        raise UnknownGenerator(f"no generator s{g} at rank {n}")
    for a, b in swaps:
        if (v - a) % N == 0:
            return v - a + b
        if (v - b) % N == 0:
            return v - b + a
    return v


def apply_generator_left(w: MirroredPermutation, g: int) -> MirroredPermutation:
    """s_g . w; the raw result need not satisfy the sorting condition."""
    ctx = w.ctx
    return MirroredPermutation(
        ctx, tuple(generator_value(ctx, g, e) for e in w.window)
    )


def identity(ctx: GroupContext) -> MirroredPermutation:
    return MirroredPermutation(ctx, tuple(range(1, 2 * ctx.n + 1)))


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


def normalize(w: MirroredPermutation) -> MirroredPermutation:
    """The minimal representative of the coset of w."""
    return MirroredPermutation(w.ctx, minimal_window(w.ctx, w.window))


class QuotientTable(Record, fields=("ctx", "max_len", "lengths", "by_length")):
    """The BFS layers to max_len and each window's length: unhashable, as its dicts
    are; the lifting test's memo is no field, and a copy starts with an empty one."""

    __slots__ = ("ctx", "max_len", "lengths", "by_length", "_bruhat_memo")
    __hash__ = None

    def __init__(self, ctx: GroupContext, max_len: int, lengths: dict, by_length: list):
        super().__init__(ctx, max_len, lengths, by_length, {})

    def length(self, w: MirroredPermutation) -> int:
        try:
            return self.lengths[w.window]
        except KeyError:
            raise NotEnumerated(f"{w.window} beyond max_len={self.max_len}")

    def elements(self):
        for layer in self.by_length:
            yield from layer


def enumerate_quotient(ctx: GroupContext, max_len: int) -> QuotientTable:
    (max_len,) = integers((max_len,))
    if max_len < 0:
        raise BadRequest("--max-len must be nonnegative")
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


def _count_cond_zero(w: MirroredPermutation) -> int:
    """|{i <= 0 : w(i) >= 1}|: per window entry e, the shifts m <= -1 with
    mN + e >= 1, counted in closed form."""
    return sum(max(0, (e - 1) // w.ctx.N) for e in w.window)


def family_membership(w: MirroredPermutation) -> bool:
    ctx = w.ctx
    if ctx.fork_at_zero and _count_cond_zero(w) % 2 != 0:
        return False
    if ctx.fork_at_n and _cond_n(ctx, w.window) % 2 != 0:
        return False
    return True


def is_minimal_coset_rep(w: MirroredPermutation) -> bool:
    n = w.ctx.n
    win = w.window
    if any(win[i] >= win[i + 1] for i in range(n - 1)):
        return False
    if w.ctx.fork_at_n:
        # positions n and n+2 must increase; n+2 exists since n >= 2
        return win[n - 1] < win[n + 1]
    return win[n - 1] < win[n]


def size_change(n: int, levels: tuple[int, ...], moves) -> int:
    """Core size after the moves minus before, from the moved runners' terms
    n*l^2 + r*l of core_size: negative for a descent, 0 when the element is
    fixed.  The check of abacus.rise, whose sign it shares."""
    total = 0
    for r, m, s in moves:  # n(l+m)^2 + s(l+m) - n*l^2 - r*l, expanded
        total += m * (n * (2 * levels[r - 1] + m) + s) + (s - r) * levels[r - 1]
    return total


def descent_class(w: MirroredPermutation, g: int) -> str:
    """'descent', 'ascent' or 'neither' for the left action of s_g on w."""
    if not is_minimal_coset_rep(w):
        raise NotMinimal("descent_class requires a minimal coset representative")
    (g,) = integers((g,))
    change = size_change(w.ctx.n, from_permutation(w).levels, generator_moves(w.ctx, g))
    return "neither" if change == 0 else "descent" if change < 0 else "ascent"


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


def conjugate(rows: tuple[int, ...]) -> tuple[int, ...]:
    """Column lengths: a pointer walks up from the last row as j grows."""
    out = []
    i = len(rows)
    for j in range(1, row_len(rows, 1) + 1):
        while rows[i - 1] < j:
            i -= 1
        out.append(i)
    return tuple(out)


def path_label(ctx: GroupContext, u: int) -> int:
    """Abacus label of boundary step u, with step 0 the first after the
    center of the path (entry N+1) and step -1 the one before (entry N-1)."""
    p = 2 * ctx.n
    if u >= 0:
        return ctx.N + (u // p) * ctx.N + (u % p) + 1
    v = -u - 1
    return ctx.N - (v % p) - 1 - (v // p) * ctx.N


def abacus_of_path(lam: CorePartition) -> Abacus:
    """`core.abacus_of` by labelling every boundary step down to row
    len(rows) + 2n and keeping the highest level on each runner."""
    ctx = lam.ctx
    levels = [None] * (2 * ctx.n)
    for i in range(1, len(lam.rows) + 2 * ctx.n + 1):
        b = path_label(ctx, row_len(lam.rows, i) - i)
        r = b % ctx.N
        lvl = (b - r) // ctx.N
        if levels[r - 1] is None or lvl > levels[r - 1]:
            levels[r - 1] = lvl
    return Abacus(ctx, tuple(levels))


def first_gap(a: Abacus) -> int:
    """Label of the earliest gap in reading order."""
    N = a.ctx.N
    return min(lvl * N + r for r, lvl in enumerate(a.levels, start=1)) + N


def last_bead(a: Abacus) -> int:
    N = a.ctx.N
    return max(lvl * N + r for r, lvl in enumerate(a.levels, start=1))


def from_abacus_scan(a: Abacus) -> CorePartition:
    """`core.from_abacus` by walking every position from the first gap to
    the last bead: one row per bead, as long as the number of gaps before
    it; position v = mN+r holds a bead iff m <= levels[r-1]."""
    N, levels = a.ctx.N, a.levels
    rows = []
    gaps = 0
    for v in range(first_gap(a), last_bead(a) + 1):
        r = v % N
        if r == 0:
            continue
        if v // N <= levels[r - 1]:
            rows.append(gaps)
        else:
            gaps += 1
    rows.reverse()
    return CorePartition(a.ctx, tuple(rows))


def diagonal_boxes(lam: CorePartition, d: int) -> int:
    """Number of boxes (i, i+d) of the partition on the d-th diagonal."""
    return sum(map(ge, lam.rows, range(1 + d, len(lam.rows) + 1 + d)))


def validate_core_scan(lam: CorePartition) -> None:
    """`core.to_abacus`'s core check by computing the hook of every box:
    symmetry, no hook divisible by 2n, and diagonal parity in the even families."""
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
    if ctx.fork_at_zero and diagonal_boxes(lam, 0) % 2 != 0:
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


def reflect(pt: RootPoint, g: int) -> RootPoint:
    """The generator action on root points, written out per generator."""
    ctx = pt.ctx
    n = ctx.n
    (g,) = integers((g,))
    if not 0 <= g <= n:
        raise UnknownGenerator(f"no generator s{g} at rank {n}")
    a = list(pt.coords)
    if g == 0:
        if ctx.fork_at_zero:
            a[0], a[1] = -a[1] + 1, -a[0] + 1
        else:
            a[0] = -a[0] + 1
    elif g == n:
        if ctx.fork_at_n:
            a[n - 2], a[n - 1] = -a[n - 1], -a[n - 2]
        else:
            a[n - 1] = -a[n - 1]
    else:
        a[g - 1], a[g] = a[g], a[g - 1]
    return RootPoint(ctx, tuple(a))


def core_size(a: Abacus) -> int:
    """Number of boxes of the core of a: n * sum(l_r^2) + sum(r * l_r)."""
    n = a.ctx.n
    return sum(n * lvl * lvl + r * lvl for r, lvl in enumerate(a.levels, start=1))


# --- length formulas -----------------------------------------------------

def bead_at(a: Abacus, value: int) -> bool:
    return value // a.ctx.N <= a.levels[runner_of(a.ctx, value) - 1]


def lowest_bead(a: Abacus, runner: int) -> int:
    return a.levels[runner - 1] * a.ctx.N + runner


def gaps_between(a: Abacus, lo: int, hi: int) -> int:
    """Number of gaps strictly between positions lo and hi (multiples of N
    are no abacus entries)."""
    return sum(1 for v in range(lo + 1, hi) if v % a.ctx.N and not bead_at(a, v))


def runner_number(ctx: GroupContext, u: int) -> int:
    """Runner of the boundary step at diagonal index u (constant along
    diagonals when boxes are filled with runner numbers)."""
    return u % (2 * ctx.n) + 1


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


# d(v), each family's term for one window entry v, fitted to the BFS lengths
_SELF_INVERSIONS = {
    Family.C_OVER_C: lambda v, N: abs(2 * v) // N + (v < 0),
    Family.B_OVER_B: lambda v, N: abs(2 * v) // N - abs(v) // N,
    Family.B_OVER_D: lambda v, N: abs(v) // N + (v < 0),
    Family.D_OVER_D: lambda v, N: 0,
}


def length_from_window(w: MirroredPermutation) -> int:
    """Inversions of the first n entries v of the minimal window, in O(n^2):
    the sum over i < j of floor(|v_j - v_i| / N) + floor(|v_i + v_j| / N)
    + [v_i + v_j < 0], plus d(v_i) for each i, after the inversion counts of
    the affine types in Bjorner-Brenti, Combinatorics of Coxeter Groups,
    8.4-8.6."""
    N, n = w.ctx.N, w.ctx.n
    v = w.window[:n]
    d = _SELF_INVERSIONS[w.ctx.family]
    total = sum(d(x, N) for x in v)
    for i in range(n):
        for j in range(i + 1, n):
            total += abs(v[j] - v[i]) // N + abs(v[i] + v[j]) // N + (v[i] + v[j] < 0)
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
