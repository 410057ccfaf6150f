"""Symmetric (2n)-cores and bounded partitions, the two partition views of
the level vector; the generator action and Bruhat order run on the abacus.
Cores: the core check, the bijection with the abacus on the beta numbers,
and residues.  Bounded partitions: the parts of the upper diagram rows,
with the star decoration, read off the abacus runner by runner and read
back onto it bead by bead, and the residue filling, whose reading is the
canonical reduced word.

The boundary path of the core matches the abacus in reading order: a north
step per bead, an east step per gap, with the center of the path (between
entries N-1 and N+1) at the main diagonal.  Residues are fixed along
diagonals except inside the family's active diagonal bands, where they
depend on how the rows of the partition meet the band; below the
diagonal they mirror those above it.
"""

from itertools import chain, count, repeat
from operator import add, lt, neg, sub

from .abacus import Abacus, is_even
from .context import GroupContext, Record, integers, tokens
from .errors import BadRequest, MalformedBounded, NotACore, NotSymmetric, ParityViolation

EMPTY = frozenset()


class CorePartition(Record):
    __slots__ = ("ctx", "rows")

    def __init__(self, ctx: GroupContext, rows: tuple[int, ...]):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "rows", rows)


def make_core(ctx: GroupContext, rows) -> CorePartition:
    lam = CorePartition(ctx, integers(rows))
    to_abacus(lam)
    return lam


def row_len(rows: tuple[int, ...], i: int) -> int:
    """Length of row i (1-indexed), 0 beyond the partition."""
    return rows[i - 1] if 1 <= i <= len(rows) else 0


# --- beta numbers <-> abacus ------------------------------------------

def from_abacus(a: Abacus) -> CorePartition:
    """Rows off the beta numbers, as abacus_of reads them the other way: the
    bead at level l on runner r is u = 2n(l-1) + r - 1, and its beads above
    the first gap, u_1 > u_2 > ..., give row i = u_i + i (balance makes the
    charge 0)."""
    p = 2 * a.ctx.n
    tops = [p * (lvl - 1) + r for r, lvl in enumerate(a.levels)]
    gap = min(tops) + p
    beads = sorted(chain.from_iterable(range(u, gap, -p) for u in tops), reverse=True)
    return CorePartition(a.ctx, tuple(map(add, beads, count(1))))


def abacus_of(lam: CorePartition) -> Abacus:
    """The abacus of a partition already known to be a core.  Boundary step
    u = rows_i - i is the bead at level u // 2n + 1 on runner u % 2n + 1; the
    steps fall, so the first one met on a runner is its lowest bead, and the
    2n steps past the last row meet every runner."""
    ctx, rows, p = lam.ctx, lam.rows, 2 * lam.ctx.n
    levels = [None] * p
    for u in chain(map(sub, rows, count(1)), range(-len(rows) - 1, -len(rows) - p - 1, -1)):
        r = u % p
        if levels[r] is None:
            levels[r] = u // p + 1
    return Abacus(ctx, tuple(levels))


def to_abacus(lam: CorePartition) -> Abacus:
    """The abacus of a symmetric 2n-core, even at a fork at s_0.  A partition
    is one iff abacus_of balances it (a sum of 0 leaves no bead but the beta
    numbers u_i = rows_i - i) and, at that fork, makes it even.  Only on failure
    are the rows checked, in order, to name the first check failed: positive,
    weakly decreasing, symmetric (the u_i as one set), hook, parity."""
    ctx, rows, p = lam.ctx, lam.rows, 2 * lam.ctx.n
    a = abacus_of(lam)
    partition = not any(map(lt, rows, rows[1:])) and (not rows or rows[-1] > 0)
    if partition and a.levels == tuple(map(neg, reversed(a.levels))) and (
            not ctx.fork_at_zero or is_even(a)):
        return a
    if min(rows) <= 0:  # not empty: the empty partition passes
        raise NotACore("rows must be positive")
    if not partition:
        raise NotACore("rows must be weakly decreasing")
    k = len(rows)
    beta = list(map(sub, rows, range(1, k + 1)))
    members = set(beta)
    if rows[0] != k or not members.isdisjoint(map(sub, repeat(-1), beta)):
        raise NotSymmetric(f"{rows} differs from its transpose")
    members.update(range(-k - p, -k))  # u_i - 2n reaches no lower
    if not members.issuperset(map(sub, beta, repeat(p))):
        i = next(i for i, u in enumerate(beta, start=1) if u - p not in members)
        raise NotACore(f"row {i} has a hook of length {p}")
    raise ParityViolation("odd number of main-diagonal boxes")  # all a symmetric core can fail


# --- residues ------------------------------------------------------------

def _schematic(count: int, pos: int, hi: int, lo: int) -> frozenset:
    """Residues of the three band cells on a row meeting the band in
    `count` boxes; `pos` is 1..3 left to right; hi/lo are (n, n-1) for
    escalators and (0, 1) for descalators."""
    table = (
        (frozenset((lo, hi)), frozenset((hi,)), EMPTY),
        (frozenset((lo,)), frozenset((hi,)), frozenset((hi,))),
        (frozenset((hi,)), frozenset((hi,)), frozenset((lo,))),
        (EMPTY, frozenset((hi,)), frozenset((lo, hi))),
    )
    return table[count][pos - 1]


def _band_residue(rows, i, j, band_lo, hi, lo, p) -> frozenset:
    """Residue of cell (i,j), j > i, in the off-center band of diagonals
    band_lo..band_lo+2 modulo p: determined only when row i ends inside
    or just before the band."""
    d = j - i
    k = (d - band_lo) // p
    cs = i + band_lo + k * p
    length = row_len(rows, i)
    if cs - 1 <= length <= cs + 2:
        return _schematic(max(0, length - cs + 1), d - band_lo - k * p + 1, hi, lo)
    return EMPTY


def _mres(i: int, j: int) -> frozenset:
    if i == j:
        return frozenset((0,))
    return frozenset((1,)) if (i + j) % 4 == 1 else frozenset((0,))


def residue_set(lam: CorePartition, i: int, j: int) -> frozenset:
    """Residues carried by cell (i,j): a singleton for a determined cell,
    a pair for the doubly addable/removable band cells, empty when the
    residue is undetermined.  The core is symmetric, and so are its
    residues: a cell below the diagonal is read as its mirror above."""
    i, j = min(i, j), max(i, j)
    ctx = lam.ctx
    n = ctx.n
    p = 2 * n
    t = (j - i) % p
    if ctx.fork_at_n and t in (n - 1, n, n + 1):
        return _band_residue(lam.rows, i, j, n - 1, n, n - 1, p)
    if ctx.fork_at_zero and t in (p - 1, 0, 1):
        if j - i <= 1:
            return _mres(i, j)
        return _band_residue(lam.rows, i, j, p - 1, 0, 1, p)
    return frozenset((t,)) if t <= n else frozenset((p - t,))


def residue(lam: CorePartition, i: int, j: int):
    """Public residue view: an int, a sorted tuple pair, or None.  Rows and
    columns are numbered from 1; a cell with i or j below 1 raises BadRequest."""
    i, j = integers((i, j))
    if min(i, j) < 1:
        raise BadRequest(f"no cell ({i}, {j}): rows and columns are numbered from 1")
    rs = residue_set(lam, i, j)
    if not rs:
        return None
    if len(rs) == 1:
        return next(iter(rs))
    return tuple(sorted(rs))


# --- bounded partitions --------------------------------------------------

class BoundedPartition(Record):
    __slots__ = ("ctx", "parts", "star")

    def __init__(self, ctx: GroupContext, parts: tuple[int, ...], star: int | None = None):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "star", star)  # 0-based index of the starred part

    def __str__(self) -> str:
        items = [f"{p}*" if i == self.star else str(p) for i, p in enumerate(self.parts)]
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
    N+n the part is c = 1 + x0 + xn plus the gaps among the N positions
    before the bead: runners s < r below level m and s > r below m-1.  At
    m > 1 those are the `under` runners below m-1 and the `at` runners
    s < r at m-1, so a level with none at m-1 is one run of equal parts."""
    ctx = a.ctx
    n, levels, c = ctx.n, a.levels, 1 + ctx.x0 + ctx.xn
    ordered, parts, star = sorted(levels), [], None
    below = ordered.index(ordered[-1])  # runners below level m
    for m in range(ordered[-1], 1, -1):
        under = below
        while ordered[under - 1] == m - 1:  # some runner is below 1: balance
            under -= 1
        if under == below:
            parts += [c + under] * (2 * n - below)
            continue
        at = below - under  # runners at m-1 left of r, as r falls
        for level in reversed(levels):
            if level >= m:
                parts.append(c + under + at)
            else:
                at -= level == m - 1
        below = under
    before, after = below, c  # below 1, once a runner reaches level 1
    for r in range(2 * n, 0, -1):
        level = levels[r - 1]
        if level < 1:
            before -= 1
            after += level < 0
        elif r > n:
            parts.append(before + after)
        elif r + ctx.x0 > 0:  # the parity bead at N+1 carries no boxes
            parts.append(r + ctx.x0)
            if r == n and ctx.fork_at_n:
                star = len(parts) - 1
    return BoundedPartition(ctx, tuple(parts), star)  # the last part of its size


def bounded_after_ascent(beta: BoundedPartition, x, w, moves) -> BoundedPartition:
    """beta(w) for an ascent w = s_g x of the level vectors x and w, from
    beta = beta(x) and the moves of s_g.  If k beads of w lie past pN+q, the
    lowest bead past N that w has and x has not, the new box is on part k,
    or a new last part 1 when beta has no part k (so also at the parity
    bead N+1 of a fork at s_0, which s_0 brings only with N+2, of part 1).
    At a fork at s_n the star is on the part of the bead N+n, if w has it."""
    ctx = beta.ctx
    # pN+q lies on a target runner, one level above x's bead there or at level 1
    p, q = min((max(x[s - 1], 0) + 1, s) for _, _, s in moves if max(x[s - 1], 0) < w[s - 1])
    k = sum([level - p for level in w if level > p]) + sum([level >= p for level in w[q:]])
    parts = beta.parts
    parts = (*parts[:k], parts[k] + 1, *parts[k + 1 :]) if k < len(parts) else (*parts, 1)
    size = star_size(ctx)  # the part of the bead N+n is the last of its size
    star = parts.index(size) + parts.count(size) - 1 if size and w[ctx.n - 1] > 0 else None
    return BoundedPartition(ctx, parts, star)


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
    """The filling read right to left along each row, from the last row up."""
    return list(chain.from_iterable(map(reversed, reversed(residue_filling(beta)))))
