"""Symmetric (2n)-cores: the core check, the bijection with the abacus
on the beta numbers, and residues.  Cores are a view of the level
vector; the generator action and Bruhat order run on the abacus.

The boundary path of the core matches the abacus in reading order: a north
step per bead, an east step per gap, with the center of the path (between
entries N-1 and N+1) at the main diagonal.  Residues are fixed along
diagonals except inside the family's active diagonal bands, where they
depend on how the rows of the partition meet the band; below the
diagonal they mirror those above it.
"""

from __future__ import annotations

from itertools import chain, count, repeat
from operator import add, lt, neg, sub

from .abacus import Abacus, is_even
from .context import GroupContext, Record, integers
from .errors import BadRequest, NotACore, NotSymmetric, ParityViolation

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


def validate_core(lam: CorePartition) -> Abacus:
    """The abacus of a symmetric 2n-core, even at a fork at s_0.  A partition
    is one iff abacus_of balances it (a sum of 0 leaves no bead but the beta
    numbers u_i = rows_i - i) and, at that fork, makes it even.  Only on failure
    are the u_i checked as one set, in order, to name the first check failed."""
    ctx, rows, p = lam.ctx, lam.rows, 2 * lam.ctx.n
    a = abacus_of(lam)
    partition = not any(map(lt, rows, rows[1:])) and (not rows or rows[-1] > 0)
    if partition and a.levels == tuple(map(neg, reversed(a.levels))) and (
            not ctx.fork_at_zero or is_even(a)):
        return a
    k = len(rows)
    beta = list(map(sub, rows, range(1, k + 1)))
    members = set(beta)
    # rows that are not a partition differ from their transpose, a partition
    if row_len(rows, 1) != k or not partition or not members.isdisjoint(map(sub, repeat(-1), beta)):
        raise NotSymmetric(f"{rows} differs from its transpose")
    members.update(range(-k - p, -k))  # u_i - 2n reaches no lower
    if not members.issuperset(map(sub, beta, repeat(p))):
        i = next(i for i, u in enumerate(beta, start=1) if u - p not in members)
        raise NotACore(f"row {i} has a hook of length {p}")
    raise ParityViolation("odd number of main-diagonal boxes")  # all a symmetric core can fail


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
    steps fall, so the first one met on a runner is its lowest bead."""
    ctx, rows, p = lam.ctx, lam.rows, 2 * lam.ctx.n
    levels, unset = [None] * p, p
    for u in chain(map(sub, rows, count(1)), range(-len(rows) - 1, -len(rows) - p - 1, -1)):
        r = u % p
        if levels[r] is None:
            levels[r] = u // p + 1
            unset -= 1
            if not unset:
                break
    return Abacus(ctx, tuple(levels))


def to_abacus(lam: CorePartition) -> Abacus:
    """validate_core, naming first the two checks make_core makes of the rows."""
    try:
        return validate_core(lam)
    except NotSymmetric:  # raised for every sequence that is not a partition
        if min(lam.rows) <= 0:  # not empty: the empty partition passes
            raise NotACore("rows must be positive") from None
        if any(map(lt, lam.rows, lam.rows[1:])):
            raise NotACore("rows must be weakly decreasing") from None
        raise


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
