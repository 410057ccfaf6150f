"""Symmetric (2n)-cores: the core check, the bijection with the abacus
through the boundary path, and residues.  Cores are a view of the level
vector; the generator action and Bruhat order run on the abacus.

The boundary path of the core matches the abacus in reading order: a north
step per bead, an east step per gap, with the center of the path (between
entries N-1 and N+1) at the main diagonal.  Residues are fixed along
diagonals except inside the family's active diagonal bands, where they
depend on how the rows of the partition meet the band; below the
diagonal they mirror those above it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abacus import Abacus, first_gap, last_bead
from .context import GroupContext
from .errors import NotACore, NotSymmetric, ParityViolation

EMPTY = frozenset()


@dataclass(frozen=True)
class CorePartition:
    ctx: GroupContext
    rows: tuple[int, ...]


def make_core(ctx: GroupContext, rows) -> CorePartition:
    rows = tuple(int(r) for r in rows)
    if any(r <= 0 for r in rows):
        raise NotACore("rows must be positive")
    if any(rows[i] < rows[i + 1] for i in range(len(rows) - 1)):
        raise NotACore("rows must be weakly decreasing")
    lam = CorePartition(ctx, rows)
    validate_core(lam)
    return lam


def conjugate(rows: tuple[int, ...]) -> tuple[int, ...]:
    """Column lengths: a pointer walks up from the last row as j grows."""
    out = []
    i = len(rows)
    for j in range(1, row_len(rows, 1) + 1):
        while rows[i - 1] < j:
            i -= 1
        out.append(i)
    return tuple(out)


def row_len(rows: tuple[int, ...], i: int) -> int:
    """Length of row i (1-indexed), 0 beyond the partition."""
    return rows[i - 1] if 1 <= i <= len(rows) else 0


def diagonal_boxes(lam: CorePartition, d: int) -> int:
    """Number of boxes (i, i+d) of the partition on the d-th diagonal."""
    return sum(1 for i in range(1, len(lam.rows) + 1) if lam.rows[i - 1] >= i + d)


def validate_core(lam: CorePartition) -> None:
    """Symmetry, then the 2n-core property in O(len(rows)): row i has a hook
    of length 2n iff rows_i - i - 2n >= -len(rows) is not some rows_k - k."""
    ctx = lam.ctx
    rows = lam.rows
    if row_len(rows, 1) != len(rows) or rows != conjugate(rows):
        raise NotSymmetric(f"{rows} differs from its transpose")
    p, k = 2 * ctx.n, 0  # rows[k] - k - 1 and b both fall: k only moves on
    for i, r in enumerate(rows, start=1):
        b = r - i - p
        while k < len(rows) and rows[k] - k - 1 > b:
            k += 1
        if b >= -len(rows) and (k == len(rows) or rows[k] - k - 1 != b):
            raise NotACore(f"row {i} has a hook of length {p}")
    if ctx.fork_at_zero and diagonal_boxes(lam, 0) % 2 != 0:
        raise ParityViolation("odd number of main-diagonal boxes")


# --- boundary path <-> abacus -------------------------------------------

def path_label(ctx: GroupContext, u: int) -> int:
    """Abacus label of boundary step u, with step 0 the first after the
    center of the path (entry N+1) and step -1 the one before (entry N-1)."""
    p = 2 * ctx.n
    if u >= 0:
        return ctx.N + (u // p) * ctx.N + (u % p) + 1
    v = -u - 1
    return ctx.N - (v % p) - 1 - (v // p) * ctx.N


def from_abacus(a: Abacus) -> CorePartition:
    """One row per bead after the first gap, as long as the number of gaps
    before it; position v = mN+r holds a bead iff m <= levels[r-1]."""
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


def abacus_of(lam: CorePartition) -> Abacus:
    """The abacus of a partition already known to be a core."""
    ctx = lam.ctx
    levels = [None] * (2 * ctx.n)
    for i in range(1, len(lam.rows) + 2 * ctx.n + 1):
        b = path_label(ctx, row_len(lam.rows, i) - i)
        r = b % ctx.N
        lvl = (b - r) // ctx.N
        if levels[r - 1] is None or lvl > levels[r - 1]:
            levels[r - 1] = lvl
    return Abacus(ctx, tuple(levels))


def to_abacus(lam: CorePartition) -> Abacus:
    validate_core(lam)
    return abacus_of(lam)


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
    """Public residue view: an int, a sorted tuple pair, or None."""
    rs = residue_set(lam, i, j)
    if not rs:
        return None
    if len(rs) == 1:
        return next(iter(rs))
    return tuple(sorted(rs))
