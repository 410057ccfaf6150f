"""Balanced flush abacus diagrams on 2n runners.

The abacus is stored as a level vector: levels[r-1] is the level of the
lowest bead on runner r, so position mN+r holds a bead iff m <= levels[r-1].
Balance means the levels of mirrored runners r and N-r cancel.  The level
vector is the working state: the generator action, the walk of a word, the
ascent walk and Bruhat order all run on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .context import GroupContext
from .errors import BalanceViolation, NotACore, ParityViolation, UnknownGenerator, ZeroResidue
from .window import MirroredPermutation, generator_value, normalize


@dataclass(frozen=True)
class Abacus:
    ctx: GroupContext
    levels: tuple[int, ...]

    def level(self, runner: int) -> int:
        return self.levels[runner - 1]


def runner_of(ctx: GroupContext, value: int) -> int:
    r = value % ctx.N
    if r == 0:
        raise ZeroResidue(f"no abacus entry at multiples of N: {value}")
    return r


def level_of(ctx: GroupContext, value: int) -> int:
    return (value - runner_of(ctx, value)) // ctx.N


def make_abacus(ctx: GroupContext, levels) -> Abacus:
    levels = tuple(int(x) for x in levels)
    if len(levels) != 2 * ctx.n:
        raise BalanceViolation(f"need {2 * ctx.n} runner levels")
    for i in range(1, 2 * ctx.n + 1):
        if levels[i - 1] + levels[ctx.N - i - 1] != 0:
            raise BalanceViolation(
                f"levels of runners {i} and {ctx.N - i} do not cancel"
            )
    a = Abacus(ctx, levels)
    if ctx.fork_at_zero and not is_even(a):
        raise ParityViolation("abacus is not even")
    return a


def identity_abacus(ctx: GroupContext) -> Abacus:
    return Abacus(ctx, (0,) * (2 * ctx.n))


def from_permutation(w: MirroredPermutation) -> Abacus:
    ctx = w.ctx
    levels = [0] * (2 * ctx.n)
    for e in w.window:
        levels[runner_of(ctx, e) - 1] = level_of(ctx, e)
    return Abacus(ctx, tuple(levels))


def to_permutation(a: Abacus) -> MirroredPermutation:
    ctx = a.ctx
    if ctx.fork_at_zero and not is_even(a):
        raise ParityViolation("abacus is not even")
    entries = [a.levels[r - 1] * ctx.N + r for r in range(1, 2 * ctx.n + 1)]
    return normalize(MirroredPermutation(ctx, tuple(entries)))


def bead_at(a: Abacus, value: int) -> bool:
    return level_of(a.ctx, value) <= a.level(runner_of(a.ctx, value))


def first_gap(a: Abacus) -> int:
    """Label of the earliest gap in reading order."""
    ctx = a.ctx
    return min((a.level(r) + 1) * ctx.N + r for r in range(1, 2 * ctx.n + 1))


def last_bead(a: Abacus) -> int:
    ctx = a.ctx
    return max(a.level(r) * ctx.N + r for r in range(1, 2 * ctx.n + 1))


def is_even(a: Abacus) -> bool:
    """Parity of the number of gaps before position N in reading order."""
    return sum(abs(a.level(r)) for r in range(1, a.ctx.n + 1)) % 2 == 0


@lru_cache(maxsize=1024)
def generator_moves(ctx: GroupContext, g: int) -> tuple[tuple[int, int, int], ...]:
    """(runner, shift, new runner) for the at most four runners s_g moves: the
    lowest bead at level l goes to level l + shift on the new runner."""
    images = ((r, *divmod(generator_value(ctx, g, r), ctx.N)) for r in range(1, ctx.N))
    return tuple((r, shift, s) for r, shift, s in images if (shift, s) != (0, r))


def move_levels(levels: tuple[int, ...], moves) -> tuple[int, ...]:
    """The level vector after the moves of one generator."""
    out = list(levels)
    for r, shift, s in moves:
        out[s - 1] = levels[r - 1] + shift
    return tuple(out)


def size_change(n: int, levels: tuple[int, ...], moves) -> int:
    """Core size after the moves minus before, from the moved runners' terms
    n*l^2 + r*l: negative for a descent, 0 when the element is fixed."""
    total = 0
    for r, m, s in moves:  # n(l+m)^2 + s(l+m) - n*l^2 - r*l, expanded
        total += m * (n * (2 * levels[r - 1] + m) + s) + (s - r) * levels[r - 1]
    return total


def apply_generator_abacus(a: Abacus, g: int) -> Abacus:
    """The generator action: s_g permutes runners wholesale, with a level
    shift at the affine end, so only the moved runners are rewritten."""
    return Abacus(a.ctx, move_levels(a.levels, generator_moves(a.ctx, g)))


def abacus_from_word(ctx: GroupContext, letters) -> Abacus:
    """The abacus of a word: its letters act on the identity right to left."""
    n, tables = ctx.n, [generator_moves(ctx, g) for g in ctx.generators()]
    levels = identity_abacus(ctx).levels
    for r in reversed(list(letters)):
        if not 0 <= r <= n:
            raise UnknownGenerator(f"no generator s{r} at rank {n}")
        levels = move_levels(levels, tables[r])
    return Abacus(ctx, levels)


def enumerate_abaci(ctx: GroupContext, max_len: int) -> list[list[Abacus]]:
    """Abaci by length up to max_len: layer k+1 is the set of ascents of
    layer k, so a layer needs no check against the earlier ones."""
    n, tables = ctx.n, [generator_moves(ctx, g) for g in ctx.generators()]
    layers = [[identity_abacus(ctx).levels]]
    for _ in range(max_len):
        top = layers[-1]
        ups = (move_levels(x, m) for x in top for m in tables if size_change(n, x, m) > 0)
        layers.append(list(dict.fromkeys(ups)))  # distinct, in order of discovery
    return [[Abacus(ctx, x) for x in layer] for layer in layers]


# --- Bruhat order --------------------------------------------------------
#
# Containment of the core diagrams is not the Bruhat order here: in the
# families with a fork at s_n, two cores can satisfy lambda >= mu box by
# box while the underlying elements are incomparable, because partial rows
# inside an escalator sit on definite fork branches that must match up.
# (Smallest case: mu = (3,3,2) inside lambda = (5,4,2,2,1) at n = 3 with
# the fork at s_3; the elements have lengths 5 and 6 but are unrelated.)
# So the order is computed by descent induction: x <= w iff
# min(x, s_g x) <= s_g w for any descent g of w, grounded at the identity.

def descent_chain(a: Abacus) -> list[tuple[tuple[int, ...], tuple]]:
    """The (levels, moves) steps of a's first descents, down to the identity."""
    tables = [generator_moves(a.ctx, g) for g in a.ctx.generators()]
    chain, x = [], a.levels
    while any(x):
        moves = next((m for m in tables if size_change(a.ctx.n, x, m) < 0), None)
        if moves is None:
            raise NotACore(f"levels {x} have no descent")
        chain.append((x, moves))
        x = move_levels(x, moves)
    return chain


def chain_contains(chain, b: Abacus) -> bool:
    """b moves down along a descent chain where it can: below iff it meets it."""
    y = b.levels
    for x, moves in chain:
        if x == y:
            return True
        if size_change(b.ctx.n, y, moves) < 0:
            y = move_levels(y, moves)
    return not any(y)


def bruhat_leq(x: Abacus, w: Abacus) -> bool:
    """x <= w in Bruhat order, by walking x down w's descent chain."""
    return chain_contains(descent_chain(w), x)
