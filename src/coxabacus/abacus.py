"""Balanced flush abacus diagrams on 2n runners, and the two linear views
of their level vector: mirrored permutations and root lattice points.

The abacus is stored as a level vector: levels[r-1] is the level of the
lowest bead on runner r, so position mN+r holds a bead iff m <= levels[r-1].
Balance means the levels of mirrored runners r and N-r cancel.  The level
vector is the working state: the generator action, the walk of a word, the
ascent walk and Bruhat order all run on it.

A mirrored permutation w is a bijection of Z with w(k+N) = w(k)+N and
w(-k) = -w(k); it is determined by the window [w(1),...,w(2n)], whose
entries are level * N + runner.  Elements of the quotient are represented
by the unique window satisfying the family's sorting condition, which
minimal_window finds from any ordering.  A root point is the levels of the
first n runners; the generator action on it is an integral (affine)
reflection action on Z^n, written out by hand in `oracle.reflect`.
"""

from operator import add

from .context import GroupContext, Record, integers
from .errors import BadRequest, BalanceViolation, NotACore, ParityViolation, ResidueClash
from .errors import UnknownGenerator, ZeroResidue


class Abacus(Record):
    __slots__ = ("ctx", "levels")

    def __init__(self, ctx: GroupContext, levels: tuple[int, ...]):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "levels", levels)


def runner_of(ctx: GroupContext, value: int) -> int:
    r = value % ctx.N
    if r == 0:
        raise ZeroResidue(f"no abacus entry at multiples of N: {value}")
    return r


def make_abacus(ctx: GroupContext, levels) -> Abacus:
    levels = integers(levels)
    if len(levels) != 2 * ctx.n:
        raise BalanceViolation(f"need {2 * ctx.n} runner levels")
    for i in range(1, ctx.n + 1):  # each pair (i, N-i) once
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


def is_even(a: Abacus) -> bool:
    """Parity of the number of gaps before position N in reading order."""
    return sum(map(abs, a.levels[: a.ctx.n])) % 2 == 0


class MirroredPermutation(Record):
    __slots__ = ("ctx", "window")

    def __init__(self, ctx: GroupContext, window: tuple[int, ...]):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "window", window)


def from_base_window(ctx: GroupContext, entries) -> MirroredPermutation:
    entries = integers(entries)
    N = ctx.N
    if len(entries) != 2 * ctx.n:
        raise ResidueClash(f"window must have {2 * ctx.n} entries")
    seen = {}
    for e in entries:
        r = e % N
        if r == 0:
            raise ZeroResidue(f"entry {e} is divisible by N={N}")
        if r in seen:
            raise ResidueClash(f"entries {seen[r]} and {e} agree mod N={N}")
        seen[r] = e
    for i in range(1, ctx.n + 1):  # each pair (i, N-i) once
        if entries[i - 1] + entries[N - i - 1] != N:
            raise BalanceViolation(
                f"w({i}) + w({N - i}) = {entries[i - 1] + entries[N - i - 1]} != {N}"
            )
    return MirroredPermutation(ctx, entries)


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


def from_permutation(w: MirroredPermutation) -> Abacus:
    ctx = w.ctx
    levels = [0] * (2 * ctx.n)
    for e in w.window:
        levels[runner_of(ctx, e) - 1] = e // ctx.N
    return Abacus(ctx, tuple(levels))


def to_permutation(a: Abacus) -> MirroredPermutation:
    ctx = a.ctx
    if ctx.fork_at_zero and not is_even(a):
        raise ParityViolation("abacus is not even")
    return MirroredPermutation(ctx, window_of(ctx, a.levels))


def window_of(ctx: GroupContext, levels) -> tuple[int, ...]:
    """The minimal window of the level vector, whose window entries are level * N + runner."""
    return minimal_window(ctx, map(add, map(ctx.N.__mul__, levels), range(1, ctx.N)))


class RootPoint(Record):
    __slots__ = ("ctx", "coords")

    def __init__(self, ctx: GroupContext, coords: tuple[int, ...]):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "coords", coords)


def coordinates(a: Abacus) -> RootPoint:
    return RootPoint(a.ctx, tuple(a.levels[: a.ctx.n]))


def from_coordinates(pt: RootPoint) -> Abacus:
    ctx, coords = pt.ctx, integers(pt.coords)
    if len(coords) != ctx.n:
        raise BalanceViolation(f"need {ctx.n} coordinates")
    return make_abacus(ctx, coords + tuple(-c for c in reversed(coords)))


def generator_moves(ctx: GroupContext, g: int) -> tuple[tuple[int, int, int], ...]:
    """(runner, shift, new runner) for the at most four runners s_g moves: the
    lowest bead at level l goes to level l + shift on the new runner.  s_g
    swaps runners g and g+1 for 0 < g < n.  s_0 moves runner 2n to runner 1
    one level up, or at a fork runners 2n-1 and 2n to 2 and 1; s_n swaps
    runners n and n+1, or at a fork n-1 and n with n+1 and n+2.  Each move
    (r, m, s) comes with its mirror (N-r, -m, N-s), as w(-v) = -w(v).  The
    first move carries its bead up, mN + s > r: see rise."""
    n, N = ctx.n, ctx.N
    if 0 < g < n:
        return (g, 0, g + 1), (N - g, 0, N - g - 1), (g + 1, 0, g), (N - g - 1, 0, N - g)
    if g == 0:
        if ctx.fork_at_zero:
            return (N - 1, 1, 2), (1, -1, N - 2), (N - 2, 1, 1), (2, -1, N - 1)
        return (N - 1, 1, 1), (1, -1, N - 1)
    if g == n:
        if ctx.fork_at_n:
            return (n - 1, 0, n + 1), (n + 2, 0, n), (n, 0, n + 2), (n + 1, 0, n - 1)
        return (n, 0, n + 1), (n + 1, 0, n)
    raise UnknownGenerator(f"no generator s{g} at rank {n}")


def move_levels(levels: tuple[int, ...], moves) -> tuple[int, ...]:
    """The level vector after the moves of one generator."""
    out = list(levels)
    for r, shift, s in moves:
        out[s - 1] = levels[r - 1] + shift
    return tuple(out)


def rise(levels: tuple[int, ...], moves) -> int:
    """The level the first move's bead reaches on its new runner s, less the
    level of s: positive iff s_g is an ascent (its core grows), negative iff
    a descent, 0 iff s_g fixes the coset."""
    r, m, s = moves[0]
    return levels[r - 1] + m - levels[s - 1]


def apply_generator_abacus(a: Abacus, g: int) -> Abacus:
    """The generator action: s_g permutes runners wholesale, with a level
    shift at the affine end, so only the moved runners are rewritten."""
    (g,) = integers((g,))
    return Abacus(a.ctx, move_levels(a.levels, generator_moves(a.ctx, g)))


def abacus_from_word(ctx: GroupContext, letters) -> Abacus:
    """The abacus of a word: its letters act on the identity right to left."""
    n, tables = ctx.n, [generator_moves(ctx, g) for g in ctx.generators()]
    levels = identity_abacus(ctx).levels
    for r in reversed(integers(letters)):
        if not 0 <= r <= n:
            raise UnknownGenerator(f"no generator s{r} at rank {n}")
        levels = move_levels(levels, tables[r])
    return Abacus(ctx, levels)


def ascent_walk(ctx: GroupContext, max_len: int) -> list[dict]:
    """Level vectors by length up to max_len, each mapped to the first
    (x, moves of s_g) it was found from, the identity to None: layer k+1
    holds the ascents of layer k, so it needs no check against the earlier
    layers, and w = s_g x lies above x, so g is a descent of w."""
    (max_len,) = integers((max_len,))
    if max_len < 0:
        raise BadRequest("--max-len must be nonnegative")
    tables = [generator_moves(ctx, g) for g in ctx.generators()]
    layers = [{identity_abacus(ctx).levels: None}]
    for _ in range(max_len):
        ups = {}  # in order of discovery
        for x in layers[-1]:
            for m in tables:
                if rise(x, m) > 0:
                    ups.setdefault(move_levels(x, m), (x, m))
        layers.append(ups)
    return layers


# --- Bruhat order --------------------------------------------------------
#
# Containment of the core diagrams is not the Bruhat order here: in the
# families with a fork at s_0 (B~/B) or at s_n (B~/D, D~/D), two cores can
# satisfy lambda >= mu box by box while the elements are incomparable.  At
# n = 3, (6,3,2,1,1,1) inside (7,4,4,4,1,1,1) in B~/B and (3,3,2) inside
# (5,4,2,2,1) in B~/D are cores of lengths 5 and 6 yet unrelated.
# So the order is computed by descent induction (Property Z): x <= w iff
# min(x, s_g x) <= s_g w for any descent g of w, grounded at the identity.
# One layer at a time, the same rule gives the covers: see lower_covers.

def first_descent(levels: tuple[int, ...], tables) -> tuple:
    """The moves of the first generator in tables that lowers the core, if any."""
    for moves in tables:
        if rise(levels, moves) < 0:
            return moves
    raise NotACore(f"levels {levels} have no descent")


def bruhat_leq(x: Abacus, w: Abacus) -> bool:
    """x <= w in Bruhat order, by one lockstep walk: w steps down by its
    first descent, x takes the same step when it is a descent of x too, and
    x <= w iff the two walks meet."""
    if x.ctx != w.ctx:
        x_in, w_in = (f"{a.ctx.family.value} at rank {a.ctx.n}" for a in (x, w))
        raise BadRequest(f"x is in {x_in}, w in {w_in}")
    tables = [generator_moves(w.ctx, g) for g in w.ctx.generators()]
    y, v = x.levels, w.levels
    while v != y and any(v):
        moves = first_descent(v, tables)
        v = move_levels(v, moves)
        if rise(y, moves) < 0:
            y = move_levels(y, moves)
    return v == y


def lower_covers(layers: list[dict]) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """Bruhat lower covers by level vector, from the steps of the ascent
    walk, in its order: w = s_g x covers x, and s_g y for each cover y of x
    of which g is an ascent.  The identity covers nothing and has no entry."""
    covers = {}
    for layer in layers[1:]:
        for w, (x, moves) in layer.items():
            ups = (move_levels(y, moves) for y in covers.get(x, ()) if rise(y, moves) > 0)
            covers[w] = [x, *ups]
    return covers
