"""Root lattice coordinates of coset representatives.

The coordinates are the levels of the first n runners of the abacus; the
generator action becomes an integral (affine) reflection action on Z^n.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abacus import Abacus
from .context import GroupContext
from .errors import BalanceViolation, ParityViolation, UnknownGenerator


@dataclass(frozen=True)
class RootPoint:
    ctx: GroupContext
    coords: tuple[int, ...]


def coordinates(a: Abacus) -> RootPoint:
    return RootPoint(a.ctx, tuple(a.levels[: a.ctx.n]))


def from_coordinates(pt: RootPoint) -> Abacus:
    ctx = pt.ctx
    if len(pt.coords) != ctx.n:
        raise BalanceViolation(f"need {ctx.n} coordinates")
    if ctx.is_even_family and sum(abs(c) for c in pt.coords) % 2 != 0:
        raise ParityViolation("coordinate sum of absolute values is odd")
    mirror = tuple(-c for c in reversed(pt.coords))
    return Abacus(ctx, pt.coords + mirror)


def reflect(pt: RootPoint, g: int) -> RootPoint:
    ctx = pt.ctx
    n = ctx.n
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
