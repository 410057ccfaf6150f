"""Root lattice coordinates of coset representatives.

The coordinates are the levels of the first n runners of the abacus; the
generator action becomes an integral (affine) reflection action on Z^n,
written out by hand in `oracle.reflect` to check the engine.
"""

from __future__ import annotations

from .abacus import Abacus, make_abacus
from .context import GroupContext, Record, integers
from .errors import BalanceViolation


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
