"""Root lattice coordinates of coset representatives.

The coordinates are the levels of the first n runners of the abacus; the
generator action becomes an integral (affine) reflection action on Z^n,
written out by hand in `oracle.reflect` to check the engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abacus import Abacus, make_abacus
from .context import GroupContext
from .errors import BalanceViolation


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
    return make_abacus(ctx, pt.coords + tuple(-c for c in reversed(pt.coords)))
