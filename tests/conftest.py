from itertools import count

import pytest

from coxabacus import Family, RootPoint, enumerate_quotient, from_coordinates, make_context
from coxabacus import to_permutation
from coxabacus.oracle import length_from_window

# one rank per family, small enough that every exhaustive suite runs in
# seconds; C~/C gets the rank-2 edge case as well
STANDARD_CASES = (
    (Family.C_OVER_C, 2),
    (Family.C_OVER_C, 3),
    (Family.B_OVER_B, 3),
    (Family.B_OVER_D, 3),
    (Family.D_OVER_D, 4),
    (Family.C_OVER_C, 6),
    (Family.C_OVER_C, 8),
    (Family.B_OVER_B, 5),
    (Family.B_OVER_D, 5),
    (Family.D_OVER_D, 6),
)

# the cases of the benchmark's convert workload: each family at its least
# rank, and C~/C at a wide rank
BENCH_CASES = (
    (Family.C_OVER_C, 2),
    (Family.B_OVER_B, 3),
    (Family.B_OVER_D, 3),
    (Family.D_OVER_D, 4),
    (Family.C_OVER_C, 8),
)


def pytest_make_parametrize_id(config, val, argname):
    """Name a Family parameter `Family.C_OVER_C`, as pytest names an Enum."""
    return str(val) if isinstance(val, Family) else None


@pytest.fixture(scope="session")
def tables():
    """BFS tables up to length 14 for the standard family/rank cases."""
    return {
        (fam, n): enumerate_quotient(make_context(fam, n), 14)
        for fam, n in STANDARD_CASES
    }


def long_element(ctx, rng, length):
    """A random element of length in [length, 1.3 length]: a random root
    direction, even in the families with a fork at s_0, scaled up."""
    while True:
        direction = [rng.randint(-3, 3) for _ in range(ctx.n)]
        if ctx.fork_at_zero and sum(map(abs, direction)) % 2:
            direction[0] += 1
        if not any(direction):
            continue
        for scale in count(1):
            a = from_coordinates(RootPoint(ctx, tuple(scale * c for c in direction)))
            reached = length_from_window(to_permutation(a))
            if reached >= length:
                break
        if reached <= 1.3 * length:
            return a
