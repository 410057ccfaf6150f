import pytest

from coxabacus import Family, enumerate_quotient, make_context

# one rank per family, small enough that every exhaustive suite runs in
# seconds; C~/C gets the rank-2 edge case as well
STANDARD_CASES = (
    (Family.C_OVER_C, 2),
    (Family.C_OVER_C, 3),
    (Family.B_OVER_B, 3),
    (Family.B_OVER_D, 3),
    (Family.D_OVER_D, 4),
)


def pytest_make_parametrize_id(config, val, argname):
    """Name a Family parameter `Family.C_OVER_C`, as pytest names an Enum."""
    return str(val) if isinstance(val, Family) else None


@pytest.fixture(scope="session")
def tables():
    """BFS tables up to length 8 for the standard family/rank cases."""
    return {
        (fam, n): enumerate_quotient(make_context(fam, n), 8)
        for fam, n in STANDARD_CASES
    }
