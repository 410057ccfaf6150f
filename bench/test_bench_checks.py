"""Quick tests of the benchmark's own checkers (no coxabacus import)."""

import checks

# README's worked example in C~/C, rank 3, and its canonical reduced word
WINDOW = [-11, -9, -1, 8, 16, 18]
WORD = [0, 1, 0, 3, 2, 1, 0, 2, 3, 2, 1, 0, 2, 3, 2, 1, 0]
CORE = [10, 9, 6, 5, 5, 3, 2, 2, 2, 1]


def test_bott_series_c3():
    assert checks.bott_series("CC", 3, 12) == [1, 1, 1, 2, 2, 3, 4, 4, 5, 6, 7, 8, 9]


def test_bott_series_forks():
    # D~/D: exponents 1, 3, 5 and n-1 = 3; B~/D: C~/C times (1 + q^n)
    assert checks.bott_series("DD", 4, 6) == [1, 1, 1, 3, 3, 4, 7]
    assert checks.bott_series("BD", 3, 5) == [1, 1, 1, 3, 3, 4]


def test_window_action_rebuilds_readme_example():
    assert checks.word_entries("CC", 3, WORD) == frozenset(WINDOW)
    assert checks.point_from_entries(3, WINDOW) == (1, 2, -2)
    assert checks.entries_from_point(3, (1, 2, -2)) == frozenset(WINDOW)
    assert checks.window_problems("CC", 3, WINDOW) == []


def test_hook_checker_accepts_readme_core():
    assert checks.core_problems("CC", 3, CORE) == []
    assert checks.core_levels(3, CORE) == [1, 2, -2, 2, -2, -1]


def test_hook_checker_rejects_non_core():
    assert checks.core_problems("CC", 2, [3, 3, 3]) == ["not a 4-core"]
    assert checks.core_problems("CC", 3, [3, 1]) == ["not symmetric"]
    assert checks.core_problems("CC", 3, [2, 3]) == ["not a partition"]
