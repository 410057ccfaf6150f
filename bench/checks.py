"""Checkers that share no code with coxabacus.

Everything here is written from the definitions in the paper: Bott's
formula for the length generating function, the generator action on
mirrored Z-permutations by their values, hook lengths of symmetric cores,
and the balance, residue and sorting conditions on base windows.  A family
is named by its short alias (CC, BB, BD, DD) and a rank n.
"""

from __future__ import annotations


def fork_at_zero(family: str) -> bool:
    return family in ("BB", "DD")


def fork_at_n(family: str) -> bool:
    return family in ("BD", "DD")


def is_even_family(family: str) -> bool:
    return fork_at_zero(family)


# --- Bott's series ---------------------------------------------------------

def bott_exponents(family: str, n: int) -> list[int]:
    """Exponents of the finite Weyl group W in W~/W."""
    if family == "DD":
        return [2 * i - 1 for i in range(1, n)] + [n - 1]
    return [2 * i - 1 for i in range(1, n + 1)]


def bott_series(family: str, n: int, max_len: int) -> list[int]:
    """Number of elements of each length 0..max_len: the coefficients of
    prod 1/(1 - q^e) over the exponents, times (1 + q^n) for B~/D."""
    coeffs = [1] + [0] * max_len
    for e in bott_exponents(family, n):
        for k in range(e, max_len + 1):
            coeffs[k] += coeffs[k - e]
    if family == "BD":
        coeffs = [coeffs[k] + (coeffs[k - n] if k >= n else 0) for k in range(max_len + 1)]
    return coeffs


# --- generator action on window values --------------------------------------

def _swaps(family: str, n: int, g: int) -> list[tuple[int, int]]:
    """Value pairs that s_g interchanges, modulo N = 2n+1, mirrored pairs
    included.  s_i (0 < i < n) swaps i and i+1; s_0 swaps 1 and -1, or on a
    fork 1 with -2 and 2 with -1; s_n swaps n and n+1, or on a fork n-1
    with n+1 and n with n+2."""
    if 0 < g < n:
        return [(g, g + 1), (-g, -g - 1)]
    if g == 0:
        return [(1, -2), (2, -1)] if fork_at_zero(family) else [(1, -1)]
    if g == n:
        return [(n - 1, n + 1), (n, n + 2)] if fork_at_n(family) else [(n, n + 1)]
    raise ValueError(f"no generator s{g} at rank {n}")


def generator_image(family: str, n: int, g: int, v: int) -> int:
    """s_g(v) for the mirrored permutation s_g of Z."""
    N = 2 * n + 1
    for a, b in _swaps(family, n, g):
        if (v - a) % N == 0:
            return v - a + b
        if (v - b) % N == 0:
            return v - b + a
    return v


def act(family: str, n: int, g: int, entries) -> frozenset[int]:
    """Window entries of s_g w from those of w (left action on values)."""
    return frozenset(generator_image(family, n, g, v) for v in entries)


def identity_entries(n: int) -> frozenset[int]:
    return frozenset(range(1, 2 * n + 1))


def word_entries(family: str, n: int, letters) -> frozenset[int]:
    """Window entries of s_{a1} ... s_{ak}, letters applied right to left."""
    entries = identity_entries(n)
    for g in reversed(list(letters)):
        entries = act(family, n, g, entries)
    return entries


def entries_from_point(n: int, point) -> frozenset[int]:
    """Window entries of the root point: runner r < N carries its lowest
    bead at level c_r for r <= n and -c_{N-r} beyond."""
    N = 2 * n + 1
    levels = list(point) + [-c for c in reversed(point)]
    return frozenset(levels[r - 1] * N + r for r in range(1, 2 * n + 1))


def point_from_entries(n: int, entries) -> tuple[int, ...]:
    N = 2 * n + 1
    levels = {e % N: (e - e % N) // N for e in entries}
    return tuple(levels[r] for r in range(1, n + 1))


# --- models ------------------------------------------------------------------

def window_problems(family: str, n: int, window) -> list[str]:
    """Broken balance, residue or sorting conditions of a base window."""
    N = 2 * n + 1
    out = []
    if len(window) != 2 * n:
        return [f"window has {len(window)} entries, not {2 * n}"]
    residues = [v % N for v in window]
    if 0 in residues or len(set(residues)) != 2 * n:
        out.append("residues are not 1..2n once each")
    if any(window[i - 1] + window[N - i - 1] != N for i in range(1, 2 * n + 1)):
        out.append("w(i) + w(N-i) != N")
    if any(window[i] >= window[i + 1] for i in range(n - 1)):
        out.append("w(1..n) not increasing")
    last = window[n + 1] if fork_at_n(family) else window[n]
    if window[n - 1] >= last:
        out.append("window is not minimal at s_n")
    return out


def levels_problems(n: int, levels, point) -> list[str]:
    N = 2 * n + 1
    out = []
    if len(levels) != 2 * n:
        return [f"levels has {len(levels)} entries, not {2 * n}"]
    if any(levels[r - 1] + levels[N - r - 1] != 0 for r in range(1, 2 * n + 1)):
        out.append("levels are not balanced")
    if tuple(levels[:n]) != tuple(point):
        out.append(f"levels {levels[:n]} do not start with the point {point}")
    return out


def conjugate(rows) -> list[int]:
    """Column lengths of a partition given by weakly decreasing rows."""
    cols, i = [], len(rows)
    for j in range(rows[0] if rows else 0):
        while rows[i - 1] <= j:
            i -= 1
        cols.append(i)
    return cols


def core_problems(family: str, n: int, rows) -> list[str]:
    """A core must be a partition equal to its transpose with no hook
    length divisible by 2n; in B~/B and D~/D its main diagonal holds an
    even number of boxes.  A partition is a p-core exactly when its set of
    first-column hook lengths B has b - p in B for every b >= p in B."""
    rows = list(rows)
    if any(r <= 0 for r in rows) or any(a < b for a, b in zip(rows, rows[1:])):
        return ["not a partition"]
    if rows != conjugate(rows):
        return ["not symmetric"]
    p = 2 * n
    beta = {r - i + len(rows) for i, r in enumerate(rows, start=1)}
    if any(b >= p and b - p not in beta for b in beta):
        return [f"not a {p}-core"]
    if is_even_family(family) and sum(1 for i, r in enumerate(rows) if r > i) % 2:
        return ["odd main diagonal"]
    return []


def core_levels(n: int, rows) -> list[int]:
    """Abacus levels of a symmetric core, read off its boundary path.

    The north step ending row i lies on diagonal u = rows[i] - i and is a
    bead.  Steps are labelled outward from the centre of the path, where the
    main diagonal meets it, by the integers that are not multiples of N:
    u = 0, 1, ... take N+1, N+2, ... and u = -1, -2, ... take N-1, N-2, ...
    Runner r's level is that of its last bead."""
    N, p = 2 * n + 1, 2 * n
    levels = {}
    for i in range(1, len(rows) + p + 1):
        u = (rows[i - 1] if i <= len(rows) else 0) - i
        if u >= 0:
            label = N + (u // p) * N + u % p + 1
        else:
            label = N - (-u - 1) % p - 1 - ((-u - 1) // p) * N
        r = label % N
        levels[r] = max(levels.get(r, label // N), label // N)
    return [levels[r] for r in range(1, 2 * n + 1)]


def parse_ints(text: str) -> list[int]:
    body = text.strip().strip("[]()")
    return [int(t) for t in body.split(",")] if body else []


def parse_bounded_parts(text: str) -> list[int]:
    """Parts of a printed bounded partition such as (3*,2,1)."""
    body = text.strip().strip("()")
    return [int(t.strip().rstrip("*")) for t in body.split(",")] if body else []


def parse_word(text: str) -> list[int]:
    return [int(t[1:]) for t in text.split()]


def render_word(letters) -> str:
    return " ".join(f"s{g}" for g in letters)


def render_tuple(values, brackets="()") -> str:
    return brackets[0] + ",".join(str(v) for v in values) + brackets[1]
