"""The four workloads: their inputs, drawn from a seed, and the checks of
every command's output.

A round is a fixed list of CLI commands that one fresh interpreter runs.
`round_commands` gives the commands of round r with what each check needs;
`Checker.check` returns a list of problems with one command's output.  The
checks use the independent code in checks.py, the library's oracles (BFS
enumeration and the lifting Bruhat test), and round trips through the
library, all outside the timed section.
"""

from __future__ import annotations

import json
import random
import re

import coxabacus as cx
from coxabacus import cli

import checks

# the four families at their smallest rank, plus one wide rank
CASES = (("CC", 2), ("BB", 3), ("BD", 3), ("DD", 4), ("CC", 8))

CONVERT_SOURCES = ("window", "levels", "root", "core", "bounded")
CONVERT_TARGETS = ("window", "levels", "root", "core")
CONVERT_LENGTHS = (10, 100, 1000)  # each drawn within 20 % either side
WORD_LENGTHS = (10, 40, 80)
WORD_OPS = ("to-word", "to-bounded", "from-word")
BFS_REACH = 10  # word elements up to this length are also checked by BFS
# max lengths at which one command took about a second on a 2-core machine
ENUMERATE_MAX = {("CC", 2): 16, ("BB", 3): 13, ("BD", 3): 12, ("DD", 4): 11, ("CC", 8): 10}
POSET_MAX = {("CC", 2): 15, ("BB", 3): 11, ("BD", 3): 10, ("DD", 4): 8, ("CC", 8): 8}


def context(family: str, n: int):
    return cx.make_context(cli.FAMILY_ALIASES[family], n)


def _abacus(ctx, point):
    return cx.from_coordinates(cx.RootPoint(ctx, tuple(point)))


def point_length(ctx, point) -> int:
    return cx.length_from_abacus(_abacus(ctx, point))


def _convert(family, n, source, target, value) -> list[str]:
    return ["convert", "--family", family, "--rank", str(n),
            "--from", source, "--to", target, value]


# --- inputs ------------------------------------------------------------------

def draw_point(rng: random.Random, family: str, n: int, lo: int, hi: int) -> tuple:
    """A root point whose length lies in [lo, hi]: a random direction, even
    in B~/B and D~/D, scaled until its length falls in the band.  A
    direction too long even unscaled makes the next one sparser."""
    ctx = context(family, n)
    support = n
    while True:
        direction = [0] * n
        for i in rng.sample(range(n), rng.randint(1, support)):
            direction[i] = rng.choice((-1, 1)) * rng.randint(1, 3)
        if checks.is_even_family(family) and sum(map(abs, direction)) % 2:
            direction[rng.randrange(n)] += rng.choice((-1, 1))
        target, scale = rng.uniform(lo, hi), 1
        for _ in range(4):
            point = tuple(scale * c for c in direction)
            length = point_length(ctx, point)
            if lo <= length <= hi:
                return point
            if length > hi and scale == 1:
                support = max(1, support - 1)
                break
            if length == 0:
                break
            scale = max(1, round(scale * target / length))


def walk_up(rng: random.Random, family: str, n: int, length: int):
    """A random element of the given length, reached by length-raising left
    multiplications from the identity with the independent window action.
    Returns its window entries and its letters, rightmost first."""
    ctx = context(family, n)
    entries, letters = checks.identity_entries(n), []
    while len(letters) < length:
        gens = list(range(n + 1))
        rng.shuffle(gens)
        for g in gens:
            nxt = checks.act(family, n, g, entries)
            if point_length(ctx, checks.point_from_entries(n, nxt)) == len(letters) + 1:
                entries = nxt
                letters.append(g)
                break
        else:
            raise RuntimeError("no length-raising generator")
    return entries, letters


def _text(ctx, point, rep: str) -> str:
    """The point written in one representation, through the library."""
    a = _abacus(ctx, point)
    if rep == "root":
        return checks.render_tuple(point)
    if rep == "levels":
        return checks.render_tuple(a.levels)
    if rep == "window":
        return checks.render_tuple(cx.to_permutation(a).window, "[]")
    if rep == "core":
        return checks.render_tuple(cx.from_abacus(a).rows)
    if rep == "bounded":
        return str(cx.bounded_from_abacus(a))
    raise ValueError(rep)


def round_commands(workload: str, seed: int, r: int) -> list[tuple[list[str], dict]]:
    """The commands of round r, each with what its check needs."""
    rng = random.Random(f"{workload}/{seed}/{r}")
    out = []
    if workload == "convert":
        for family, n in CASES:
            ctx = context(family, n)
            for length in CONVERT_LENGTHS:
                band = (round(0.8 * length), round(1.2 * length))
                for source in CONVERT_SOURCES:
                    for target in CONVERT_TARGETS:
                        point = draw_point(rng, family, n, *band)
                        argv = _convert(family, n, source, target, _text(ctx, point, source))
                        out.append((argv, {"point": point}))
    elif workload == "word":
        # one command per case and length; the operation turns with the round
        for i, (family, n) in enumerate(CASES):
            for j, length in enumerate(WORD_LENGTHS):
                op = WORD_OPS[(r + i + j) % len(WORD_OPS)]
                entries, letters = walk_up(rng, family, n, length)
                point = checks.point_from_entries(n, entries)
                if op == "from-word":
                    word = checks.render_word(reversed(letters))
                    argv = _convert(family, n, "word", "root", word)
                else:
                    target = op.split("-")[1]
                    argv = _convert(family, n, "root", target, checks.render_tuple(point))
                out.append((argv, {"point": point, "length": length}))
    elif workload in ("enumerate", "poset"):
        limits = ENUMERATE_MAX if workload == "enumerate" else POSET_MAX
        for family, n in CASES:
            argv = [workload, "--family", family, "--rank", str(n),
                    "--max-len", str(limits[(family, n)])]
            out.append((argv, {}))
        rng.shuffle(out)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


# --- checks ------------------------------------------------------------------

def _flag(argv, name):
    return argv[argv.index(name) + 1]


class Checker:
    """Checks outputs of one workload; builds its oracles once per run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.bfs = {}  # (family, n) -> {window entries: BFS distance}
        self.posets = {}  # (family, n) -> (node labels, edges by label)
        if workload == "word":
            for family, n in CASES:
                table = cx.enumerate_quotient(context(family, n), BFS_REACH)
                self.bfs[(family, n)] = {frozenset(w): d for w, d in table.lengths.items()}
        if workload == "poset":
            for family, n in CASES:
                self.posets[(family, n)] = self._expected_poset(family, n)

    def check(self, argv, expect, code, stdout) -> list[str]:
        if code != 0:
            return [f"exit code {code}" if isinstance(code, int) else str(code)]
        family, n = _flag(argv, "--family"), int(_flag(argv, "--rank"))
        text = stdout.strip()
        try:
            if self.workload in ("convert", "word"):
                return self._check_convert(family, n, _flag(argv, "--to"), text, expect)
            if self.workload == "enumerate":
                return self._check_enumerate(family, n, int(_flag(argv, "--max-len")), text)
            return self._check_poset(family, n, text)
        except (ValueError, KeyError, IndexError, cx.CoxabacusError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]

    # convert and word: the output stands for the drawn point
    def _check_convert(self, family, n, target, text, expect) -> list[str]:
        ctx = context(family, n)
        point = tuple(expect["point"])
        problems = []
        claims = {"walk": expect["length"]} if "length" in expect else {}
        if target == "window":
            window = checks.parse_ints(text)
            problems += checks.window_problems(family, n, window)
            got = checks.point_from_entries(n, window)
        elif target == "levels":
            levels = checks.parse_ints(text)
            problems += checks.levels_problems(n, levels, point)
            got = tuple(levels[:n])
        elif target == "root":
            got = tuple(checks.parse_ints(text))
        elif target == "core":
            rows = checks.parse_ints(text)
            problems += checks.core_problems(family, n, rows)
            if problems:
                return problems
            got = tuple(checks.core_levels(n, rows)[:n])
        elif target == "word":
            letters = checks.parse_word(text)
            got = checks.point_from_entries(n, checks.word_entries(family, n, letters))
            claims["letters"] = len(letters)
        elif target == "bounded":
            got = cx.coordinates(cx.abacus_from_bounded(cx.parse_bounded(ctx, text))).coords
            claims["bounded parts"] = sum(checks.parse_bounded_parts(text))
        else:
            return [f"unexpected target {target}"]
        if got != point:
            problems.append(f"output stands for {got}, not {point}")
        if claims:
            problems += self._length_problems(family, n, point, claims)
        return problems

    def _length_problems(self, family, n, point, claims) -> list[str]:
        """The claimed lengths, the paper's three length formulas, the size
        of the bounded partition and, within reach, the BFS distance must
        all agree."""
        ctx = context(family, n)
        a = _abacus(ctx, point)
        lam = cx.from_abacus(a)
        lengths = {
            **claims,
            "length_from_abacus": cx.length_from_abacus(a),
            "length_from_core": cx.length_from_core(lam),
            "length_from_rimwalk": cx.length_from_rimwalk(lam),
            "bounded_from_abacus": sum(cx.bounded_from_abacus(a).parts),
        }
        bfs = self.bfs.get((family, n), {}).get(checks.entries_from_point(n, point))
        if bfs is not None:
            lengths["bfs"] = bfs
        return [] if len(set(lengths.values())) == 1 else [f"lengths disagree: {lengths}"]

    def _check_enumerate(self, family, n, max_len, text) -> list[str]:
        records = [json.loads(line) for line in text.splitlines()]
        problems = []
        counts = [0] * (max_len + 1)
        seen = set()
        for rec in records:
            window, word = rec["window"], rec["word"]
            counts[rec["length"]] += 1
            seen.add(tuple(window))
            bad = (
                checks.window_problems(family, n, window)
                + checks.levels_problems(n, rec["levels"], rec["root"])
                + checks.core_problems(family, n, rec["core"])
            )
            if (rec["family"], rec["rank"]) != (context(family, n).family.value, n):
                bad.append("wrong family or rank")
            if not rec["length"] == len(word) == sum(checks.parse_bounded_parts(rec["bounded"])):
                bad.append("length, word length and bounded size differ")
            if checks.word_entries(family, n, word) != frozenset(window):
                bad.append("word does not rebuild the window")
            if checks.entries_from_point(n, rec["root"]) != frozenset(window):
                bad.append("root point does not match the window")
            if not bad and checks.core_levels(n, rec["core"]) != rec["levels"]:
                bad.append("core does not match the levels")
            problems += [f"{window}: {b}" for b in bad]
        if len(seen) != len(records):
            problems.append("repeated elements")
        bott = checks.bott_series(family, n, max_len)
        if counts != bott:
            problems.append(f"counts per length {counts}, Bott's series {bott}")
        return problems

    @staticmethod
    def _expected_poset(family, n):
        """Labels and covering edges by the BFS table and the lifting oracle,
        which shares no code with core.contains."""
        table = cx.enumerate_quotient(context(family, n), POSET_MAX[(family, n)])
        label = {w.window: str(cx.bounded_from_abacus(cx.from_permutation(w)))
                 for w in table.elements()}
        edges = set()
        for lower, upper in zip(table.by_length, table.by_length[1:]):
            for x in lower:
                for w in upper:
                    if cx.bruhat_leq_lifting(table, x, w):
                        edges.add((label[x.window], label[w.window]))
        return set(label.values()), edges

    def _check_poset(self, family, n, text) -> list[str]:
        labels, edges = {}, set()
        for line in text.splitlines()[1:-1]:
            node = re.fullmatch(r'\s*(\w+) \[label="(.*)"\];', line)
            edge = re.fullmatch(r"\s*(\w+) -> (\w+);", line)
            if node:
                labels[node.group(1)] = node.group(2)
            elif edge:
                edges.add(edge.groups())
            else:
                return [f"unreadable line {line!r}"]
        by_label = {(labels[x], labels[w]) for x, w in edges}
        want_labels, want_edges = self.posets[(family, n)]
        bott = sum(checks.bott_series(family, n, POSET_MAX[(family, n)]))
        problems = []
        if len(labels) != bott:
            problems.append(f"{len(labels)} nodes, Bott's series sums to {bott}")
        if set(labels.values()) != want_labels:
            problems.append("node labels differ from the bounded partitions of the BFS table")
        if by_label != want_edges:
            problems.append(
                f"{len(by_label - want_edges)} edges not covering relations, "
                f"{len(want_edges - by_label)} covering relations missing"
            )
        targets = {w for _, w in edges}
        if any(node not in targets and lab != "()" for node, lab in labels.items()):
            problems.append("an element of positive length has no incoming edge")
        return problems
