import json
import os
import pathlib
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coxabacus.cli as cli
import coxabacus.core as core
import coxabacus as cx
from coxabacus import Family, make_context
from coxabacus.cli import REPRESENTATIONS, format_element, main, parse_element, poset_dot
from coxabacus.errors import (
    BadRequest,
    CoxabacusError,
    MalformedBounded,
    MalformedText,
    NotMinimal,
    ParityViolation,
    UnknownGenerator,
)

GOLDEN = "[-11,-9,-1,8,16,18]"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_convert_window_to_core(capsys):
    code, out, _ = run(
        capsys, "convert", "--family", "CC", "--rank", "3",
        "--from", "window", "--to", "core", GOLDEN,
    )
    assert code == 0
    assert out.strip() == "(10,9,6,5,5,3,2,2,2,1)"


def test_convert_every_target(capsys):
    expected = {
        "window": "[-11,-9,-1,8,16,18]",
        "levels": "(1,2,-2,2,-2,-1)",
        "root": "(1,2,-2)",
        "core": "(10,9,6,5,5,3,2,2,2,1)",
        "bounded": "(5,5,4,2,1)",
        "word": "s0 s1 s0 s3 s2 s1 s0 s2 s3 s2 s1 s0 s2 s3 s2 s1 s0",
    }
    for target, text in expected.items():
        code, out, _ = run(
            capsys, "convert", "--family", "C~/C", "--rank", "3",
            "--from", "window", "--to", target, GOLDEN,
        )
        assert code == 0
        assert out.strip() == text


def test_convert_round_trips_through_every_source(capsys):
    reps = {
        "window": GOLDEN,
        "levels": "(1,2,-2,2,-2,-1)",
        "root": "(1,2,-2)",
        "core": "(10,9,6,5,5,3,2,2,2,1)",
        "bounded": "(5,5,4,2,1)",
        "word": "s0 s1 s0 s3 s2 s1 s0 s2 s3 s2 s1 s0 s2 s3 s2 s1 s0",
    }
    for source, text in reps.items():
        code, out, _ = run(
            capsys, "convert", "--family", "CC", "--rank", "3",
            "--from", source, "--to", "window", text,
        )
        assert code == 0
        assert out.strip() == GOLDEN


def test_convert_star_notation(capsys):
    code, out, _ = run(
        capsys, "convert", "--family", "BD", "--rank", "3",
        "--from", "bounded", "--to", "bounded", "(3*,2)",
    )
    assert code == 0
    assert out.strip() == "(3*,2)"


@pytest.mark.parametrize("text", ["(4*,3*)", "(3*,3*)"])
def test_bounded_source_rejects_two_stars(capsys, text):
    code, out, err = run(
        capsys, "convert", "--family", "BD", "--rank", "3",
        "--from", "bounded", "--to", "bounded", text,
    )
    assert code == 2
    assert out == ""
    assert "starred" in err


def test_enumerate_json_lines(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--family", "CC", "--rank", "2", "--max-len", "3",
    )
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert len(records) == 5  # layers 1,1,1,2
    assert records[0]["length"] == 0
    assert records[0]["window"] == [1, 2, 3, 4]
    lengths = [r["length"] for r in records]
    assert lengths == sorted(lengths)
    for r in records:
        assert set(r) == {
            "family", "rank", "length", "window", "levels",
            "root", "core", "bounded", "word",
        }


def test_render_text_abacus(capsys):
    code, out, _ = run(
        capsys, "render", "--family", "CC", "--rank", "3",
        "--from", "window", "--render", "abacus", "--format", "text", GOLDEN,
    )
    assert code == 0
    assert "(8)" in out


def test_render_svg_core(capsys):
    code, out, _ = run(
        capsys, "render", "--family", "CC", "--rank", "3",
        "--from", "window", "--render", "core", "--format", "svg", GOLDEN,
    )
    assert code == 0
    assert out.startswith("<svg")


def test_poset_dot(capsys):
    code, out, _ = run(
        capsys, "poset", "--family", "CC", "--rank", "2", "--max-len", "4",
    )
    assert code == 0
    assert out.startswith("digraph bruhat {")
    assert out.rstrip().endswith("}")
    # 7 elements in a chain-like low order: one edge per covering pair
    assert out.count("->") >= 6


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as err:
        main(["convert", "--family", "CC", "--rank", "3", "--from", "window"])
    assert err.value.code == 1


def test_unknown_family_exits_one(capsys):
    with pytest.raises(SystemExit) as err:
        main([
            "convert", "--family", "XX", "--rank", "3",
            "--from", "window", "--to", "core", GOLDEN,
        ])
    assert err.value.code == 1


def test_domain_error_exits_two(capsys):
    code, out, err = run(
        capsys, "convert", "--family", "CC", "--rank", "3",
        "--from", "window", "--to", "core", "[2,1,3,4,5,6]",
    )
    assert code == 2
    assert err.startswith("error: BalanceViolation: ")
    code, out, err = run(
        capsys, "convert", "--family", "CC", "--rank", "3",
        "--from", "window", "--to", "core", "[2,1,3,4,6,5]",
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: NotMinimal: window is not minimal; minimal: ")
    code, out, err = run(capsys, "enumerate", "--family", "CC", "--rank", "3", "--max-len", "-1")
    assert (code, out, err) == (2, "", "error: BadRequest: --max-len must be nonnegative\n")


def test_unknown_representation_is_a_bad_request():
    ctx = make_context(Family.C_OVER_C, 3)
    with pytest.raises(BadRequest, match="unknown representation 'hook'"):
        parse_element(ctx, "hook", "(1)")
    with pytest.raises(BadRequest, match="unknown representation 'hook'"):
        format_element(parse_element(ctx, "levels", "(0,0,0,0,0,0)"), "hook")


def test_shared_parser_keeps_no_state_between_calls(capsys, monkeypatch):
    cached = cli.build_parser
    assert cached() is cached()
    group = ["--family", "CC", "--rank", "3"]
    sequence = [
        ["convert", *group, "--from", "window"],
        ["convert", *group, "--from", "window", "--to", "core", GOLDEN],
        ["render", *group, "--from", "window", "--render", "abacus", "--format", "svg", GOLDEN],
        ["render", *group, "--from", "window", "--render", "abacus", GOLDEN],
        ["enumerate", *group, "--max-len", "3"],
        ["convert", *group, "--from", "window", "--to", "core", "[2,1,3,4,6,5]"],
    ]

    def outcomes():
        results = []
        for argv in sequence:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    shared = outcomes()
    monkeypatch.setattr(cli, "build_parser", cached.__wrapped__)
    assert cli.build_parser() is not cached()
    assert outcomes() == shared
    assert [code for code, _, _ in shared] == [1, 0, 0, 0, 0, 2]
    assert shared[2][1].startswith("<svg") and not shared[3][1].startswith("<svg")


def test_rank_too_small_exits_two(capsys):
    code, _, err = run(
        capsys, "enumerate", "--family", "DD", "--rank", "3", "--max-len", "2",
    )
    assert code == 2
    assert "rank" in err


def test_window_source_rejects_non_minimal():
    ctx = make_context(Family.C_OVER_C, 3)
    with pytest.raises(NotMinimal):
        parse_element(ctx, "window", "[2,1,3,4,6,5]")


@pytest.mark.parametrize(
    "family, rank, window",
    [(Family.D_OVER_D, 4, "[-1,2,3,4,5,6,7,10]"), (Family.B_OVER_B, 3, "[-1,2,3,4,5,8]")],
)
def test_window_source_checks_parity(family, rank, window):
    with pytest.raises(ParityViolation):
        parse_element(make_context(family, rank), "window", window)


@pytest.mark.parametrize("word", ["s9", "s-1", "s0 s4", "s"])
def test_word_source_rejects_unknown_generator(word):
    with pytest.raises(UnknownGenerator):
        parse_element(make_context(Family.C_OVER_C, 3), "word", word)


@pytest.mark.parametrize("word", ["ss1 s0", "s1 sss0"])
def test_word_source_strips_one_s(capsys, word):
    code, out, err = run(
        capsys, "convert", "--family", "CC", "--rank", "3",
        "--from", "word", "--to", "word", word,
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: UnknownGenerator: ")


@pytest.mark.parametrize(
    "source, text",
    [("levels", "[1,,2,-2,2,-2,-1]"), ("levels", "(1,2,-2,2,-2,-1,)"), ("root", "(,1,2,-2)"),
     ("window", "[-11,-9,-1,8,16,18,]"), ("core", "(10,9,6,5,5,3,2,2,2,1,,)")],
)
def test_integer_lists_reject_empty_fields(capsys, source, text):
    code, out, err = run(
        capsys, "convert", "--family", "CC", "--rank", "3",
        "--from", source, "--to", "levels", text,
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: MalformedText: empty field between commas")


@pytest.mark.parametrize(
    "rep, text, error",
    [("window", "[a]", MalformedText), ("root", "(x)", MalformedText),
     ("bounded", "(a)", MalformedBounded)],
)
def test_non_integer_tokens_raise_typed_errors(rep, text, error):
    with pytest.raises(error):
        parse_element(make_context(Family.C_OVER_C, 3), rep, text)


def test_closed_stdout_exits_quietly():
    # the read end is closed before the child starts, so its first write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    argv = ["poset", "--family", "BD", "--rank", "3", "--max-len", "5"]
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "coxabacus.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 141


@pytest.mark.parametrize(
    "family, source, text",
    [("BD", "bounded", "((3,2"), ("BD", "bounded", ")3,2("), ("BB", "levels", "((1,0,0,0,0,-1"),
     ("CC", "window", "[1,2,3,4,5,6"), ("CC", "core", "]]3,3,3")],
)
def test_unbalanced_brackets_exit_two(capsys, family, source, text):
    code, out, err = run(
        capsys, "convert", "--family", family, "--rank", "3",
        "--from", source, "--to", "window", text,
    )
    assert code == 2
    assert out == ""
    assert "brackets" in err


@pytest.mark.parametrize(
    "family, target, value",
    [("BB", "window", "(4)"), ("CC", "levels", "(1,2,3,4)"), ("CC", "root", "(1,2,3,4)")],
)
def test_root_source_rejects_wrong_coordinate_count(capsys, family, target, value):
    code, out, err = run(
        capsys, "convert", "--family", family, "--rank", "3",
        "--from", "root", "--to", target, value,
    )
    assert code == 2
    assert out == ""
    assert "coordinates" in err


def test_huge_root_point_converts_fast(capsys):
    start = time.perf_counter()
    code, out, _ = run(
        capsys, "convert", "--family", "BD", "--rank", "3",
        "--from", "root", "--to", "window", "(3000000,0,0)",
    )
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert out.strip() == "[-20999994,2,4,3,5,21000001]"


def test_window_past_the_digit_limit_is_a_typed_error(capsys):
    # the levels print, but the window entries are N times as long
    code, out, err = run(
        capsys, "convert", "--family", "CC", "--rank", "3",
        "--from", "root", "--to", "window", "(" + "9" * 4300 + ",0,0)",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: BadRequest: ")
    assert "limit" in err


def test_core_source_validates_once(capsys, monkeypatch):
    calls = []
    validate = core.validate_core
    monkeypatch.setattr(core, "validate_core", lambda lam: calls.append(lam) or validate(lam))
    code, out, _ = run(
        capsys, "convert", "--family", "CC", "--rank", "3",
        "--from", "core", "--to", "window", "(10,9,6,5,5,3,2,2,2,1)",
    )
    assert code == 0 and out.strip() == GOLDEN
    assert len(calls) == 1


def test_poset_edges_are_the_lifting_covers(tables):
    # poset_dot tests adjacent layers only; the lifting oracle sees all pairs
    for (fam, n), table in tables.items():
        ctx = make_context(fam, n)
        dot = poset_dot(ctx, 6)
        label = dict(re.findall(r'(n\d+) \[label="([^"]*)"\];', dot))
        edges = {(label[x], label[w]) for x, w in re.findall(r"(n\d+) -> (n\d+);", dot)}
        elements = [w for w in table.elements() if table.length(w) <= 6]
        name = {
            w.window: str(cx.bounded_from_abacus(cx.from_permutation(w)))
            for w in elements
        }
        assert sorted(label.values()) == sorted(name.values())
        covers = {
            (name[x.window], name[w.window])
            for x in elements
            for w in elements
            if table.length(w) == table.length(x) + 1
            and cx.bruhat_leq_lifting(table, x, w)
        }
        assert edges == covers


# the benchmark's five cases: each family at its smallest rank, and C~/C n=8
FUZZ_CASES = (
    (Family.C_OVER_C, 2),
    (Family.B_OVER_B, 3),
    (Family.B_OVER_D, 3),
    (Family.D_OVER_D, 4),
    (Family.C_OVER_C, 8),
)


# tokens that are not integers: empty, letters, a bare "s", a decimal, a starred letter
NON_INTEGERS = ("", "a", "s", "1.5", "x*")


@st.composite
def element_texts(draw):
    """A case, a representation and a text for it, often not an element:
    tuples for window, levels, root and core, bounded partitions with up
    to two stars, and words with letters just outside 0..n; sometimes
    one token is not an integer at all, and sometimes a stray bracket is
    inserted, which must make the text fail."""
    family, n = draw(st.sampled_from(FUZZ_CASES))
    rep = draw(st.sampled_from(REPRESENTATIONS))
    N = 2 * n + 1
    if rep == "bounded":
        parts = sorted(draw(st.lists(st.integers(1, 2 * n + 1), max_size=2 * n)), reverse=True)
        stars = draw(st.sets(st.integers(0, max(len(parts) - 1, 0)), max_size=2))
        tokens = [f"{p}*" if i in stars else str(p) for i, p in enumerate(parts)]
    elif rep == "word":
        tokens = [f"s{g}" for g in draw(st.lists(st.integers(-1, n + 1), max_size=12))]
    elif draw(st.booleans()):
        tokens = list(map(str, draw(st.lists(st.integers(-N, 2 * N), max_size=2 * n + 2))))
    else:  # the text of a level vector near the identity, maybe nudged
        point = tuple(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)))
        a = cx.Abacus(make_context(family, n), point + tuple(-c for c in reversed(point)))
        entries = list({
            "root": point,
            "levels": a.levels,
            "window": sorted(lvl * N + r for r, lvl in enumerate(a.levels, start=1)),
            "core": cx.from_abacus(a).rows,
        }[rep])
        if entries and draw(st.booleans()):
            entries[draw(st.integers(0, len(entries) - 1))] += draw(st.sampled_from((-1, 1)))
        tokens = list(map(str, entries))
    if draw(st.integers(0, 3)) == 0:
        tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(NON_INTEGERS)))
    text = " ".join(tokens) if rep == "word" else "(" + ",".join(tokens) + ")"
    stray = draw(st.integers(0, 5)) == 0
    if stray:
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.sampled_from("()[]")) + text[i:]
    return make_context(family, n), rep, text, stray


@settings(max_examples=400, deadline=None)
@given(element_texts())
def test_every_parser_round_trips_or_raises(case):
    ctx, rep, text, stray = case
    try:
        a = parse_element(ctx, rep, text)
    except CoxabacusError:
        return
    assert not stray
    assert not (rep == "bounded" and text.count("*") > 1)
    assert cx.from_permutation(cx.to_permutation(a)) == a
    assert parse_element(ctx, rep, format_element(a, rep)) == a
