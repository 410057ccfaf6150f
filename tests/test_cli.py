import contextlib
import hashlib
import io
import json
import os
import pathlib
import random
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


def assert_fast_path_agrees(argv):
    """The hand parser declines argv or gives the options argparse gives,
    and it declines every argv that argparse rejects."""
    fast = cli._plain_args(list(argv))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            parsed = vars(cli.build_parser().parse_args(list(argv)))
        except SystemExit:
            parsed = None
    assert fast is None or vars(fast) == parsed


def run(capsys, *argv):
    assert_fast_path_agrees(argv)
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


def test_render_draws_the_asked_diagram_in_the_asked_format(capsys):
    from coxabacus import render

    a = parse_element(make_context(Family.B_OVER_D, 3), "bounded", "(3*,2)")
    beta, lam = cx.bounded_from_abacus(a), cx.from_abacus(a)
    expected = {
        ("abacus", "text"): render.render_abacus_text(a),
        ("abacus", "svg"): render.render_abacus_svg(a),
        ("core", "text"): render.render_core_text(lam),
        ("core", "svg"): render.render_core_svg(lam),
        ("bounded", "text"): render.render_bounded_text(beta),
        ("bounded", "svg"): render.render_bounded_svg(beta),
        ("peel-trace", "text"): render.render_peel_trace(a, "text"),
        ("peel-trace", "svg"): render.render_peel_trace(a, "svg"),
    }
    assert len(set(expected.values())) == len(expected)  # a swap would show
    for (what, fmt), drawing in expected.items():
        code, out, _ = run(capsys, "render", "--family", "BD", "--rank", "3", "--from", "bounded",
                           "--render", what, "--format", fmt, "(3*,2)")
        assert (code, out) == (0, drawing + "\n")


def test_max_len_zero_gives_the_identity_alone(capsys):
    code, out, _ = run(capsys, "enumerate", "--family", "CC", "--rank", "2", "--max-len", "0")
    assert code == 0
    assert [json.loads(line)["bounded"] for line in out.splitlines()] == ["()"]
    code, out, _ = run(capsys, "poset", "--family", "CC", "--rank", "2", "--max-len", "0")
    assert (code, out) == (0, 'digraph bruhat {\n  n0 [label="()"];\n}\n')


def test_usage_error_exits_one(capsys):
    argv = ["convert", "--family", "CC", "--rank", "3", "--from", "window"]
    assert_fast_path_agrees(argv)
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 1


def test_unknown_family_exits_one(capsys):
    argv = [
        "convert", "--family", "XX", "--rank", "3",
        "--from", "window", "--to", "core", GOLDEN,
    ]
    assert_fast_path_agrees(argv)
    with pytest.raises(SystemExit) as err:
        main(argv)
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


def test_argparse_fallback_keeps_no_state_between_calls(capsys):
    # no parser is kept between calls: each argv that reaches argparse builds one
    assert cli.build_parser() is not cli.build_parser()
    # "--family=CC" is no plain pair, so every command here reaches argparse
    group = ["--family=CC", "--rank", "3"]
    sequence = [
        ["convert", *group, "--from", "window"],
        ["convert", *group, "--from", "window", "--to", "core", GOLDEN],
        ["render", *group, "--from", "window", "--render", "abacus", "--format", "svg", GOLDEN],
        ["render", *group, "--from", "window", "--render", "abacus", GOLDEN],
        ["enumerate", *group, "--max-len", "3"],
        ["convert", *group, "--from", "window", "--to", "core", "[2,1,3,4,6,5]"],
    ]

    assert all(cli._plain_args(argv) is None for argv in sequence)

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

    first = outcomes()
    assert outcomes() == first
    assert [code for code, _, _ in first] == [1, 0, 0, 0, 0, 2]
    assert first[2][1].startswith("<svg") and not first[3][1].startswith("<svg")


def test_plain_commands_never_build_the_parser(capsys, monkeypatch):
    def refuse():
        raise AssertionError("a plain command reached argparse")

    monkeypatch.setattr(cli, "build_parser", refuse)
    group = ["--family", "CC", "--rank", "3"]
    codes = [main(argv) for argv in (
        ["convert", *group, "--from", "window", "--to", "core", GOLDEN],
        ["enumerate", *group, "--max-len", "3"],
        ["poset", *group, "--max-len", "3"],
        ["render", *group, "--from", "window", "--render", "abacus", GOLDEN],
        ["render", *group, "--format", "svg", "--render", "core", "--from", "window", GOLDEN],
        ["convert", *group, "--from", "window", "--to", "core", "[2,1,3,4,6,5]"],
    )]
    assert codes == [0, 0, 0, 0, 0, 2]


# each flag's good values, then bad ones: bad choices, non-integers and
# numbers that start with "-", which argparse takes when they match its
# negative-number pattern; the good integers may start with a space or "+"
FLAG_VALUES = {
    "--family": (("CC", "B~/D"), ("XX", "cc", "")),
    "--rank": (("3", "4", " 3", "+3"), ("-3", "-3_0", "x", "3.0")),
    "--from": (("window", "levels"), ("hook",)),
    "--to": (("core", "word"), ("Core",)),
    "--render": (("abacus", "peel-trace"), ("trace",)),
    "--format": (("text", "svg"), ("png",)),
    "--max-len": (("3", "0"), ("-1", "two")),
}
VALUES = (("s1 s0", "", "(5,5,4,2,1)", GOLDEN), ("-1", "-s1"))
STRAYS = (["-h"], ["--help"], ["--"], ["-"], ["x"], ["--max-len", "3"], ["--to", "core"])
FLAWS = (
    "command", "dropped", "repeated", "abbreviated", "joined", "bare", "bad",
    "stray", "unvalued", "moved", "dashed",
)


@st.composite
def argvs(draw):
    """A command's plain argv, its flags in any order, with up to two flaws:
    a command that does not exist, a flag left out, repeated, abbreviated,
    joined to its value by "=", bare or given a bad value, a stray token
    or pair, or the value missing, elsewhere or starting with "-"."""
    pick = st.sampled_from
    flaws = {kind: draw(st.integers(0, 5)) for kind in draw(st.lists(pick(FLAWS), max_size=2))}
    command = "bogus" if "command" in flaws else draw(pick(list(cli.COMMANDS)))
    _, flags, takes_value, _ = cli.COMMANDS.get(command, cli.COMMANDS["render"])
    pairs = []
    for i, (flag, *_) in enumerate(flags):
        good, bad = FLAG_VALUES[flag]
        value = draw(pick(bad if flaws.get("bad") == i else good))
        pair = [flag, value]
        if flaws.get("abbreviated") == i:
            pair = [flag[: draw(st.integers(3, len(flag) - 1))], value]
        elif flaws.get("joined") == i:
            pair = [f"{flag}={value}"]
        elif flaws.get("bare") == i:
            pair = [flag]
        copies = 0 if flaws.get("dropped") == i else 2 if flaws.get("repeated") == i else 1
        pairs += [pair] * copies
    tokens = [command, *(t for pair in draw(st.permutations(pairs)) for t in pair)]
    if takes_value and "unvalued" not in flaws:
        at = draw(st.integers(1, len(tokens))) if "moved" in flaws else len(tokens)
        tokens.insert(at, draw(pick(VALUES["dashed" in flaws])))
    if "stray" in flaws:
        at = draw(st.integers(1, len(tokens)))
        tokens[at:at] = draw(pick(STRAYS))
    return tokens


@settings(max_examples=600, deadline=None)
@given(argvs())
def test_fast_path_declines_or_agrees_with_argparse(argv):
    assert_fast_path_agrees(argv)


def test_rank_too_small_exits_two(capsys):
    code, _, err = run(
        capsys, "enumerate", "--family", "DD", "--rank", "3", "--max-len", "2",
    )
    assert code == 2
    assert "rank" in err


def test_family_aliases_are_the_values_and_the_two_letter_names():
    # the benchmark and the --family choices read this mapping
    assert cli.FAMILY_ALIASES == {
        "C~/C": Family.C_OVER_C, "CC": Family.C_OVER_C,
        "B~/B": Family.B_OVER_B, "BB": Family.B_OVER_B,
        "B~/D": Family.B_OVER_D, "BD": Family.B_OVER_D,
        "D~/D": Family.D_OVER_D, "DD": Family.D_OVER_D,
    }


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


def _letters_by_digits(text):
    """The letters of a word text read by int() alone, with no name table."""
    try:
        return [int(t.removeprefix("s")) for t in cx.context.tokens(text)]
    except ValueError:
        raise UnknownGenerator(f"not a word in s0, s1, ...: {text!r}") from None


def _outcome(read, text):
    try:
        return read(text)
    except CoxabacusError as exc:
        return type(exc), str(exc)


# every word text that the tests of this module send, and letters past s9
WORD_TEXTS = (
    "s9", "s-1", "s0 s4", "s", "ss1 s0", "s1 sss0", "s1,,s0", "s1 s0,", ",s1", ",", "",
    "s1,s0", "s1, s0", "[s1 s0]", "(s1 s0)", " [s1, s0] ", "[s1 s0", "s1 s0)", "[s1 s0)",
    "s1 [s0]", "1_0", "\u0663", "-1", "-s1", "s1 s0", "s10 s11 s0", "s12,s9,s100", "s01 1 s1",
    "S1", "s1.0", "s+1", "s 1", "s1*",
)


@pytest.mark.parametrize("text", WORD_TEXTS)
def test_letters_by_name_read_as_by_digits(text):
    # the same letters, or the same error class and text, as int() alone gives
    assert _outcome(cli._letters, text) == _outcome(_letters_by_digits, text)


def test_words_past_s9_convert_through_the_digits(capsys):
    argv = ("convert", "--family", "CC", "--rank", "12", "--from", "word", "--to", "word")
    down = " ".join(f"s{g}" for g in range(12, -1, -1))  # s12 ... s1 s0
    up = " ".join(f"s{g}" for g in range(1, 13))
    assert run(capsys, *argv, f"{down} {up} s0") == (0, f"s0 {down}\n", "")
    assert run(capsys, *argv, "s13 s0") == (
        2, "", "error: UnknownGenerator: no generator s13 at rank 12\n")


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


@pytest.mark.parametrize("word", ["s1,,s0", "s1 s0,", ",s1", ","])
def test_words_reject_empty_fields(capsys, word):
    code, out, err = run(
        capsys, "convert", "--family", "CC", "--rank", "3",
        "--from", "word", "--to", "word", word,
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: MalformedText: empty field between commas")


@pytest.mark.parametrize("word, canonical", [("", ""), ("s1,s0", "s1 s0"), ("s1, s0", "s1 s0")])
def test_words_keep_commas_and_the_empty_word(capsys, word, canonical):
    code, out, _ = run(
        capsys, "convert", "--family", "CC", "--rank", "3",
        "--from", "word", "--to", "word", word,
    )
    assert (code, out) == (0, canonical + "\n")


@pytest.mark.parametrize("wrapped", ["[s1 s0]", "(s1 s0)", " [s1, s0] "])
def test_words_may_be_wrapped_in_one_bracket_pair(capsys, wrapped):
    argv = ("convert", "--family", "CC", "--rank", "3", "--from", "word", "--to", "bounded")
    assert run(capsys, *argv, wrapped) == run(capsys, *argv, "s1 s0") == (0, "(2)\n", "")


@pytest.mark.parametrize("word", ["[s1 s0", "s1 s0)", "[s1 s0)", "s1 [s0]"])
def test_words_with_a_stray_bracket_exit_2(capsys, word):
    code, out, err = run(
        capsys, "convert", "--family", "CC", "--rank", "3",
        "--from", "word", "--to", "bounded", word,
    )
    assert (code, out) == (2, "")
    assert err == f"error: MalformedText: unbalanced brackets: {word!r}\n"


@pytest.mark.parametrize("spaced", ["(5 5 4 2 1)", "5 5 4 2 1", "[5, 5 4,2 1]"])
def test_bounded_values_split_on_spaces_like_every_value(capsys, spaced):
    argv = ("convert", "--family", "CC", "--rank", "3", "--from", "bounded", "--to", "root")
    assert run(capsys, *argv, spaced) == run(capsys, *argv, "(5,5,4,2,1)") == (0, "(1,2,-2)\n", "")


@pytest.mark.parametrize(
    "text, err",
    [("(5,,5)", "MalformedText: empty field between commas: '(5,,5)'"),
     ("(5,5,)", "MalformedText: empty field between commas: '(5,5,)'"),
     ("((3,2", "MalformedText: unbalanced brackets: '((3,2'"),
     (")3,2(", "MalformedText: unbalanced brackets: ')3,2('"),
     ("(3 *,2)", "MalformedBounded: part '' is not an integer")],
)
def test_bounded_value_errors_name_their_class(capsys, text, err):
    argv = ("convert", "--family", "BD", "--rank", "3", "--from", "bounded", "--to", "window")
    assert run(capsys, *argv, text) == (2, "", f"error: {err}\n")


@pytest.mark.parametrize(
    "rep, text, error",
    [("window", "[a]", MalformedText), ("root", "(x)", MalformedText),
     ("bounded", "(a)", MalformedBounded)],
)
def test_non_integer_tokens_raise_typed_errors(rep, text, error):
    with pytest.raises(error):
        parse_element(make_context(Family.C_OVER_C, 3), rep, text)


@pytest.mark.parametrize("text", ["1_0", "٣"])
@pytest.mark.parametrize(
    "read",
    [cli._ints, cli._letters, lambda text: cx.parse_bounded(make_context(Family.C_OVER_C, 3), text)],
    ids=["ints", "letters", "bounded"],
)
def test_underscores_and_non_ascii_digits_are_malformed(read, text):
    """int() reads "1_0" as 10 and "٣" as 3; the tokenizer refuses both."""
    with pytest.raises(MalformedText) as err:
        read(text)
    assert str(err.value) == f"non-ASCII character or underscore: {text!r}"


def test_convert_does_not_read_an_underscore_as_a_separator(capsys):
    argv = ("convert", "--family", "CC", "--rank", "3", "--from", "root", "--to", "window")
    err = "error: MalformedText: non-ASCII character or underscore: '(1_0,0,0)'\n"
    assert run(capsys, *argv, "(1_0,0,0)") == (2, "", err)


# a fresh interpreter, isolated and without site, with the library last on
# sys.path, where an installed package sits; it runs one command and prints
# its exit code and the unwanted modules (argv[2], space-separated) it loaded
ONE_COMMAND = """
import sys
sys.path.append(sys.argv[1])
from coxabacus import cli
try:
    code = cli.main(sys.argv[3:])
except SystemExit as exc:
    code = exc.code
print(code, *(m for m in sys.argv[2].split() if m in sys.modules))
"""
ENGINE_ONLY = "enum functools collections types argparse json coxabacus.oracle coxabacus.render"


@pytest.mark.parametrize(
    "argv, unwanted",
    [
        (["convert", "--family", "CC", "--rank", "3", "--from", "word", "--to", "bounded", "s1 s0"],
         ENGINE_ONLY),
        # cli writes the word itself: only the render command loads the drawings
        (["convert", "--family", "CC", "--rank", "3", "--from", "word", "--to", "word", "s1 s0"],
         ENGINE_ONLY),
        # a core and a bounded partition are read straight onto the level vector
        (["convert", "--family", "CC", "--rank", "3", "--from", "core", "--to", "word", "(2,1)"],
         ENGINE_ONLY),
        (["convert", "--family", "CC", "--rank", "3", "--from", "bounded", "--to", "word", "(2)"],
         ENGINE_ONLY),
        (["poset", "--family", "BD", "--rank", "3", "--max-len", "5"], ENGINE_ONLY),
        # json writes enumerate's records, and itself loads enum, functools, collections and types
        (["enumerate", "--family", "DD", "--rank", "4", "--max-len", "6"],
         "argparse coxabacus.oracle coxabacus.render"),
        # argparse prints the help, and itself loads enum, functools, collections and types
        (["--help"], "json coxabacus.oracle dataclasses inspect"),
    ],
    ids=["convert", "convert-word", "convert-core", "convert-bounded", "poset", "enumerate", "help"],
)
def test_a_plain_command_loads_only_the_engine(argv, unwanted):
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", ONE_COMMAND, src, unwanted, *argv],
                          capture_output=True, text=True, timeout=60, check=True)
    lines = proc.stdout.splitlines()
    assert lines[-1] == "0" and len(lines) > 1
    if argv[0] == "convert":
        assert lines == [{"bounded": "(2)", "word": "s1 s0"}[argv[-2]], "0"]


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


HUGE = ("--family", "CC", "--rank", "3", "--from", "root")


@pytest.mark.parametrize(
    "argv, view",
    [(("convert", *HUGE, "--to", target), target) for target in ("core", "bounded", "word")]
    + [(("render", *HUGE, "--render", what), f"{what} drawing")
       for what in ("abacus", "core", "bounded", "peel-trace")],
)
def test_views_past_the_size_limit_are_refused_before_they_are_built(capsys, argv, view):
    # 6 * 10^8 - 5 rows, 10^8 parts and more letters: each count is read off
    # the levels, none is built, so no MemoryError, and the answer comes at once
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "(100000000,0,0)")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == f"error: BadRequest: the {view} passes the size limit of 1000000\n"


def test_a_huge_core_exits_2_at_once_without_a_memory_cap():
    src = str(pathlib.Path(cx.__file__).parents[1])
    argv = ["convert", *HUGE, "--to", "core", "(100000000,0,0)"]
    proc = subprocess.run([sys.executable, "-m", "coxabacus.cli", *argv], capture_output=True,
                          text=True, timeout=30, env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: BadRequest: the core passes the size limit of 1000000\n"


@pytest.mark.parametrize("family, n", [(Family.C_OVER_C, 2), (Family.B_OVER_B, 3),
                                       (Family.B_OVER_D, 3), (Family.D_OVER_D, 4)])
def test_each_size_is_counted_exactly(family, n, monkeypatch, capsys):
    # a view or drawing passes at a limit equal to its size and is refused
    # one below it: the rows of a core, parts of a bounded partition, letters
    # of a word, cells of a drawing, and a peel trace's frames times its first
    from coxabacus import render

    ctx, rng = make_context(family, n), random.Random(n)
    points = [tuple(2 * rng.randint(-2, 2) for _ in range(n)) for _ in range(12)]
    for point in [(0,) * n, (1, 1) + (0,) * (n - 2), *points]:
        a = cx.from_coordinates(cx.RootPoint(ctx, point))
        lam, beta = cx.from_abacus(a), cx.bounded_from_abacus(a)
        letters, boxes = len(cx.word_from_filling(beta)), sum(lam.rows)
        assert render.render_core_text(lam).count("[") == boxes
        assert render.render_peel_trace(a).count("[") <= (letters + 1) * boxes
        sizes = {("convert", "--to", "core"): len(lam.rows),
                 ("convert", "--to", "bounded"): len(beta.parts),
                 ("convert", "--to", "word"): letters,
                 ("render", "--render", "abacus"): sum(map(len, render._abacus_grid(a))),
                 ("render", "--render", "core"): boxes,
                 ("render", "--render", "bounded"): render.render_bounded_text(beta).count("["),
                 ("render", "--render", "peel-trace"): (letters + 1) * boxes}
        for (command, flag, view), size in sizes.items():
            argv = [command, "--family", family.value, "--rank", str(n), "--from", "levels",
                    flag, view, f"({','.join(map(str, a.levels))})"]
            for limit, code in ((size, 0), (size - 1, 2)):
                monkeypatch.setattr(cli, "SIZE_LIMIT", limit)
                assert main(argv) == code, (point, view, limit)
                assert "size limit" in capsys.readouterr().err or code == 0


def test_a_short_word_at_a_huge_rank_is_not_refused(capsys):
    # 2n letters a part or 2n rows a level would pass the limit from rank
    # 500,000 on; the counts themselves are 1 and 2
    for target, word, answer in (("word", "s0", "s0"), ("core", "s0", "(1)"),
                                 ("word", "s1 s0 s2", "s1 s0")):
        code, out, _ = run(capsys, "convert", "--family", "CC", "--rank", "600000",
                           "--from", "word", "--to", target, word)
        assert (code, out) == (0, answer + "\n")


def test_core_source_validates_once(capsys, monkeypatch):
    calls = []
    abacus_of = core.abacus_of
    monkeypatch.setattr(core, "abacus_of", lambda lam: calls.append(lam) or abacus_of(lam))
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


@pytest.mark.parametrize(
    "family, n, max_len",
    [("CC", 2, 15), ("BB", 3, 11), ("BD", 3, 10), ("DD", 4, 8), ("CC", 8, 8),
     ("CC", 3, 16), ("BD", 4, 12)],
)
def test_poset_covers_are_the_adjacent_layer_pairs(family, n, max_len):
    # the oracle is the pair loop: bruhat_leq on every pair of adjacent layers
    ctx = make_context(cli.FAMILY_ALIASES[family], n)
    layers = [[cx.Abacus(ctx, x) for _, x in layer]
              for layer in cli._layers(ctx, cli.ascent_walk(ctx, max_len))]
    elements = [a.levels for layer in layers for a in layer]
    pairs = [
        (x.levels, w.levels)
        for lower, upper in zip(layers, layers[1:])
        for x in lower
        for w in upper
        if cx.bruhat_leq(x, w)
    ]
    dot = poset_dot(ctx, max_len)
    edges = [(int(x), int(w)) for x, w in re.findall(r"n(\d+) -> n(\d+);", dot)]
    assert edges == sorted(edges)
    assert [(elements[x], elements[w]) for x, w in edges] == pairs


# sha256 of stdout for the benchmark's poset and enumerate commands, each at
# its benchmark --max-len, for the CI's two large posets (B~/B n=4 reaches
# levels past 10) and for a B~/D enumerate with starred labels at depth: any
# change to the walk, the window order, the covers or the labels must leave
# these bytes
PINNED_OUTPUTS = [
    ("poset", "CC", 2, 15, "92a8ab5068bb6ed421fcd8e8b33f6c64fbd1a3976906616309746208e8da9614"),
    ("enumerate", "CC", 2, 16, "3b4a3f4a1e6b833a4b08781b50575d3f834a556181a011c6b1fa64b3bfc6a912"),
    ("poset", "BB", 3, 11, "a85bdb83539955e43ae40f02c4da2b9362646193721bbfdd291c26604aa3b860"),
    ("enumerate", "BB", 3, 13, "6f480e55019dff620f31f94d8449ce098af2a035072d57b14426b5267ae8a527"),
    ("poset", "BD", 3, 10, "ce8dae4a7d14d094ed2cbf0415b0e4ae9c14225b7dd3021c3539b71cb0ae4239"),
    ("enumerate", "BD", 3, 12, "4c5ac47f14c2fc3c4bea28feab89e720f8cf5ec0d7e02db42bbf61963a2ec405"),
    ("poset", "DD", 4, 8, "a6207e3caf653d231a3cc561bb08f0c755e7bb2e364d127ffaa3037ba44c0093"),
    ("enumerate", "DD", 4, 11, "697854ef9f9b543b653186319be24de508c025159f467d78d980df46ba260075"),
    ("poset", "CC", 8, 8, "e1c6028747657711b288e7085478275d1aebe96f709df88eb2dd7b311e8dd8f6"),
    ("enumerate", "CC", 8, 10, "c728a128911184aacc3524d93948e6680e18d1c67faf7b6a818a56bf072c74bf"),
    ("poset", "CC", 3, 60, "3d5e33df43d6506b30917613eacac9dd8a46c6239f9a7e7cc3e554a0d4da46b2"),
    ("poset", "BB", 4, 40, "875507039d586775697258221c1c43c96686e3ec4f02aad458c0a93e1a57163d"),
    ("enumerate", "BD", 3, 20, "8da4859cccd9ada369f2d7641b7b26992f965b45b32f9ec64c68c389c6bc3380"),
]


@pytest.mark.parametrize("command, family, n, max_len, digest", PINNED_OUTPUTS)
def test_poset_and_enumerate_outputs_are_pinned(capsys, command, family, n, max_len, digest):
    code, out, err = run(capsys, command, "--family", family, "--rank", str(n),
                         "--max-len", str(max_len))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
