import hashlib
import re

import pytest

import coxabacus as cx
import coxabacus.render as render
from coxabacus import Family
from coxabacus.errors import UnrenderableCombination
from coxabacus.oracle import central_peel
from coxabacus.render import (
    render_abacus_svg,
    render_abacus_text,
    render_bounded_svg,
    render_bounded_text,
    render_core_svg,
    render_core_text,
    render_peel_trace,
    render_word,
)

C3 = cx.make_context(Family.C_OVER_C, 3)
BD3 = cx.make_context(Family.B_OVER_D, 3)


def golden_core():
    return cx.make_core(C3, (10, 9, 6, 5, 5, 3, 2, 2, 2, 1))


def test_render_word():
    assert render_word([0, 1, 0]) == "s0 s1 s0"
    assert render_word([]) == ""


def test_abacus_text_marks_beads():
    a = cx.from_permutation(cx.identity(C3))
    out = render_abacus_text(a)
    assert "(1)" in out and "(6)" in out
    assert "(8)" not in out  # first gap of the identity


def test_abacus_text_deterministic():
    a = cx.to_abacus(golden_core())
    assert render_abacus_text(a) == render_abacus_text(a)


def test_core_text_residues():
    out = render_core_text(golden_core())
    lines = out.splitlines()
    assert len(lines) == 10
    assert lines[0].startswith("[ 0 ][ 1 ][ 2 ]")
    assert render_core_text(cx.make_core(C3, ())) == "(empty diagram)\n"


def test_bounded_text_star():
    beta = cx.make_bounded(BD3, (3, 2), star=0)
    out = render_bounded_text(beta)
    assert out.splitlines()[0].endswith("*")


def test_svg_outputs_well_formed():
    a = cx.to_abacus(golden_core())
    for out in (
        render_abacus_svg(a),
        render_core_svg(golden_core()),
        render_bounded_svg(cx.bounded_from_abacus(a)),
    ):
        assert out.startswith("<svg")
        assert out.rstrip().endswith("</svg>")


def test_peel_trace_counts_steps():
    lam = cx.make_core(C3, (2, 1))
    letters, _ = cx.central_peel(lam)
    trace = render_peel_trace(cx.to_abacus(lam))
    assert trace.count("step ") == len(letters) + 1
    assert "identity" in trace


def _assert_trace_is_the_peel(lam):
    """The trace's letters are central peeling's, and frame k draws the
    core of the word's suffix from letter k on."""
    letters, _ = central_peel(lam)
    trace = render_peel_trace(cx.to_abacus(lam))
    assert re.findall(r"^step \d+: remove residue (\d+)$", trace, re.M) == list(map(str, letters))
    frames = trace.split("\nstep ")
    assert len(frames) == len(letters) + 1
    for k, frame in enumerate(frames):
        core = cx.from_abacus(cx.abacus_from_word(lam.ctx, letters[k:]))
        assert frame.endswith(render.render_core_text(core))


def test_peel_trace_frames_are_word_suffixes(tables, monkeypatch):
    _assert_trace_is_the_peel(golden_core())
    for table in tables.values():
        for w in table.elements():
            _assert_trace_is_the_peel(cx.from_abacus(cx.from_permutation(w)))
    # 1437 letters on a core of 416,820 boxes: frames show rows, not cells
    monkeypatch.setattr(render, "render_core_text", lambda lam: f"{lam.rows}\n")
    c2 = cx.make_context(Family.C_OVER_C, 2)
    long_core = cx.from_abacus(cx.from_coordinates(cx.RootPoint(c2, (300, -120))))
    _assert_trace_is_the_peel(long_core)


def test_peel_trace_rejects_unknown_format():
    with pytest.raises(UnrenderableCombination):
        render_peel_trace(cx.to_abacus(golden_core()), "pdf")


# --- golden bytes --------------------------------------------------------
#
# The exact text and the SVG sha256 of each drawing: an abacus with beads
# on both sides of zero, cores whose residues include the undetermined "."
# and the fork pairs "3/4" (D~/D) and "0/1" (B~/B), and a starred bounded
# partition (B~/D).

C3_WINDOW = [-11, -9, -1, 8, 16, 18]

GOLDEN_ELEMENTS = {
    "C~/C 3 window": lambda: cx.from_permutation(cx.from_base_window(C3, C3_WINDOW)),
    "B~/D 3 bounded": lambda: cx.abacus_from_bounded(cx.parse_bounded(BD3, "(3*,2)")),
    "D~/D 4 word": lambda: cx.abacus_from_word(cx.make_context(Family.D_OVER_D, 4), [4, 3, 2, 0]),
    "B~/B 3 word": lambda: cx.abacus_from_word(
        cx.make_context(Family.B_OVER_B, 3), [1, 0, 2, 3, 2, 0]
    ),
}

DRAWERS = {
    "abacus": (render_abacus_text, render_abacus_svg, lambda a: a),
    "core": (render_core_text, render_core_svg, cx.from_abacus),
    "bounded": (render_bounded_text, render_bounded_svg, cx.bounded_from_abacus),
}

GOLDEN_DRAWINGS = {
    ("C~/C 3 window", "abacus"): (
        (
            "  (-20)  (-19)  (-18)  (-17)  (-16)  (-15)",
            "  (-13)  (-12)  (-11)  (-10)   (-9)   (-8)",
            "   (-6)   (-5)    -4    (-3)    -2    (-1)",
            "    (1)    (2)     3     (4)     5      6 ",
            "    (8)    (9)    10    (11)    12     13 ",
            "    15    (16)    17    (18)    19     20 ",
            "    22     23     24     25     26     27 ",
        ),
        "53bb581a4d309e32c422c9df80c6a64d1079a10ad2ce7ee3dfabc1e4951439ba",
    ),
    ("C~/C 3 window", "core"): (
        (
            "[ 0 ][ 1 ][ 2 ][ 3 ][ 2 ][ 1 ][ 0 ][ 1 ][ 2 ][ 3 ]",
            "[ 1 ][ 0 ][ 1 ][ 2 ][ 3 ][ 2 ][ 1 ][ 0 ][ 1 ]",
            "[ 2 ][ 1 ][ 0 ][ 1 ][ 2 ][ 3 ]",
            "[ 3 ][ 2 ][ 1 ][ 0 ][ 1 ]",
            "[ 2 ][ 3 ][ 2 ][ 1 ][ 0 ]",
            "[ 1 ][ 2 ][ 3 ]",
            "[ 0 ][ 1 ]",
            "[ 1 ][ 0 ]",
            "[ 2 ][ 1 ]",
            "[ 3 ]",
        ),
        "38d66551bd8f2fa9c9c9e652980d1381b1a2a6b9d7c708fc48c29f5b29ffdb6c",
    ),
    ("C~/C 3 window", "bounded"): (
        (
            "[0][1][2][3][2]",
            "[0][1][2][3][2]",
            "[0][1][2][3]",
            "[0][1]",
            "[0]",
        ),
        "f650316241eb645167452206c7aa1a747241f5bdc2421785ab19f2154267366a",
    ),
    ("B~/D 3 bounded", "abacus"): (
        (
            " (-13) (-12) (-11) (-10)  (-9)  (-8)",
            "  (-6)  (-5)  (-4)  (-3)  (-2)  (-1)",
            "   (1)   (2)   (3)    4     5    (6)",
            "    8    (9)  (10)   11    12    13 ",
            "   15    16    17    18    19    20 ",
        ),
        "4c579f8a74a5fdbbb890953b505a24240b7e9ebedde6d25770fd2fe0046564ff",
    ),
    ("B~/D 3 bounded", "core"): (
        (
            "[ 0 ][ 1 ][ 2 ]",
            "[ 1 ][ 0 ][ 1 ]",
            "[ 2 ][ 1 ]",
        ),
        "ecea7a992e6ae9f4a8209edf1908b7fc022f736b0186b0a8fbf5d5f44d2a8c2c",
    ),
    ("B~/D 3 bounded", "bounded"): (
        (
            "[0][1][2]*",
            "[0][1]",
        ),
        "5e4de3c9cca66f66655912f50d018350e546f889034d4af1f4ff542a43dd1fd7",
    ),
    ("D~/D 4 word", "abacus"): (
        (
            "  (-17)  (-16)  (-15)  (-14)  (-13)  (-12)  (-11)  (-10)",
            "   (-8)   (-7)   (-6)   (-5)   (-4)   (-3)   (-2)   (-1)",
            "    (1)    (2)     3     (4)    (5)    (6)    (7)     8 ",
            "   (10)    11     12     13     14    (15)    16     17 ",
            "    19     20     21     22     23     24     25     26 ",
        ),
        "d86a327eaff930ebbdadf69660f969578e2e537b66c8f13a0768aa5f9f580a69",
    ),
    ("D~/D 4 word", "core"): (
        (
            "[ 0 ][ 0 ][ 2 ][ . ][ 4 ][3/4]",
            "[ 0 ][ 0 ]",
            "[ 2 ]",
            "[ . ]",
            "[ 4 ]",
            "[3/4]",
        ),
        "5c22df6d2915366480a349c6e0da2c4ecaefb8a020d30baa894f523039328d0a",
    ),
    ("D~/D 4 word", "bounded"): (
        (
            "[0][2][3][4]",
        ),
        "a2262d63b3b12f7ee64be5e9127c119b2af64c71968d6d5cb9b31fddc03a1db4",
    ),
    ("B~/B 3 word", "abacus"): (
        (
            "  (-20)  (-19)  (-18)  (-17)  (-16)  (-15)",
            "  (-13)  (-12)  (-11)  (-10)   (-9)   (-8)",
            "   (-6)   (-5)   (-4)   (-3)    -2    (-1)",
            "    (1)    (2)    (3)    (4)     5     (6)",
            "     8     (9)    10     11     12     13 ",
            "    15    (16)    17     18     19     20 ",
            "    22     23     24     25     26     27 ",
        ),
        "06781a7d8bb34e07bbceb9d087b89469104626474141bf6d0fd88ba6051fe27c",
    ),
    ("B~/B 3 word", "core"): (
        (
            "[ 0 ][ 0 ][ 2 ][ 3 ][ 2 ][ . ][ 0 ][0/1]",
            "[ 0 ][ 0 ][ 1 ]",
            "[ 2 ][ 1 ]",
            "[ 3 ]",
            "[ 2 ]",
            "[ . ]",
            "[ 0 ]",
            "[0/1]",
        ),
        "790ed398d3b86076c002ae14559606698a95adc20ad6a84f88bf59572541d6af",
    ),
    ("B~/B 3 word", "bounded"): (
        (
            "[0][2][3][2][0]",
            "[1]",
        ),
        "97e9b4bca625a7c0ba532207443cc57bbab08614dadfd5f1a4995cd46af08a4d",
    ),
}

# the peel trace of s1 s0 in C~/C n=3: text, then the sha256 of the SVG
GOLDEN_PEEL = (
    (
        "step 0: remove residue 1",
        "[ 0 ][ 1 ]",
        "[ 1 ]",
        "",
        "step 1: remove residue 0",
        "[ 0 ]",
        "",
        "step 2: identity",
        "(empty diagram)",
    ),
    "23fc054a4a93f31ef644965d979f59081343119a81e0dbd423ed50923ec2e9ad",
)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("element, drawing", list(GOLDEN_DRAWINGS))
def test_golden_drawing_bytes(element, drawing):
    lines, svg_sha = GOLDEN_DRAWINGS[element, drawing]
    text, svg, view = DRAWERS[drawing]
    x = view(GOLDEN_ELEMENTS[element]())
    assert text(x) == "\n".join(lines) + "\n"
    assert _sha256(svg(x)) == svg_sha


def test_golden_peel_trace_bytes():
    lines, svg_sha = GOLDEN_PEEL
    a = cx.abacus_from_word(C3, [1, 0])
    assert render_peel_trace(a, "text") == "\n".join(lines) + "\n"
    assert _sha256(render_peel_trace(a, "svg")) == svg_sha
