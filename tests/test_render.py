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


def test_core_text_plain():
    out = render_core_text(golden_core(), residues=False)
    assert set(out) <= set("[]#\n")


def test_bounded_text_star():
    beta = cx.make_bounded(BD3, (3, 2), star=0)
    out = render_bounded_text(beta)
    assert out.splitlines()[0].endswith("*")


def test_svg_outputs_well_formed():
    a = cx.to_abacus(golden_core())
    for out in (
        render_abacus_svg(a),
        render_core_svg(golden_core()),
        render_bounded_svg(cx.bounded_partition(golden_core())),
    ):
        assert out.startswith("<svg")
        assert out.rstrip().endswith("</svg>")


def test_peel_trace_counts_steps():
    lam = cx.make_core(C3, (2, 1))
    letters, _ = cx.central_peel(lam)
    trace = render_peel_trace(lam)
    assert trace.count("step ") == len(letters) + 1
    assert "identity" in trace


def _assert_trace_is_the_peel(lam):
    """The trace's letters are central peeling's, and frame k draws the
    core of the word's suffix from letter k on."""
    letters, _ = central_peel(lam)
    trace = render_peel_trace(lam)
    assert re.findall(r"^step \d+: remove residue (\d+)$", trace, re.M) == list(map(str, letters))
    frames = trace.split("\nstep ")
    assert len(frames) == len(letters) + 1
    for k, frame in enumerate(frames):
        assert frame.endswith(render.render_core_text(cx.word_to_core(lam.ctx, letters[k:])))


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
        render_peel_trace(golden_core(), "pdf")
