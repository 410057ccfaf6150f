"""Text and SVG renderings of abaci, cores, bounded partitions, and
peeling traces.  Output is deterministic: same input, same bytes."""

from __future__ import annotations

from .abacus import Abacus, bead_at, generator_moves, move_levels
from .bounded import BoundedPartition, bounded_from_abacus, residue_filling, word_from_filling
from .core import CorePartition, abacus_of, from_abacus, residue
from .errors import UnrenderableCombination

EMPTY = "(empty diagram)\n"


def render_word(letters) -> str:
    return " ".join(f"s{r}" for r in letters)


# --- abacus --------------------------------------------------------------

def _abacus_level_range(a: Abacus):
    lo = min(min(a.levels) - 1, -1)
    hi = max(max(a.levels) + 1, 1)
    return lo, hi


def render_abacus_text(a: Abacus) -> str:
    ctx = a.ctx
    lo, hi = _abacus_level_range(a)
    width = max(len(str(m * ctx.N + 2 * ctx.n)) for m in (lo, hi)) + 2
    lines = []
    for m in range(lo, hi + 1):
        cells = []
        for r in range(1, 2 * ctx.n + 1):
            v = m * ctx.N + r
            s = f"({v})" if bead_at(a, v) else f" {v} "
            cells.append(s.rjust(width + 2))
        lines.append("".join(cells))
    return "\n".join(lines) + "\n"


def render_abacus_svg(a: Abacus) -> str:
    ctx = a.ctx
    lo, hi = _abacus_level_range(a)
    cell = 36
    cols, rows = 2 * ctx.n, hi - lo + 1
    out = [_svg_open(cols * cell + 20, rows * cell + 20)]
    for mi, m in enumerate(range(lo, hi + 1)):
        for r in range(1, 2 * ctx.n + 1):
            v = m * ctx.N + r
            cx = 10 + (r - 1) * cell + cell // 2
            cy = 10 + mi * cell + cell // 2
            if bead_at(a, v):
                out.append(
                    f'<circle cx="{cx}" cy="{cy}" r="{cell // 2 - 2}" '
                    'fill="none" stroke="black"/>'
                )
            out.append(
                f'<text x="{cx}" y="{cy + 4}" font-size="11" '
                f'text-anchor="middle">{v}</text>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"


# --- cores ---------------------------------------------------------------

def _residue_text(lam: CorePartition, i: int, j: int) -> str:
    res = residue(lam, i, j)
    if res is None:
        return "."
    if isinstance(res, tuple):
        return "/".join(str(x) for x in res)
    return str(res)


def render_core_text(lam: CorePartition, residues: bool = True) -> str:
    if not lam.rows:
        return EMPTY
    width = 3 if residues else 1
    lines = []
    for i in range(1, len(lam.rows) + 1):
        cells = []
        for j in range(1, lam.rows[i - 1] + 1):
            mark = _residue_text(lam, i, j) if residues else "#"
            cells.append(f"[{mark.center(width)}]")
        lines.append("".join(cells))
    return "\n".join(lines) + "\n"


def render_core_svg(lam: CorePartition, residues: bool = True) -> str:
    if not lam.rows:
        return _svg_placeholder()
    cell = 28
    w = max(lam.rows) * cell + 20
    h = len(lam.rows) * cell + 20
    out = [_svg_open(w, h)]
    for i in range(1, len(lam.rows) + 1):
        for j in range(1, lam.rows[i - 1] + 1):
            x = 10 + (j - 1) * cell
            y = 10 + (i - 1) * cell
            out.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                'fill="none" stroke="black"/>'
            )
            if residues:
                out.append(
                    f'<text x="{x + cell // 2}" y="{y + cell // 2 + 4}" '
                    f'font-size="11" text-anchor="middle">'
                    f"{_residue_text(lam, i, j)}</text>"
                )
    out.append("</svg>")
    return "\n".join(out) + "\n"


# --- bounded partitions --------------------------------------------------

def render_bounded_text(beta: BoundedPartition) -> str:
    if not beta.parts:
        return EMPTY
    grid = residue_filling(beta)
    lines = []
    for i, row in enumerate(grid):
        cells = [f"[{v}]" for v in row]
        if i == beta.star:
            cells.append("*")
        lines.append("".join(cells))
    return "\n".join(lines) + "\n"


def render_bounded_svg(beta: BoundedPartition) -> str:
    if not beta.parts:
        return _svg_placeholder()
    grid = residue_filling(beta)
    cell = 28
    w = beta.parts[0] * cell + 40
    h = len(beta.parts) * cell + 20
    out = [_svg_open(w, h)]
    for i, row in enumerate(grid):
        for j, v in enumerate(row):
            x = 10 + j * cell
            y = 10 + i * cell
            out.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                'fill="none" stroke="black"/>'
            )
            out.append(
                f'<text x="{x + cell // 2}" y="{y + cell // 2 + 4}" '
                f'font-size="11" text-anchor="middle">{v}</text>'
            )
        if i == beta.star:
            x = 10 + len(row) * cell + 6
            y = 10 + i * cell + cell // 2 + 4
            out.append(f'<text x="{x}" y="{y}" font-size="14">*</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


# --- peeling traces ------------------------------------------------------

def render_peel_trace(lam: CorePartition, fmt: str = "text") -> str:
    """One frame per letter of the canonical word, from the full core down
    to empty; the level vector is the state."""
    if fmt not in ("text", "svg"):
        raise UnrenderableCombination(f"unknown format {fmt!r}")
    a = abacus_of(lam)
    letters = word_from_filling(bounded_from_abacus(a))
    frames = []
    cur, levels = lam, a.levels
    draw = render_core_text if fmt == "text" else render_core_svg
    for k, r in enumerate(letters):
        frames.append(f"step {k}: remove residue {r}\n{draw(cur)}")
        levels = move_levels(levels, generator_moves(a.ctx, r))
        cur = from_abacus(Abacus(a.ctx, levels))
    frames.append(f"step {len(letters)}: identity\n{draw(cur)}")
    return "\n".join(frames)


# --- svg plumbing --------------------------------------------------------

def _svg_open(w: int, h: int) -> str:
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">'
    )


def _svg_placeholder() -> str:
    return _svg_open(40, 40) + "\n</svg>\n"
