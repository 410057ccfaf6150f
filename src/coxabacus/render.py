"""Text and SVG renderings of abaci, cores, bounded partitions, and
peeling traces.  Output is deterministic: same input, same bytes."""

from .abacus import Abacus, generator_moves, move_levels
from .core import BoundedPartition, CorePartition, bounded_from_abacus, from_abacus, residue_set
from .core import residue_filling, word_from_filling
from .errors import UnrenderableCombination

EMPTY = "(empty diagram)\n"


# --- abacus --------------------------------------------------------------

def _abacus_grid(a: Abacus) -> list[list[tuple[int, bool]]]:
    """(label, bead) rows for the levels around all runners and -1..1."""
    ctx = a.ctx
    lo, hi = min(min(a.levels) - 1, -1), max(max(a.levels) + 1, 1)
    return [
        [(m * ctx.N + r, m <= a.levels[r - 1]) for r in range(1, 2 * ctx.n + 1)]
        for m in range(lo, hi + 1)
    ]


def render_abacus_text(a: Abacus) -> str:
    grid = _abacus_grid(a)
    width = max(len(str(row[-1][0])) for row in (grid[0], grid[-1])) + 4
    return "".join(
        "".join((f"({v})" if bead else f" {v} ").rjust(width) for v, bead in row) + "\n"
        for row in grid
    )


def render_abacus_svg(a: Abacus) -> str:
    grid = _abacus_grid(a)
    cell = 36
    out = []
    for i, row in enumerate(grid):
        cy = 10 + i * cell + cell // 2
        for j, (v, bead) in enumerate(row):
            cx = 10 + j * cell + cell // 2
            if bead:
                out.append(
                    f'<circle cx="{cx}" cy="{cy}" r="{cell // 2 - 2}" fill="none" stroke="black"/>'
                )
            out.append(_svg_label(cx, cy, v))
    return _svg(len(grid[0]) * cell + 20, len(grid) * cell + 20, out)


# --- cores and bounded partitions: rows of labelled boxes ---------------

def _boxes_text(rows, width: int, star: int | None = None) -> str:
    """One line per row, each label boxed as [label] and centred in
    `width`; row `star` ends in a *."""
    if not rows:
        return EMPTY
    return "".join(
        "".join(f"[{str(v).center(width)}]" for v in row) + ("*" if i == star else "") + "\n"
        for i, row in enumerate(rows)
    )


def _boxes_svg(rows, pad: int, star: int | None = None) -> str:
    """Labelled squares, the picture `pad` wider than the first row; row
    `star` ends in a *."""
    if not rows:
        return _svg(40, 40, [])
    cell = 28
    out = []
    for i, row in enumerate(rows):
        y = 10 + i * cell
        for j, v in enumerate(row):
            x = 10 + j * cell
            out.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                'fill="none" stroke="black"/>'
            )
            out.append(_svg_label(x + cell // 2, y + cell // 2, v))
        if i == star:
            x = 10 + len(row) * cell + 6
            out.append(f'<text x="{x}" y="{y + cell // 2 + 4}" font-size="14">*</text>')
    return _svg(len(rows[0]) * cell + pad, len(rows) * cell + 20, out)


def _residue_rows(lam: CorePartition) -> list[list[str]]:
    """Each cell's residues joined by /, or . when undetermined."""
    return [
        ["/".join(map(str, sorted(residue_set(lam, i, j)))) or "." for j in range(1, r + 1)]
        for i, r in enumerate(lam.rows, start=1)
    ]


def render_core_text(lam: CorePartition) -> str:
    return _boxes_text(_residue_rows(lam), 3)


def render_core_svg(lam: CorePartition) -> str:
    return _boxes_svg(_residue_rows(lam), 20)


def render_bounded_text(beta: BoundedPartition) -> str:
    return _boxes_text(residue_filling(beta), 1, beta.star)


def render_bounded_svg(beta: BoundedPartition) -> str:
    return _boxes_svg(residue_filling(beta), 40, beta.star)


# --- peeling traces ------------------------------------------------------

def render_peel_trace(a: Abacus, fmt: str = "text") -> str:
    """One frame per letter of the canonical word, from the full core down
    to empty, each drawn from the level vector after the letters before it."""
    if fmt not in ("text", "svg"):
        raise UnrenderableCombination(f"unknown format {fmt!r}")
    draw = render_core_text if fmt == "text" else render_core_svg
    letters = word_from_filling(bounded_from_abacus(a))
    tables = [generator_moves(a.ctx, g) for g in a.ctx.generators()]
    frames, x = [], a.levels
    for k, r in enumerate(letters):
        frames.append(f"step {k}: remove residue {r}\n{draw(from_abacus(Abacus(a.ctx, x)))}")
        x = move_levels(x, tables[r])
    frames.append(f"step {len(letters)}: identity\n{draw(from_abacus(Abacus(a.ctx, x)))}")
    return "\n".join(frames)


def _svg(w: int, h: int, body: list[str]) -> str:
    """A w x h picture of the body's elements, one per line."""
    head = f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
    return "\n".join([head + f'viewBox="0 0 {w} {h}">', *body, "</svg>"]) + "\n"


def _svg_label(x: int, y: int, v) -> str:
    return f'<text x="{x}" y="{y + 4}" font-size="11" text-anchor="middle">{v}</text>'
