#!/usr/bin/env python3
"""Render the worked examples of each family to SVG files: abacus, core
with residues, and filled bounded partition for one element apiece."""

import argparse
import pathlib

from coxabacus import (
    Family,
    bounded_from_abacus,
    from_abacus,
    from_base_window,
    from_permutation,
    make_context,
)
from coxabacus.render import render_abacus_svg, render_bounded_svg, render_core_svg

EXAMPLES = {
    "c3": (Family.C_OVER_C, 3, [-11, -9, -1, 8, 16, 18]),
    "d5": (Family.D_OVER_D, 5, [-12, -7, -5, 2, 3, 8, 9, 16, 18, 23]),
    "d4": (Family.D_OVER_D, 4, [-14, -11, -10, 3, 6, 19, 20, 23]),
}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="gallery", help="output directory")
    args = ap.parse_args()

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, (fam, n, window) in EXAMPLES.items():
        ctx = make_context(fam, n)
        w = from_base_window(ctx, window)
        a = from_permutation(w)
        (out / f"{name}_abacus.svg").write_text(render_abacus_svg(a))
        (out / f"{name}_core.svg").write_text(render_core_svg(from_abacus(a)))
        (out / f"{name}_bounded.svg").write_text(render_bounded_svg(bounded_from_abacus(a)))
        print(f"{name}: wrote 3 diagrams for window {window}")


if __name__ == "__main__":
    main()
