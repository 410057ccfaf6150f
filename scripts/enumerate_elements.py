#!/usr/bin/env python3
"""Print every element of a quotient up to a given length, one line per
element, with all six representations side by side."""

import argparse

from coxabacus import (
    bounded_from_abacus,
    coordinates,
    from_abacus,
    make_context,
    to_permutation,
    word_from_filling,
)
from coxabacus.abacus import enumerate_abaci
from coxabacus.cli import FAMILY_ALIASES
from coxabacus.render import render_word


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--family", default="C~/C", choices=sorted(FAMILY_ALIASES))
    ap.add_argument("--rank", type=int, default=3)
    ap.add_argument("--max-len", type=int, default=6)
    args = ap.parse_args()

    ctx = make_context(FAMILY_ALIASES[args.family], args.rank)
    print(f"# {ctx.family.value} rank {ctx.n}, lengths 0..{args.max_len}")
    for length, layer in enumerate(enumerate_abaci(ctx, args.max_len)):
        for window, a in sorted((to_permutation(a).window, a) for a in layer):
            beta = bounded_from_abacus(a)
            word = render_word(word_from_filling(beta)) or "e"
            print(
                f"l={length:2d}  window={list(window)}  "
                f"levels={list(a.levels)}  root={list(coordinates(a).coords)}  "
                f"core={list(from_abacus(a).rows)}  bounded={beta}  word={word}"
            )


if __name__ == "__main__":
    main()
