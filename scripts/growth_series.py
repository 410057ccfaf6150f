#!/usr/bin/env python3
"""Tabulate how many minimal coset representatives each family has at
every length, across all four families at their smallest ranks and one
rank above."""

import argparse

from coxabacus import Family, make_context
from coxabacus.abacus import ascent_walk

CASES = [
    (Family.C_OVER_C, 2), (Family.C_OVER_C, 3),
    (Family.B_OVER_B, 3), (Family.B_OVER_B, 4),
    (Family.B_OVER_D, 3), (Family.B_OVER_D, 4),
    (Family.D_OVER_D, 4), (Family.D_OVER_D, 5),
]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-len", type=int, default=10)
    args = ap.parse_args()

    header = "family  rank  " + "  ".join(f"l={k}" for k in range(args.max_len + 1))
    print(header)
    for fam, n in CASES:
        layers = ascent_walk(make_context(fam, n), args.max_len)
        counts = "  ".join(f"{len(layer):3d}" for layer in layers)
        print(f"{fam.value:6}  {n:4d}  {counts}")


if __name__ == "__main__":
    main()
