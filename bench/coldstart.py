"""One cold start as a CLI user pays it: import coxabacus.cli and build the
group contexts named on the command line, in a fresh interpreter.  Prints
the seconds that took.

    python3 -S bench/coldstart.py SRC_DIR FAMILY RANK [FAMILY RANK ...]

The library goes last on sys.path, where an installed package sits, so the
standard library is not looked up in the checkout first.
"""

import sys
import time

start = time.perf_counter()
del sys.path[0]  # this script's directory
sys.path.append(sys.argv[1])

from coxabacus import cli  # noqa: E402

pairs = sys.argv[2:]
for family, rank in zip(pairs[::2], pairs[1::2]):
    cli.make_context(cli.FAMILY_ALIASES[family], int(rank))
print(time.perf_counter() - start)
