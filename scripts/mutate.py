#!/usr/bin/env python3
"""Mutation check: change one spot of a library module at a time, run the
tests on each change in a temporary copy of the checkout, and report the
changes that no test notices.  A change swaps an operator with its partner
(+ and -, < and <=, > and >=, == and !=, // and *) or adds 1 to an integer
constant.  Stdlib only; each mutant costs up to one run of the suite.

    python scripts/mutate.py src/coxabacus/context.py src/coxabacus/cli.py
    python scripts/mutate.py --only lower_covers,ascent_walk src/coxabacus/abacus.py

--only keeps the sites inside the functions of those names, so that a
change can be checked without a run per site of its whole module.
"""

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SWAPS = {ast.Add: ast.Sub, ast.Lt: ast.LtE, ast.Gt: ast.GtE, ast.Eq: ast.NotEq, ast.FloorDiv: ast.Mult}
SWAPS.update({new: old for old, new in list(SWAPS.items())})
RUN = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"]


def sites(tree):
    """Each mutable spot as (node, index into its ops or None), in walk order."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            yield from ((node, i) for i, op in enumerate(node.ops) if type(op) in SWAPS)
        elif type(getattr(node, "op", None)) in SWAPS or type(getattr(node, "value", None)) is int:
            yield node, None


def kept(tree, only):
    """The indices of the sites inside the functions named in only, or of
    all sites when only is None."""
    inside = None if only is None else {
        id(node)
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) and func.name in only
        for node in ast.walk(func)
    }
    return [k for k, (node, _) in enumerate(sites(tree)) if inside is None or id(node) in inside]


def mutant(source, k):
    """The source with site k changed, the site's line and 1-based column,
    and the change, which names the operator's index in a comparison that
    chains more than one."""
    tree = ast.parse(source)
    node, i = list(sites(tree))[k]
    where = node.lineno, node.col_offset + 1
    if isinstance(node, ast.Constant):
        node.value += 1
        return ast.unparse(tree), *where, f"{node.value - 1} -> {node.value}"
    old = node.op if i is None else node.ops[i]
    new = SWAPS[type(old)]()
    change = f"{type(old).__name__} -> {type(new).__name__}"
    if i is None:
        node.op = new
    else:
        node.ops[i] = new
        if len(node.ops) > 1:
            change += f" (operator {i} of the chain)"
    return ast.unparse(tree), *where, change


def passes(work):
    """Whether the tests pass in the copy; a run that outlasts the timeout,
    as a loop that never ends does, fails.  No bytecode is written, since a
    mutant written in the same second as the last could reuse its .pyc."""
    env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        return subprocess.run(RUN, cwd=work, env=env, capture_output=True, timeout=300).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def main():
    ap = argparse.ArgumentParser(description="Report the mutants of library modules that no test notices.")
    ap.add_argument("modules", nargs="+", help="module paths, relative to the checkout")
    ap.add_argument("--only", metavar="NAME[,NAME]", type=lambda text: set(text.split(",")),
                    help="mutate only inside the functions of these names")
    args = ap.parse_args()
    found = {
        node.name for module in args.modules for node in ast.walk(ast.parse((ROOT / module).read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    if args.only and args.only - found:
        sys.exit(f"no function named {', '.join(sorted(args.only - found))} in the modules given")
    killed = total = 0
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        work = Path(tmp)
        shutil.copytree(ROOT, work, dirs_exist_ok=True,
                        ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", "out"))
        for module in args.modules:
            source, target = (ROOT / module).read_text(), work / module
            target.write_text(ast.unparse(ast.parse(source)))
            if not passes(work):
                sys.exit(f"{module}: the tests fail before any mutation")
            for k in kept(ast.parse(source), args.only):
                text, line, col, change = mutant(source, k)
                target.write_text(text)
                total += 1
                if passes(work):
                    print(f"survived {module}:{line}:{col} {change} | {source.splitlines()[line - 1].strip()}")
                else:
                    killed += 1
            target.write_text(source)
    print(f"killed {killed} of {total} mutants ({100 * killed / max(total, 1):.0f} %)")


if __name__ == "__main__":
    main()
