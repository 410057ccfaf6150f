"""Command line interface: conversion between the six representations,
enumeration, rendering, and Bruhat poset export."""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .abacus import Abacus, abacus_from_word, chain_contains, descent_chain, enumerate_abaci
from .abacus import from_permutation, make_abacus, to_permutation
from .bounded import abacus_from_bounded, bounded_from_abacus, parse_bounded, unwrap
from .bounded import word_from_filling
from .context import Family, GroupContext, make_context
from .core import abacus_of, from_abacus, make_core
from .errors import BadRequest, CoxabacusError, MalformedText, NotMinimal, UnknownGenerator
from .render import (
    render_abacus_svg,
    render_abacus_text,
    render_bounded_svg,
    render_bounded_text,
    render_core_svg,
    render_core_text,
    render_peel_trace,
    render_word,
)
from .rootlattice import RootPoint, coordinates, from_coordinates
from .window import from_base_window

REPRESENTATIONS = ("window", "levels", "core", "bounded", "word", "root")

FAMILY_ALIASES = {
    "C~/C": Family.C_OVER_C, "CC": Family.C_OVER_C,
    "B~/B": Family.B_OVER_B, "BB": Family.B_OVER_B,
    "B~/D": Family.B_OVER_D, "BD": Family.B_OVER_D,
    "D~/D": Family.D_OVER_D, "DD": Family.D_OVER_D,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _ints(text: str) -> list[int]:
    fields = unwrap(text, MalformedText).split(",")
    if len(fields) > 1 and not all(f.strip() for f in fields):
        raise MalformedText(f"empty field between commas: {text!r}")
    try:
        return [int(t) for f in fields for t in f.split()]
    except ValueError:
        raise MalformedText(f"not a list of integers: {text!r}") from None


def _letters(text: str) -> list[int]:
    tokens = text.replace(",", " ").split()
    try:
        return [int(t.removeprefix("s")) for t in tokens]
    except ValueError:
        raise UnknownGenerator(f"not a word in s0, s1, ...: {text!r}") from None


def parse_element(ctx: GroupContext, rep: str, value: str) -> Abacus:
    """Read one representation from text into its level vector."""
    if rep == "window":
        w = from_base_window(ctx, _ints(value))
        a = from_permutation(w)
        canonical = to_permutation(a)
        if canonical.window != w.window:
            raise NotMinimal(f"window is not minimal; minimal: {list(canonical.window)}")
        return a
    if rep == "levels":
        return make_abacus(ctx, _ints(value))
    if rep == "root":
        return from_coordinates(RootPoint(ctx, tuple(_ints(value))))
    if rep == "core":
        return abacus_of(make_core(ctx, _ints(value)))
    if rep == "bounded":
        return abacus_from_bounded(parse_bounded(ctx, value))
    if rep == "word":
        return abacus_from_word(ctx, _letters(value))
    raise BadRequest(f"unknown representation {rep!r}")


def format_element(a: Abacus, rep: str) -> str:
    if rep == "window":
        try:  # N times the input's levels: may pass Python's int-to-text limit
            return "[" + ",".join(str(v) for v in to_permutation(a).window) + "]"
        except ValueError as exc:
            raise BadRequest(str(exc)) from None
    if rep == "levels":
        return "(" + ",".join(str(v) for v in a.levels) + ")"
    if rep == "root":
        return "(" + ",".join(str(c) for c in coordinates(a).coords) + ")"
    if rep == "core":
        return "(" + ",".join(str(p) for p in from_abacus(a).rows) + ")"
    if rep == "bounded":
        return str(bounded_from_abacus(a))
    if rep == "word":
        return render_word(word_from_filling(bounded_from_abacus(a)))
    raise BadRequest(f"unknown representation {rep!r}")


def element_record(a: Abacus, window: tuple[int, ...], length: int) -> dict:
    beta = bounded_from_abacus(a)
    return {
        "family": a.ctx.family.value,
        "rank": a.ctx.n,
        "length": length,
        "window": list(window),
        "levels": list(a.levels),
        "root": list(coordinates(a).coords),
        "core": list(from_abacus(a).rows),
        "bounded": str(beta),
        "word": word_from_filling(beta),
    }


def _add_group_flags(p):
    p.add_argument("--family", required=True, choices=sorted(FAMILY_ALIASES))
    p.add_argument("--rank", required=True, type=int)


def _context(args) -> GroupContext:
    return make_context(FAMILY_ALIASES[args.family], args.rank)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on the first call and shared by every
    later one in the process.  It holds no per-call state: `parse_args`
    returns a fresh `Namespace`, and `_Parser.error` and the help and usage
    printers look up `sys.stderr` and `sys.stdout` when they run."""
    top = _Parser(prog="coxabacus")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="convert between representations")
    _add_group_flags(p)
    p.add_argument("--from", dest="source", required=True, choices=REPRESENTATIONS)
    p.add_argument("--to", dest="target", required=True, choices=REPRESENTATIONS)
    p.add_argument("value")

    p = sub.add_parser("enumerate", help="list all elements up to a length")
    _add_group_flags(p)
    p.add_argument("--max-len", required=True, type=int)

    p = sub.add_parser("render", help="draw a diagram")
    _add_group_flags(p)
    p.add_argument("--from", dest="source", required=True, choices=REPRESENTATIONS)
    p.add_argument(
        "--render",
        dest="what",
        required=True,
        choices=("abacus", "core", "bounded", "peel-trace"),
    )
    p.add_argument("--format", default="text", choices=("text", "svg"))
    p.add_argument("value")

    p = sub.add_parser("poset", help="Bruhat order as a DOT digraph")
    _add_group_flags(p)
    p.add_argument("--max-len", required=True, type=int)
    return top


def cmd_convert(args) -> str:
    ctx = _context(args)
    return format_element(parse_element(ctx, args.source, args.value), args.target)


def cmd_enumerate(args) -> str:
    ctx = _context(args)
    lines = []
    for length, layer in enumerate(_layers(ctx, args.max_len)):
        for window, a in layer:
            lines.append(json.dumps(element_record(a, window, length)))
    return "\n".join(lines)


def cmd_render(args) -> str:
    ctx = _context(args)
    a = parse_element(ctx, args.source, args.value)
    if args.what == "abacus":
        return (render_abacus_text if args.format == "text" else render_abacus_svg)(a)
    if args.what == "core":
        return (render_core_text if args.format == "text" else render_core_svg)(from_abacus(a))
    if args.what == "bounded":
        return (
            render_bounded_text if args.format == "text" else render_bounded_svg
        )(bounded_from_abacus(a))
    return render_peel_trace(a, args.format)


def _layers(ctx: GroupContext, max_len: int) -> list[list[tuple]]:
    """The (window, abacus) pairs of each length, sorted by window."""
    if max_len < 0:
        raise BadRequest("--max-len must be nonnegative")
    return [
        sorted(((to_permutation(a).window, a) for a in layer), key=lambda p: p[0])
        for layer in enumerate_abaci(ctx, max_len)
    ]


def poset_dot(ctx: GroupContext, max_len: int) -> str:
    """Covers join adjacent length layers, so only those pairs are tested,
    each upper element along its descent chain, built once."""
    layers = [[a for _, a in layer] for layer in _layers(ctx, max_len)]
    elements = [a for layer in layers for a in layer]
    ids = {a.levels: f"n{k}" for k, a in enumerate(elements)}
    lines = ["digraph bruhat {"]
    for a in elements:
        lines.append(f'  {ids[a.levels]} [label="{bounded_from_abacus(a)}"];')
    for lower, upper in zip(layers, layers[1:]):
        chains = [(ids[w.levels], descent_chain(w)) for w in upper]
        for x in lower:
            for w_id, chain in chains:
                if chain_contains(chain, x):
                    lines.append(f"  {ids[x.levels]} -> {w_id};")
    lines.append("}")
    return "\n".join(lines)


def cmd_poset(args) -> str:
    return poset_dot(_context(args), args.max_len)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "convert": cmd_convert,
        "enumerate": cmd_enumerate,
        "render": cmd_render,
        "poset": cmd_poset,
    }[args.command]
    try:
        out = handler(args)
    except CoxabacusError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    try:
        print(out)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left, as `| head` does: stop quietly
        with open(os.devnull, "w") as null:  # so the flush at exit raises nothing
            os.dup2(null.fileno(), sys.stdout.fileno())
        return 141
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
