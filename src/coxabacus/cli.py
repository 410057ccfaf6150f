"""Command line interface: conversion between the six representations,
enumeration, rendering, and Bruhat poset export."""

import sys

from .abacus import Abacus, abacus_from_word, ascent_walk, from_permutation, lower_covers
from .abacus import RootPoint, coordinates, from_base_window, from_coordinates, make_abacus
from .abacus import to_permutation, window_of
from .context import Family, GroupContext, make_context, tokens
from .core import BoundedPartition, CorePartition, abacus_from_bounded, bounded_after_ascent
from .core import bounded_from_abacus, from_abacus, parse_bounded, to_abacus, word_from_filling
from .errors import BadRequest, CoxabacusError, MalformedText, NotMinimal, UnknownGenerator

SimpleNamespace = type(sys.implementation)  # as the types module defines it, without importing it

REPRESENTATIONS = ("window", "levels", "core", "bounded", "word", "root")

FAMILY_ALIASES = {name: f for f in Family for name in (f.value, f.alias)}


def _ints(text: str) -> list[int]:
    try:
        return list(map(int, tokens(text)))
    except ValueError:
        raise MalformedText(f"not a list of integers: {text!r}") from None


def _letters(text: str) -> list[int]:
    try:
        return [int(t.removeprefix("s")) for t in tokens(text)]
    except ValueError:
        raise UnknownGenerator(f"not a word in s0, s1, ...: {text!r}") from None


def render_word(letters) -> str:
    return " ".join(f"s{r}" for r in letters)


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
        return to_abacus(CorePartition(ctx, tuple(_ints(value))))
    if rep == "bounded":
        return abacus_from_bounded(parse_bounded(ctx, value))
    if rep == "word":
        return abacus_from_word(ctx, _letters(value))
    raise BadRequest(f"unknown representation {rep!r}")


def format_element(a: Abacus, rep: str) -> str:
    if rep == "window":
        try:  # N times the input's levels: may pass Python's int-to-text limit
            return "[" + ",".join([str(v) for v in to_permutation(a).window]) + "]"
        except ValueError as exc:
            raise BadRequest(str(exc)) from None
    if rep == "levels":
        return "(" + ",".join([str(v) for v in a.levels]) + ")"
    if rep == "root":
        return "(" + ",".join([str(v) for v in coordinates(a).coords]) + ")"
    if rep == "core":
        return "(" + ",".join([str(v) for v in from_abacus(a).rows]) + ")"
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


def build_parser():
    """The argparse parser of `COMMANDS`, for the argv that `_plain_args`
    declines: help, usage errors and the forms it leaves out.  Built on each
    such call, which a console command makes at most once."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            self.print_usage(sys.stderr)
            print(f"error: {message}", file=sys.stderr)
            raise SystemExit(1)

    top = _Parser(prog="coxabacus")
    sub = top.add_subparsers(dest="command", required=True)
    for command, (help_text, flags, takes_value, _) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for flag, dest, kind, default in flags:
            check = {"type": int} if kind is int else {"choices": kind}
            p.add_argument(flag, dest=dest, required=default is None, default=default, **check)
        if takes_value:
            p.add_argument("value")
    return top


def _plain_args(argv: list[str]) -> SimpleNamespace | None:
    """What `build_parser().parse_args(argv)` returns for a plain, complete
    argv: the command, each of its flags at most once as a separate
    `--flag value` pair, and its value last, with no value that starts
    with "-".  Any other argv gives None, and argparse decides it."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, flags, takes_value, _ = COMMANDS[argv[0]]
    rest = argv[1:]
    args = {"command": argv[0]}
    if takes_value:
        if not rest or rest[-1].startswith("-"):
            return None
        args["value"] = rest.pop()
    given = dict(zip(rest[::2], rest[1::2]))
    if 2 * len(given) != len(rest):  # an odd count or a repeated flag
        return None
    for flag, dest, kind, default in flags:
        text = given.pop(flag, default)
        if text is None or text.startswith("-"):
            return None
        if kind is int:
            try:
                text = int(text)
            except ValueError:
                return None
        elif text not in kind:
            return None
        args[dest] = text
    return None if given else SimpleNamespace(**args)


def cmd_convert(ctx: GroupContext, args) -> str:
    return format_element(parse_element(ctx, args.source, args.value), args.target)


def cmd_enumerate(ctx: GroupContext, args) -> str:
    import json

    lines = []
    for length, layer in enumerate(_layers(ctx, ascent_walk(ctx, args.max_len))):
        for window, x in layer:
            lines.append(json.dumps(element_record(Abacus(ctx, x), window, length)))
    return "\n".join(lines)


def cmd_render(ctx: GroupContext, args) -> str:
    from . import render  # here, not at the top: only this command draws
    a = parse_element(ctx, args.source, args.value)
    text = args.format == "text"
    if args.what == "abacus":
        return (render.render_abacus_text if text else render.render_abacus_svg)(a)
    if args.what == "core":
        return (render.render_core_text if text else render.render_core_svg)(from_abacus(a))
    if args.what == "bounded":
        return (render.render_bounded_text if text else render.render_bounded_svg)(
            bounded_from_abacus(a))
    return render.render_peel_trace(a, args.format)


def _layers(ctx: GroupContext, walk: list[dict]) -> list[list[tuple]]:
    """The (window, level vector) pairs of each layer of the ascent walk,
    sorted by window (distinct, so no two level vectors are compared)."""
    return [sorted((window_of(ctx, x), x) for x in layer) for layer in walk]


def poset_dot(ctx: GroupContext, max_len: int) -> str:
    """Covers join adjacent length layers; `abacus.lower_covers` reads each
    element's covers, and `core.bounded_after_ascent` its label, off
    those of the element the walk found it from."""
    walk = ascent_walk(ctx, max_len)
    labels = dict.fromkeys(walk[0], BoundedPartition(ctx, ()))
    for layer in walk[1:]:
        for w, (x, moves) in layer.items():
            labels[w] = bounded_after_ascent(labels[x], x, w, moves)
    elements = [x for layer in _layers(ctx, walk) for _, x in layer]
    ids = {x: k for k, x in enumerate(elements)}
    edges = sorted((ids[y], ids[w]) for w, ys in lower_covers(walk).items() for y in ys)
    lines = ["digraph bruhat {"]
    lines += [f'  n{k} [label="{labels[x]}"];' for k, x in enumerate(elements)]
    lines += [f"  n{x} -> n{w};" for x, w in edges]
    return "\n".join(lines + ["}"])


def cmd_poset(ctx: GroupContext, args) -> str:
    return poset_dot(ctx, args.max_len)


# The command line grammar, which `build_parser` and `_plain_args` both read:
# each command's help, its flags as (flag, dest, choices or int, default),
# a default of None making the flag required, whether a value ends it, and
# its handler, called with the command's context and options.
_FAMILY = ("--family", "family", tuple(sorted(FAMILY_ALIASES)), None)
_RANK = ("--rank", "rank", int, None)
_SOURCE = ("--from", "source", REPRESENTATIONS, None)
_TARGET = ("--to", "target", REPRESENTATIONS, None)
_MAX_LEN = ("--max-len", "max_len", int, None)
_DRAWING = ("--render", "what", ("abacus", "core", "bounded", "peel-trace"), None)
_FORMAT = ("--format", "format", ("text", "svg"), "text")
COMMANDS = {
    "convert": ("convert between representations", (_FAMILY, _RANK, _SOURCE, _TARGET), True,
                cmd_convert),
    "enumerate": ("list all elements up to a length", (_FAMILY, _RANK, _MAX_LEN), False,
                  cmd_enumerate),
    "render": ("draw a diagram", (_FAMILY, _RANK, _SOURCE, _DRAWING, _FORMAT), True, cmd_render),
    "poset": ("Bruhat order as a DOT digraph", (_FAMILY, _RANK, _MAX_LEN), False, cmd_poset),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv) or build_parser().parse_args(argv)
    try:
        ctx = make_context(FAMILY_ALIASES[args.family], args.rank)
        out = COMMANDS[args.command][3](ctx, args)
    except CoxabacusError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    try:
        print(out)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left, as `| head` does: stop quietly
        import os

        with open(os.devnull, "w") as null:  # so the flush at exit raises nothing
            os.dup2(null.fileno(), sys.stdout.fileno())
        return 141
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
