"""Spans around the public functions of coxabacus, installed from outside.

`install` wraps each function listed in SPANNED and rebinds its name in
every coxabacus module that holds the same function object, so calls made
through a module's own import (peel and cli keep their own bindings of
core functions) and recursion through a module global (core.contains) are
all seen.  A span records its name, start, end, parent span and command
id; spans are kept in memory and written out by `Tracer.dump`.
Functions in COUNTED are only counted, since they run too often to time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

SPANNED = {
    "cli": ("build_parser", "parse_element", "format_element", "element_record", "poset_dot"),
    "window": ("from_base_window", "normalize", "apply_generator_left"),
    "abacus": ("from_permutation", "to_permutation", "make_abacus"),
    "rootlattice": ("from_coordinates", "coordinates"),
    "core": (
        "make_core", "validate_core", "from_abacus", "to_abacus",
        "apply_generator_core", "contains",
    ),
    "peel": ("central_peel", "word_to_core"),
    "bounded": ("bounded_partition", "parse_bounded", "abacus_from_bounded"),
    "lengths": ("length_from_abacus",),
    "oracle": ("enumerate_quotient",),
}
COUNTED = {"core": ("residue_set",)}


def _changed_core(args, result) -> int:
    return int(result.rows != args[0].rows)


def _peel_letters(args, result) -> int:
    return len(result[0])


def _table_nodes(args, result) -> int:
    return len(result.lengths)


# extra per-span quantity, added up under the given metric suffix
EXTRAS = {
    "core.apply_generator_core": ("useful", _changed_core),
    "peel.central_peel": ("letters", _peel_letters),
    "oracle.enumerate_quotient": ("nodes", _table_nodes),
}


class Tracer:
    def __init__(self, error_type):
        self.error_type = error_type
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.extra: dict[str, int] = {}
        self.errors: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.spans = array("q")  # name, start, end, parent, command; 5 per span
        self.stack: list[list[int]] = []  # [span index, child ns]
        self.command = -1
        self._seen_errors: set[int] = set()

    def span(self, name: str, fn):
        k = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_ns.append(0)
        module = name.split(".")[0]
        extra = EXTRAS.get(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans) // 5
            parent = stack[-1][0] if stack else -1
            spans.extend((k, 0, 0, parent, self.command))
            frame = [idx, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except self.error_type as exc:
                if id(exc) not in self._seen_errors:
                    self._seen_errors.add(id(exc))
                    self.errors[module] = self.errors.get(module, 0) + 1
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                spans[5 * idx + 1] = start
                spans[5 * idx + 2] = end
                self.calls[k] += 1
                self.self_ns[k] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if extra is not None:
                key = f"{name}.{extra[0]}"
                self.extra[key] = self.extra.get(key, 0) + extra[1](args, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def summary(self) -> dict:
        """Totals per span name, plus counters, extras and errors."""
        out = {}
        for k, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[k]
            out[f"{name}.self_ms"] = self.self_ns[k] / 1e6
        out.update({f"{n}.calls": c for n, c in self.counts.items()})
        out.update(self.extra)
        out.update({f"{m}.errors": c for m, c in self.errors.items()})
        return out

    def dump(self, path: str) -> None:
        """Write one JSON line per span: name, start and end in ns, parent
        span index (-1 at top level) and command id."""
        s = self.spans
        with open(path, "w") as fh:
            for i in range(0, len(s), 5):
                fh.write(json.dumps([self.names[s[i]], s[i + 1], s[i + 2], s[i + 3], s[i + 4]]))
                fh.write("\n")


def _rebind(original, wrapper) -> None:
    for modname, mod in list(sys.modules.items()):
        if modname == "coxabacus" or modname.startswith("coxabacus."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every listed function that the library still has."""
    for table, make in ((SPANNED, tracer.span), (COUNTED, tracer.counter)):
        for modname, names in table.items():
            mod = sys.modules.get(f"coxabacus.{modname}")
            for name in names:
                fn = getattr(mod, name, None)
                if callable(fn):
                    _rebind(fn, make(f"{modname}.{name}", fn))
