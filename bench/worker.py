"""Run a list of coxabacus CLI commands in this fresh interpreter.

Reads a job from stdin as JSON: {"src": library source dir, "commands":
[argv, ...], "trace": path for the span file or null}.  Each command goes
through `coxabacus.cli.main(argv)` with stdout and stderr captured, in the
order given, each issued when the previous one returns.  Writes one JSON
line to stdout as each command starts and one as it ends, so that a round
cut short by a timeout still reports the commands it finished:

    ["start", k, monotonic ns, peak rss kB]
    ["done", k, exit code, wall ns, stdout, peak rss kB]
    ["layers", {per-layer totals}]            (with tracing, at the end)

The peak resident set is VmHWM of this process, which starts afresh at
exec; getrusage's ru_maxrss would also hold the peak of the process that
started this one.
"""

import contextlib
import io
import json
import sys
import time


def peak_rss_kb() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def emit(record) -> None:
    sys.__stdout__.write(json.dumps(record) + "\n")
    sys.__stdout__.flush()


def main() -> None:
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    from coxabacus import cli, errors

    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer(errors.CoxabacusError)
        tracing.install(tracer)

    for k, argv in enumerate(job["commands"]):
        if tracer is not None:
            tracer.command = k
        emit(["start", k, time.monotonic_ns(), peak_rss_kb()])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter_ns()
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # a crash is a failed command, not a failed run
                code = f"{type(exc).__name__}: {exc}"
            end = time.perf_counter_ns()
        emit(["done", k, code, end - start, out.getvalue(), peak_rss_kb()])

    if tracer is not None:
        memo = getattr(sys.modules["coxabacus.core"], "_BRUHAT_MEMO", None)
        layers = tracer.summary()
        layers["core.bruhat_memo.size"] = len(memo) if memo is not None else 0
        tracer.dump(job["trace"])
        emit(["layers", layers])


if __name__ == "__main__":
    main()
