"""Benchmark of the coxabacus command line, end to end and per module.

    python3 bench/run.py --workload convert --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the library is imported from its
`src` directory.  Each round is a fixed list of CLI commands drawn from the
seed, run by one fresh interpreter (bench/worker.py) as a single closed-loop
client.  Rounds are started until --seconds have passed since the first one;
every output is checked outside the timed section.  A run ends within
RUN_LIMIT_S: a round still running then is stopped, the command it was
running counts as failed with the time it had taken, and the result line
is still printed.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  Raw results and span files go to
bench/out/.  See bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("convert", "word", "enumerate", "poset")
# setup_s is the median of samples spread over the run, each the least of
# BURST cold starts: SAMPLES_PER_ROUND before each round, at least SAMPLES
BURST = 3
SAMPLES_PER_ROUND = 2
SAMPLES = 9
RUN_LIMIT_S = 150  # the whole run, so that it exits well within 180 s

# (name, unit); a name ending in .calls, .self_ms, .letters, .nodes or
# .errors is a total per command over the traced commands
PER_LAYER = [
    ("cli.build_parser.self_ms", "ms"),
    ("cli.parse_element.self_ms", "ms"),
    ("cli.format_element.self_ms", "ms"),
    ("cli.element_record.self_ms", "ms"),
    ("cli.poset_dot.self_ms", "ms"),
    ("window.from_base_window.self_ms", "ms"),
    ("window.normalize.calls", "count"),
    ("window.normalize.self_ms", "ms"),
    ("window.apply_generator_left.calls", "count"),
    ("abacus.from_permutation.self_ms", "ms"),
    ("abacus.to_permutation.self_ms", "ms"),
    ("abacus.make_abacus.self_ms", "ms"),
    ("rootlattice.from_coordinates.self_ms", "ms"),
    ("rootlattice.coordinates.self_ms", "ms"),
    ("core.make_core.self_ms", "ms"),
    ("core.validate_core.calls", "count"),
    ("core.validate_core.self_ms", "ms"),
    ("core.from_abacus.self_ms", "ms"),
    ("core.to_abacus.self_ms", "ms"),
    ("core.apply_generator_core.calls", "count"),
    ("core.apply_generator_core.self_ms", "ms"),
    ("core.apply_generator_core.useful_ratio", "ratio"),
    ("core.residue_set.calls", "count"),
    ("core.contains.calls", "count"),
    ("core.contains.self_ms", "ms"),
    ("core.bruhat_memo.size", "entries"),
    ("peel.central_peel.calls", "count"),
    ("peel.central_peel.self_ms", "ms"),
    ("peel.central_peel.letters", "count"),
    ("peel.word_to_core.calls", "count"),
    ("peel.word_to_core.self_ms", "ms"),
    ("bounded.bounded_partition.calls", "count"),
    ("bounded.bounded_partition.self_ms", "ms"),
    ("bounded.parse_bounded.self_ms", "ms"),
    ("bounded.abacus_from_bounded.self_ms", "ms"),
    ("lengths.length_from_abacus.calls", "count"),
    ("lengths.length_from_abacus.self_ms", "ms"),
    ("oracle.enumerate_quotient.self_ms", "ms"),
    ("oracle.enumerate_quotient.nodes", "count"),
] + [
    (f"{m}.errors", "count")
    for m in ("cli", "window", "abacus", "rootlattice", "core", "peel", "bounded", "lengths", "oracle")
] + [
    ("trace.overhead_pct", "%"),
]


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def cold_start(contexts) -> float:
    """Seconds a fresh interpreter takes to import coxabacus.cli and build
    the contexts, timed inside it.  -S keeps site hooks of the host
    interpreter from importing modules on the library's behalf.  Bytecode
    is written and then read, as after an install, even where the
    environment turns writing it off."""
    argv = [sys.executable, "-S", os.path.join(HERE, "coldstart.py"), SRC]
    for family, n in contexts:
        argv += [family, str(n)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=60, env=env)
    if proc.returncode != 0:
        fail(f"cold start failed: {proc.stderr.strip()}")
    return float(proc.stdout)


def run_worker(commands, trace_path, timeout) -> dict:
    """One round in a fresh worker.  Commands the worker finished carry its
    exit code, wall time and stdout.  A command it started but did not
    finish, because the timeout stopped it or the worker died, carries the
    reason instead of an exit code, and the time until then."""
    job = {"src": SRC, "commands": [argv for argv, _ in commands], "trace": trace_path}
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py")],
            input=json.dumps(job).encode(), capture_output=True, timeout=timeout,
        )
        stdout, stopped, cut = proc.stdout, False, None
        if proc.returncode != 0:
            cut = f"worker exited with {proc.returncode}: {proc.stderr[-300:]!r}"
    except subprocess.TimeoutExpired as exc:
        stdout, stopped = exc.stdout or b"", True
        cut = f"stopped after the {RUN_LIMIT_S} s run limit"
    now = time.monotonic_ns()
    # a line cut off by the stop carries no newline and is dropped
    lines = [json.loads(line) for line in stdout.decode().split("\n")[:-1]]
    results, started, peak, layers = [], None, 0, None
    for line in lines:
        if line[0] == "start":
            started, peak = line[2], max(peak, line[3])
        elif line[0] == "done":
            results.append(line[2:5])
            started, peak = None, max(peak, line[5])
        else:
            layers = line[1]
    if started is not None:
        results.append([cut, now - started, ""])
    elif cut is not None and not stopped:
        fail(f"worker failed outside any command: {cut}")
    return {"results": results, "peak_rss_kb": peak, "layers": layers}


def setup_sample(contexts) -> float:
    return min(cold_start(contexts) for _ in range(BURST))


def command_times(rounds) -> list[int]:
    return [ns for rnd in rounds for _, _, ns in rnd["commands"]]


def end_to_end(rounds, setup_samples) -> dict:
    times = command_times(rounds)
    return {
        "ops_per_s": {"value": len(times) / (sum(times) / 1e9), "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(times) / 1e6, "unit": "ms"},
        "peak_rss_mb": {
            "value": statistics.median(rnd["peak_rss_kb"] for rnd in rounds) / 1024,
            "unit": "MB",
        },
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
    }


def per_layer(rounds) -> dict:
    """Totals per traced command over the traced rounds that ran to their
    end; the overhead compares them with the plain runs of the same rounds."""
    traced = [rnd for rnd in rounds if rnd["layers"] is not None]
    plain = [rnd for rnd in rounds if not rnd["traced"]
             and any(t["round"] == rnd["round"] for t in traced)]
    commands = sum(len(rnd["commands"]) for rnd in traced)
    slowdown = sum(command_times(plain)) / sum(command_times(traced)) if traced else 1.0
    totals: dict[str, float] = {}
    for rnd in traced:
        for key, value in rnd["layers"].items():
            totals[key] = totals.get(key, 0) + value

    out = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_pct":
            value = 100 * (1 - slowdown)
        elif name == "core.bruhat_memo.size":
            value = statistics.median([rnd["layers"].get(name, 0) for rnd in traced] or [0])
        elif name.endswith(".useful_ratio"):
            calls = totals.get(name.replace(".useful_ratio", ".calls"), 0)
            value = totals.get(name.replace("_ratio", ""), 0) / calls if calls else 0.0
        else:
            value = totals.get(name, 0) / commands if commands else 0.0
        out[name] = {"value": value, "unit": unit}
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.perf_counter() + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(SRC, "coxabacus", "cli.py")):
        fail(f"no coxabacus sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import coxabacus

    if os.path.dirname(os.path.abspath(coxabacus.__file__)) != os.path.join(SRC, "coxabacus"):
        fail(f"imported coxabacus from {coxabacus.__file__}, not from {SRC}")
    import workloads

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    for old in glob.glob(f"{stem}-round*.spans.jsonl"):
        os.remove(old)

    setup_samples = []
    if not args.trace:
        cold_start(workloads.CASES)  # writes bytecode in a fresh checkout, not counted

    checker = workloads.Checker(args.workload)
    runs = (False, True) if args.trace else (False,)  # a traced round also runs plain
    rounds, problems = [], []
    wrong = failed = 0
    start = time.perf_counter()
    r = 0
    while r == 0 or (time.perf_counter() - start < args.seconds
                     and time.perf_counter() < deadline):
        commands = workloads.round_commands(args.workload, args.seed, r)
        if not args.trace:
            setup_samples += [setup_sample(workloads.CASES) for _ in range(SAMPLES_PER_ROUND)]
        for traced in runs:
            left = deadline - time.perf_counter()
            if rounds and left <= 0:
                break
            spans = f"{stem}-round{r}.spans.jsonl" if traced else None
            report = run_worker(commands, spans, max(left, 1.0))
            rnd = {"round": r, "traced": traced, "commands": [],
                   "peak_rss_kb": report["peak_rss_kb"], "layers": report["layers"]}
            for (argv, expect), (code, ns, stdout) in zip(commands, report["results"]):
                found = checker.check(argv, expect, code, stdout)
                if found:
                    failed += 1
                    wrong += code == 0
                    problems.append({"argv": argv, "problems": found})
                rnd["commands"].append((argv, code, ns))
            rounds.append(rnd)
        r += 1

    while not args.trace and len(setup_samples) < SAMPLES:
        setup_samples.append(setup_sample(workloads.CASES))
    attempted = sum(len(rnd["commands"]) for rnd in rounds)
    metrics = per_layer(rounds) if args.trace else end_to_end(rounds, setup_samples)
    with open(f"{stem}{'-trace' if args.trace else ''}.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "metrics": metrics,
                   "setup_samples_s": setup_samples, "problems": problems,
                   "rounds": rounds}, fh)
    for p in problems[:5]:
        print(f"bench: check failed: {' '.join(p['argv'])[:200]}: {p['problems'][:3]}",
              file=sys.stderr)
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
