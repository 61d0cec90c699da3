#!/usr/bin/env python3
"""Benchmark for mizthf.  Run it from the root of a checkout:

    python3 perfbench/run.py --workload emit_single --seed 7 \\
        --seconds 35 --trace 0

Every workload is a closed loop with one client: the next item starts
when the previous one has finished, in this one process.  The run is
spent in rounds: a round's inputs are generated from ``--seed``
untimed, its items are timed one by one, and its outputs are checked
untimed.  The rounds repeat until ``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics (tracing off):
``items_per_s`` is the median over rounds of completed items per
second; ``latency_tail_ms`` is at a percentile fixed per workload so
that later runs compare like with like, as the median over blocks of
samples with ten beyond it in each, printed with its sample counts and
beside the latency at the highest percentile of the whole run that has
ten samples beyond it; ``setup_s`` is the median of set-up samples
spread over the run.  ``--trace 1`` runs each round untraced and again
with spans around every call into the program, profiles the first round
with cProfile, times ``python -m mizthf.cli`` once on each corpus
invocation (one child at a time), and reports the per-layer metrics.
Spans are written to ``.bench_out/`` when the run ends.

Before measuring, every run regenerates the inputs for the default seed
and compares their digest with ``perfbench/expected.json``, and the
digest of the program's emitted THF and command-line output on them.
Drifted inputs refuse the run (exit 3, no result); a differing output
is a wrong output.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give the run context and the fail ratio.  A failed
operation is counted, not fatal; a wrong output makes the run exit 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYERS, NULL, ProfilingTracer, Tracer, code_calls, \
    layer_profile

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
REQUIRED = ("src/mizthf/__init__.py", "tests/generators.py",
            "corpus/common.sig")
SETUP_SAMPLES = 20
PROBE_REPEATS = 5

# What a batch user pays once: import the package, load a signature.
SETUP_CODE = """\
import time
t0 = time.perf_counter()
import mizthf
with open('corpus/common.sig', encoding='utf-8') as f:
    mizthf.parse_signature(f.read())
print(time.perf_counter() - t0)
"""

# Span name -> per-layer metric, in µs of self time per item.  "item"
# is the span around one whole item, so its self time is the
# benchmark's overhead.
SPAN_METRICS = {
    "parser": "parser.us",
    "mizar": "mizar.us",
    "translate": "translate.us",
    "thf.assemble": "thf.assemble_us",
    "thf.emit": "thf.emit_us",
    "thfcheck": "thfcheck.us",
    "patterns.match": "patterns.match_us",
    "patterns.recover": "patterns.recover_us",
    "item": "bench.residual_us",
}
COUNT_METRICS = ("parser.tokens", "translate.term_nodes", "thf.decls",
                 "thf.support_axioms", "thf.emit_bytes")


class InputDrift(Exception):
    pass


class Tally:
    """Outcomes of the items of one kind of pass."""

    def __init__(self) -> None:
        self.latencies_ns: list[int] = []
        self.rates: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []

    def percentile_ms(self, p: float) -> float:
        return nearest_rank(self.latencies_ns, p) / 1e6

    def tail_ms(self, p: float) -> tuple[float, int, int]:
        """The median, over consecutive blocks of samples with ten
        beyond ``p`` in each, of each block's ``p`` percentile: a burst
        of interference from the machine lifts one block's tail, not the
        median.  Returns the value, the block count and the block size."""
        size = round(10 / (1 - p / 100))
        lat = self.latencies_ns
        blocks = [lat[i:i + size]
                  for i in range(0, len(lat) - size + 1, size)] or [lat]
        value = statistics.median(nearest_rank(b, p) for b in blocks)
        return value / 1e6, len(blocks), size


def nearest_rank(samples: list[int], p: float) -> int:
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def run_pass(wl, items, tracer, tally: Tally) -> list:
    """Run every item once, timing each; a failed item's output is
    None.  Appends the pass's completed items per second to the
    tally."""
    outs = []
    start = time.perf_counter_ns()
    for item in items:
        tracer.item += 1
        t0 = time.perf_counter_ns()
        try:
            with tracer.span("item"):
                out = wl.run(item, tracer)
        except Exception as e:  # any failure is counted, not fatal
            tally.failed += 1
            if tally.failed <= 3:
                print(f"perfbench: {wl.name} item failed: {e!r}"[:400],
                      file=sys.stderr)
            out = None
        else:
            tally.latencies_ns.append(time.perf_counter_ns() - t0)
        outs.append(out)
    wall = time.perf_counter_ns() - start
    tally.attempted += len(items)
    done = sum(out is not None for out in outs)
    tally.rates.append(done / (wall / 1e9))
    check_outputs(wl, items, outs, tally)
    return outs


def check_outputs(wl, items, outs, tally: Tally) -> None:
    for item, out in zip(items, outs):
        if out is not None and (error := wl.check(item, out)):
            tally.wrong.append(f"{wl.name}: {error}")


def reference_check(wl, expected: dict) -> tuple[list[str], Tally]:
    """Digest the default-seed inputs (refusing drift) and the
    program's outputs on them.  Returns the wrong outputs found and the
    tally of the items."""
    rng = random.Random(expected["default_seed"])
    items = wl.generate(rng, wl.reference_size)
    want = expected["workloads"][wl.name]
    if digest(map(wl.fingerprint, items)) != want["inputs"]:
        raise InputDrift(
            f"{wl.name}: the inputs generated for seed "
            f"{expected['default_seed']} differ from the recorded ones; "
            "tests/generators.py or corpus/ changed, so the baseline "
            "would move.  Re-record perfbench/expected.json in a "
            "benchmark change.")
    tally = Tally()
    outs = run_pass(wl, items, NULL, tally)
    wrong = list(tally.wrong)
    if tally.failed:
        wrong.append(f"{wl.name}: {tally.failed} items failed for seed "
                     f"{expected['default_seed']}")
    elif hasattr(wl, "output_text") and digest(
            map(wl.output_text, outs)) != want["outputs"]:
        wrong.append(f"{wl.name}: outputs for seed "
                     f"{expected['default_seed']} differ from the recorded "
                     "digest")
    return wrong, tally


def setup_sample() -> float:
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, check=True, timeout=60)
    return float(done.stdout)


def probe_interpreter_ms() -> float:
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter_ns()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT,
                       env=child_env(), check=True, timeout=60)
        times.append((time.perf_counter_ns() - t0) / 1e6)
    return statistics.median(times)


def probe_import_ms() -> float:
    """Cumulative ``-X importtime`` of the top-level mizthf imports."""
    times = []
    for _ in range(PROBE_REPEATS):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import mizthf.cli"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            check=True, timeout=60)
        total = 0
        for line in done.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name = parts[2][1:]
            if name.startswith("mizthf"):     # indented names are nested
                total += int(parts[1])
        times.append(total / 1e3)
    return statistics.median(times)


def run_untraced(wl, seed: int, seconds: float) -> tuple[dict, Tally]:
    """Rounds until ``seconds`` have passed, with a set-up sample every
    ``seconds / SETUP_SAMPLES``: the machine's speed drifts in phases
    of seconds, so samples spread over the run see the phases the
    rounds see."""
    rng = random.Random(seed)
    tally = Tally()
    setup_sample()                      # warm-up, not counted
    setups = []
    start = time.perf_counter()
    while (now := time.perf_counter()) < start + seconds:
        if now >= start + len(setups) * seconds / SETUP_SAMPLES:
            setups.append(setup_sample())
        run_pass(wl, wl.generate(rng, wl.round_size), NULL, tally)
    p = wl.tail_percentile
    tail, blocks, size = tally.tail_ms(p)
    n = len(tally.latencies_ns)
    print(f"latency_tail_ms is the median of p{p:g} over {blocks} blocks "
          f"of {size} samples, 10 beyond it in each; {n} samples in all")
    if n > 10:
        whole = 100 * (n - 10) / n
        print(f"whole-run tail: p{whole:.3f} = "
              f"{tally.percentile_ms(whole):.4f} ms, "
              f"the 11th slowest of {n} samples")
    if n < size:
        print(f"perfbench: warning: fewer than 10 samples beyond p{p:g}",
              file=sys.stderr)
    metrics = {
        "items_per_s": (statistics.median(tally.rates), "1/s"),
        "latency_p50_ms": (tally.percentile_ms(50), "ms"),
        "latency_tail_ms": (tail, "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return metrics, tally


def run_traced(wl, seed: int, seconds: float, expected: dict, out: Path):
    """Rounds until ``seconds`` have passed, each run untraced and then
    traced; the first is also profiled.  Then the command-line probes:
    every corpus invocation once, ``-X importtime`` and ``-c pass``."""
    import workloads
    rng = random.Random(seed)
    plain, traced, profiled = Tally(), Tally(), Tally()
    tracer = Tracer()
    profiling = ProfilingTracer()
    counts: dict[str, int] = {}
    start = time.perf_counter()
    while time.perf_counter() < start + seconds:
        items = wl.generate(rng, wl.round_size)
        run_pass(wl, items, NULL, plain)
        outs = run_pass(wl, items, tracer, traced)
        if not profiled.rates:
            # exact counts come from the first round only, so they
            # repeat for a seed whatever the machine's speed
            for item, o in zip(items, outs):
                for key, value in (wl.counts(item, o) if o else {}).items():
                    counts[key] = counts.get(key, 0) + value
            counted = len(items)
            run_pass(wl, items, profiling, profiled)
            profile_cost = plain.rates[-1] / profiled.rates[-1]
    tracer.write(out)

    traced_items = traced.attempted
    metrics = {}
    self_ns = tracer.self_times()
    for span, name in SPAN_METRICS.items():
        metrics[name] = (self_ns.get(span, 0) / 1e3 / traced_items, "us")
    for key in COUNT_METRICS:
        metrics[key] = (counts.get(key, 0) / counted, "count")
    attempts = code_calls(profiling.profiler, "patterns", "pattern_match")
    metrics["patterns.attempts"] = (attempts / counted, "count")
    metrics["patterns.useful_ratio"] = (
        counts.get("patterns.solved", 0) / attempts if attempts else 0.0,
        "ratio")
    cli_wrong, cli = reference_check(
        workloads.CliCorpus(ROOT, expected["workloads"]["cli_corpus"]),
        expected)
    cli.wrong += cli_wrong
    metrics["cli.invocation_ms"] = (
        statistics.median(cli.latencies_ns) / 1e6 if cli.latencies_ns
        else 0.0, "ms")
    metrics["cli.import_ms"] = (probe_import_ms(), "ms")
    metrics["cli.interpreter_ms"] = (probe_interpreter_ms(), "ms")
    calls, inline = layer_profile(profiling.profiler)
    total_inline = sum(inline.values()) or 1.0
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (calls.get(layer, 0) / counted, "count")
        metrics[f"{layer}.self_share"] = (
            inline.get(layer, 0.0) / total_inline, "ratio")
    plain_rate = statistics.median(plain.rates)
    metrics["trace.span_overhead"] = (
        plain_rate / statistics.median(traced.rates), "x")
    metrics["trace.profile_overhead"] = (profile_cost, "x")
    return metrics, [plain, traced, profiled, cli]


def run_context() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg_1m": os.getloadavg()[0],
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "random"),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print("perfbench: run from the root of a mizthf checkout; missing "
              + ", ".join(missing), file=sys.stderr)
        return 2
    for path in ("tests", "src"):
        if str(ROOT / path) not in sys.path:
            sys.path.insert(0, str(ROOT / path))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2

    context = run_context()
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "context": context}))
    if context["loadavg_1m"] > context["nproc"]:
        print(f"perfbench: warning: load average {context['loadavg_1m']} "
              f"exceeds nproc {context['nproc']}", file=sys.stderr)

    expected = json.loads((HERE / "expected.json").read_text("utf-8"))
    wl = workloads.WORKLOADS[args.workload](
        ROOT, expected["workloads"][args.workload])
    try:
        wrong, _ = reference_check(wl, expected)
        if args.trace:
            out = ROOT / ".bench_out" / f"spans-{wl.name}-{args.seed}.json"
            metrics, tallies = run_traced(
                wl, args.seed, args.seconds, expected, out)
        else:
            metrics, tally = run_untraced(wl, args.seed, args.seconds)
            tallies = [tally]
    except InputDrift as e:
        print(f"perfbench: refusing to run: {e}", file=sys.stderr)
        return 3
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    wrong += [w for t in tallies for w in t.wrong]

    print(f"fail_ratio {failed / attempted} ({failed} of {attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name:<24} {value:>14.4f} {unit}")
    for error in wrong[:5]:
        print(f"perfbench: wrong output: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not wrong, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
