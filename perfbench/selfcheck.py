#!/usr/bin/env python3
"""The benchmark's own check.  Run it from the root of a checkout:

    python3 perfbench/selfcheck.py

1. A tiny run of every workload, traced and untraced, exits 0 and
   prints every metric BENCHMARK.json names, with its unit.
2. A deliberately corrupted output (a flipped THF byte, a wrong match
   value, a flipped byte of command-line output) makes the run fail.
3. In a directory holding only BENCHMARK.json and perfbench/, the run
   exits non-zero without printing a result.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import run

SECONDS = "0.3"


def result_of(stdout: str) -> dict | None:
    lines = stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return last if isinstance(last, dict) and "correct" in last else None


def tiny_runs(bench: dict) -> list[str]:
    problems = []
    wanted = {0: bench["end_to_end"], 1: bench["per_layer"]}
    for workload in bench["workloads"]:
        for trace, metrics in wanted.items():
            argv = [sys.executable, str(run.HERE / "run.py"),
                    "--workload", workload["name"], "--seed", "2",
                    "--seconds", SECONDS, "--trace", str(trace)]
            done = subprocess.run(argv, cwd=run.ROOT, capture_output=True,
                                  text=True, timeout=180)
            where = f"{workload['name']} --trace {trace}"
            res = result_of(done.stdout)
            if done.returncode != 0 or res is None:
                problems.append(f"{where}: exit {done.returncode}, "
                                f"{done.stderr[-300:]}")
                continue
            if set(res) != {"correct", "attempted", "failed", "metrics"} \
                    or not res["correct"] or res["attempted"] < 1:
                problems.append(f"{where}: bad result {res}")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            want = {m["name"]: m["unit"] for m in metrics}
            if got != want:
                problems.append(f"{where}: metrics {sorted(got.items())} "
                                f"!= {sorted(want.items())}")
    return problems


def corrupted_runs(bench: dict) -> list[str]:
    import workloads
    from mizthf import hol
    from mizthf.patterns import Substitution

    def flip(text: str) -> str:
        k = len(text) // 2
        return text[:k] + chr(ord(text[k]) ^ 1) + text[k + 1:]

    real_emit = workloads.emit_thf
    real_match = workloads.pattern_match
    real_cli = workloads.CliCorpus.run

    def bad_emit(problem):
        return flip(real_emit(problem))

    def bad_match(pairs):
        sigma = dict(real_match(pairs).items())
        meta = min(sigma, key=lambda m: m.name)
        params = [(f"a{i}", t) for i, t in enumerate(hol.arg_types(meta.type))]
        wrong = hol.Const("corrupt", hol.result_type(meta.type))
        return Substitution({**sigma, meta: hol.lams(params, wrong)})

    def bad_cli(self, item, tracer):
        return flip(real_cli(self, item, tracer).decode()).encode()

    # (what is corrupted, workload, --trace): the corpus invocations
    # run only in traced runs
    patches = [
        ((workloads, "emit_thf", bad_emit), "emit_single", "0"),
        ((workloads, "pattern_match", bad_match), "match_planted", "0"),
        ((workloads.CliCorpus, "run", bad_cli), "emit_single", "1"),
    ]
    problems = []
    for (owner, attr, corrupt), name, trace in patches:
        real = getattr(owner, attr)
        setattr(owner, attr, corrupt)
        captured = io.StringIO()
        try:
            with redirect_stdout(captured), redirect_stderr(io.StringIO()):
                code = run.main(["--workload", name, "--seed", "2",
                                 "--seconds", SECONDS, "--trace", trace])
        finally:
            setattr(owner, attr, real)
        res = result_of(captured.getvalue())
        if code == 0 or res is None or res["correct"]:
            problems.append(f"{attr}: a corrupted output passed "
                            f"(exit {code})")
    return problems


def bare_run(bench: dict) -> list[str]:
    bare = run.ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in bench["paths"]:
        shutil.copytree(run.ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    argv = bench["command"] + ["--workload", bench["workloads"][0]["name"],
                               "--seed", "2", "--seconds", SECONDS,
                               "--trace", "0"]
    done = subprocess.run(argv, cwd=bare, capture_output=True, text=True,
                          timeout=180)
    shutil.rmtree(bare)
    if done.returncode == 0 or result_of(done.stdout) is not None:
        return [f"bare directory: exit {done.returncode}, printed a result"]
    return []


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text("utf-8"))
    sys.path[:0] = [str(run.ROOT / "src"), str(run.ROOT / "tests")]
    failed = False
    for label, check in (("tiny runs print every metric", tiny_runs),
                         ("corrupted outputs fail the run", corrupted_runs),
                         ("bare directory fails without a result", bare_run)):
        problems = check(bench)
        print(f"{'FAIL' if problems else 'PASS'}  {label}")
        for problem in problems:
            print(f"      {problem}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
