#!/usr/bin/env python3
"""Record perfbench/expected.json from the current program.

    python3 perfbench/record.py

Run from the root of a checkout, and only in a change that means to
move the benchmark's baseline: the digests pin the default-seed inputs
and the program's outputs on them, which ``run.py`` checks on every run.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys

import run

DEFAULT_SEED = 1


def main() -> int:
    sys.path[:0] = [str(run.ROOT / "src"), str(run.ROOT / "tests")]
    import workloads
    recorded = {}
    for make in (*workloads.WORKLOADS.values(), workloads.CliCorpus):
        wl = make(run.ROOT, {})
        name = wl.name
        items = wl.generate(random.Random(DEFAULT_SEED), wl.reference_size)
        outs = [wl.run(item, run.NULL) for item in items]
        entry = {"inputs": run.digest(map(wl.fingerprint, items))}
        if hasattr(wl, "output_text"):
            entry["outputs"] = run.digest(map(wl.output_text, outs))
        if name == "cli_corpus":
            entry["stdout"] = {
                " ".join(item): hashlib.sha256(out).hexdigest()
                for item, out in sorted(zip(items, outs))}
        recorded[name] = entry
    path = run.HERE / "expected.json"
    path.write_text(json.dumps({"default_seed": DEFAULT_SEED,
                                "workloads": recorded}, indent=2,
                               ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
