"""Outputs do not depend on the hash seed.

The same script runs in two child processes whose ``PYTHONHASHSEED``
differs, and both must print the same bytes: a typing conflict's
message, ``mizthf emit`` on every corpus statement, ``mizthf match`` on
the corpus scheme pairs, and ``check_thf``'s diagnostics on a bad text.
Seeds 1 and 4 iterate a small set of (name, type) pairs in different
orders, so an output that reads such a set's order shows up.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import mizthf

CORPUS = Path(__file__).parent.parent / "corpus"
SEEDS = ("1", "4")

SCRIPT = r"""
import contextlib, io, sys
from pathlib import Path
from mizthf import hol
from mizthf.cli import main
from mizthf.hol import IND, PROP, TOP, And, App, Eq, Var, fn
from mizthf.thfcheck import check_thf

p, x = Var("p", fn(IND, PROP)), Var("x", IND)
try:
    hol.ambient_context(And(App(p, x), Eq(Var("x", PROP), TOP, PROP)))
except hol.IllTyped as e:
    print(e)
corpus = Path(sys.argv[1])
sig = str(corpus / "common.sig")
runs = [["emit", str(f), "--sig", sig] for f in sorted(corpus.glob("*.mst"))]
runs += [["match", str(corpus / s), str(corpus / i), "--sig", sig]
         for s, i in [("replacement.mst", "repl_instance.mst"),
                      ("subset_ex.mst", "subset_inst.mst")]]
for argv in runs:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        status = main(argv)
    print(argv[0], Path(argv[1]).name, status, out.getvalue())
print(check_thf("thf(c_tp, type, c: $i).\nthf(c_tp, type, d: $o).\n"
                "thf(a, axiom, c = d).\nthf(goal, conjecture, e & c)."))
"""


def test_outputs_do_not_depend_on_the_hash_seed():
    src = str(Path(mizthf.__file__).parent.parent)
    children = [subprocess.Popen(
        [sys.executable, "-c", SCRIPT, str(CORPUS)],
        env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src,
                 PYTHONIOENCODING="utf-8"),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE) for seed in SEEDS]
    outs = [child.communicate(timeout=60) for child in children]
    for child, (_, err) in zip(children, outs):
        assert child.returncode == 0, err.decode("utf-8", "replace")
    first, second = (out for out, _ in outs)
    assert b"at x: expected \xce\xb9, found o" in first
    assert first.count(b"emit ") == len(list(CORPUS.glob("*.mst")))
    assert first == second
