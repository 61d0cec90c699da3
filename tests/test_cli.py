"""End-to-end runs of the command line interface, in process."""

from __future__ import annotations

import stat
import time
from pathlib import Path

import pytest

from mizthf import check_thf, thf
from mizthf.cli import MAX_TIMEOUT, main
from mizthf.mizar import MAX_SIG_ARITY
from mizthf.thfcheck import MAX_DEPTH


def sig_path(corpus_files) -> str:
    return str(corpus_files[0].parent / "common.sig")


@pytest.fixture
def sig(corpus_files):
    return sig_path(corpus_files)


def test_check_whole_corpus(corpus_files, sig, capsys):
    files = [str(p) for p in corpus_files]
    assert main(["check", *files, "--sig", sig]) == 0
    assert capsys.readouterr().err == ""


def test_check_reports_position_and_fails(tmp_path, sig, capsys):
    bad = tmp_path / "bad.mst"
    bad.write_text("statement : p1(c1\n")
    good = tmp_path / "good.mst"
    good.write_text("statement : c1 = c1\n")
    assert main(["check", str(good), str(bad), "--sig", sig]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{bad}:")
    assert ":" in err.split(str(bad))[1]


def test_translate_prints_the_term(tmp_path, sig, capsys):
    src = tmp_path / "s.mst"
    src.write_text("statement : for x being set holds x = x\n")
    assert main(["translate", str(src), "--sig", sig]) == 0
    assert capsys.readouterr().out == "∀x:ι. x = x\n"


def test_emit_stdout_is_checkable(sig, corpus_files, capsys):
    eq_triv = next(p for p in corpus_files if p.stem == "eq_triv")
    assert main(["emit", str(eq_triv), "--sig", sig]) == 0
    out = capsys.readouterr().out
    assert out.startswith("thf(")
    assert check_thf(out) == []
    assert "thf(goal, conjecture," in out


def test_emit_out_file_and_axioms(tmp_path, sig, corpus_files, capsys):
    conj = next(p for p in corpus_files if p.stem == "fraenkel_member")
    ax = next(p for p in corpus_files if p.stem == "eq_triv")
    dest = tmp_path / "problem.p"
    assert main(["emit", str(conj), "--sig", sig,
                 "--axiom", str(ax), "--axiom", str(ax),
                 "--out", str(dest)]) == 0
    assert capsys.readouterr().out == ""
    text = dest.read_text()
    assert check_thf(text) == []
    assert "thf(eq_triv, axiom," in text
    assert "thf(eq_triv_2, axiom," in text


def test_the_conjecture_keeps_its_name_against_an_axiom_named_goal(
        tmp_path, sig, corpus_files, capsys):
    conj = next(p for p in corpus_files if p.stem == "eq_triv")
    stem, named = tmp_path / "goal.mst", tmp_path / "other.mst"
    stem.write_text("statement : c1 = c1\n")
    named.write_text("scheme goal { A() -> set } : A() = A()\n")
    assert main(["emit", str(conj), "--sig", sig, "--axiom", str(stem),
                 "--axiom", str(named)]) == 0
    out = capsys.readouterr().out
    assert check_thf(out) == []
    assert out.endswith("thf(goal_2, axiom, c1 = c1).\n"
                        "thf(goal_2_2, axiom, ! [A: $i] : (A = A)).\n"
                        "thf(goal, conjecture, c1 = c1).\n")


def test_emit_rejects_overdeep_comprehension(tmp_path, sig, capsys):
    src = tmp_path / "deep.mst"
    binders = ", ".join(f"u{i} is set" for i in range(7))
    src.write_text(
        f"statement : c1 in {{ f1(u0) where {binders} : p1(u0) }}\n")
    assert main(["emit", str(src), "--sig", sig]) == 1
    assert "binder" in capsys.readouterr().err
    assert main(["emit", str(src), "--sig", sig, "--max-arity", "9"]) == 0


@pytest.mark.parametrize("conjuncts", [300, 500])
def test_emit_checks_long_chains(tmp_path, sig, capsys, conjuncts):
    # n conjuncts emit as n nested parentheses, one checker level each
    src = tmp_path / "long.mst"
    src.write_text("statement : " + " & ".join(["c1 = c1"] * conjuncts)
                   + "\n")
    assert main(["emit", str(src), "--sig", sig]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert check_thf(captured.out) == []


def test_emit_reports_an_overdeep_problem(tmp_path, sig, corpus_files,
                                          capsys, monkeypatch):
    conj = next(p for p in corpus_files if p.stem == "eq_triv")
    n = MAX_DEPTH + 1
    monkeypatch.setattr(thf, "emit_thf", lambda problem: (
        "thf(goal, conjecture, " + "(" * n + "$true" + ")" * n + ").\n"))
    assert main(["emit", str(conj), "--sig", sig]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"emitted problem: 1:{22 + n}: nesting deeper "
                            f"than {MAX_DEPTH} levels [too-deep]\n")


@pytest.mark.parametrize("body", [
    "not " * 2000 + "c1 = c1",
    " implies ".join(["c1 = c1"] * 1500),
])
@pytest.mark.parametrize("command", ["check", "translate", "emit"])
def test_deep_input_is_one_line_not_a_traceback(tmp_path, sig, capsys,
                                                command, body):
    src = tmp_path / "deep.mst"
    src.write_text(f"statement : {body}\n")
    assert main([command, str(src), "--sig", sig]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_check_goes_on_past_a_too_deep_file(tmp_path, sig, capsys):
    deep = tmp_path / "deep.mst"
    deep.write_text("statement : " + "not " * 2000 + "c1 = c1\n")
    bad = tmp_path / "bad.mst"
    bad.write_text("statement : c1 = nowhere\n")
    assert main(["check", str(deep), str(bad), "--sig", sig]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"{deep}: input nests too deeply to process",
        f"{bad}:1:18: unknown name 'nowhere'"]


def test_check_passes_what_translate_passes(tmp_path, sig, capsys):
    src = tmp_path / "wide.mst"
    binders = ", ".join(f"u{i} is set" for i in range(8))
    src.write_text(
        f"statement : c1 in {{ f1(u0) where {binders} : p1(u0) }}\n")
    assert main(["translate", str(src), "--sig", sig]) == 1
    refused = capsys.readouterr().err
    assert "binder" in refused
    good = tmp_path / "good.mst"
    good.write_text("statement : c1 = c1\n")
    assert main(["check", str(src), str(good), "--sig", sig]) == 1
    assert capsys.readouterr().err == refused
    for command in ("check", "translate"):
        assert main([command, str(src), "--sig", sig,
                     "--max-arity", "8"]) == 0
        assert capsys.readouterr().err == ""


def test_emit_names_the_file_that_fails_to_translate(tmp_path, sig,
                                                     corpus_files, capsys):
    conj = next(p for p in corpus_files if p.stem == "eq_triv")
    wide = tmp_path / "wide.mst"
    binders = ", ".join(f"u{i} is set" for i in range(8))
    wide.write_text(
        f"statement : c1 in {{ f1(u0) where {binders} : p1(u0) }}\n")
    assert main(["emit", str(conj), "--sig", sig, "--axiom", str(conj),
                 "--axiom", str(wide)]) == 1
    assert capsys.readouterr().err == (
        f"{wide}: comprehension with 8 binders exceeds the arity limit 6; "
        "raise --max-arity to allow it\n")


def _arity_files(tmp_path, arity):
    sig = tmp_path / "wide.sig"
    sig.write_text(f"obj c\nfunc f/{arity}\npred q/{arity}\n")
    src = tmp_path / "wide.mst"
    src.write_text("statement : q(f(" + ", ".join(["c"] * arity) + "), "
                   + ", ".join(["c"] * (arity - 1)) + ")\n")
    return str(sig), str(src)


def test_signature_arity_bound_emits(tmp_path, capsys):
    sig, src = _arity_files(tmp_path, MAX_SIG_ARITY)
    assert main(["emit", src, "--sig", sig]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert check_thf(captured.out) == []
    sig, src = _arity_files(tmp_path, MAX_SIG_ARITY + 1)
    assert main(["emit", src, "--sig", sig]) == 1
    assert capsys.readouterr().err == (
        f"{sig}:2:6: arity is above the limit of {MAX_SIG_ARITY}\n")


def test_match_replacement(sig, corpus_files, capsys):
    scheme = next(p for p in corpus_files if p.stem == "replacement")
    inst = next(p for p in corpus_files if p.stem == "repl_instance")
    assert main(["match", str(scheme), str(inst), "--sig", sig]) == 0
    out = capsys.readouterr().out
    assert out == ("A := c1\n"
                   "R := λx:ι. λy:ι. x = y ∧ p1 y\n")


def test_match_subset_scheme(sig, corpus_files, capsys):
    scheme = next(p for p in corpus_files if p.stem == "subset_ex")
    inst = next(p for p in corpus_files if p.stem == "subset_inst")
    assert main(["match", str(scheme), str(inst), "--sig", sig]) == 0
    out = capsys.readouterr().out
    assert out == ("Q := λx:ι. p1 x\n"
                   "X := c1\n")


def test_match_reports_side_conditions(tmp_path, sig, corpus_files,
                                       capsys):
    scheme = next(p for p in corpus_files if p.stem == "replacement")
    inst = tmp_path / "tail.mst"
    inst.write_text(
        "statement :\n"
        "  ex X being set st for x being set holds\n"
        "    (x in X iff ex y being set st (y in c1 & (y = x & p1(x))))\n")
    assert main(["match", str(scheme), str(inst), "--sig", sig]) == 0
    out = capsys.readouterr().out
    assert "A := c1" in out
    assert "side condition: ∀x:ι. ∀y:ι. ∀z:ι. " in out


def test_match_failure_exits_one(tmp_path, sig, corpus_files, capsys):
    scheme = next(p for p in corpus_files if p.stem == "subset_ex")
    inst = tmp_path / "off.mst"
    inst.write_text("statement : c1 = c1\n")
    assert main(["match", str(scheme), str(inst), "--sig", sig]) == 1
    assert "no instantiation" in capsys.readouterr().err


def test_match_strip_zero_needs_identical_shape(sig, corpus_files,
                                                capsys):
    scheme = next(p for p in corpus_files if p.stem == "subset_ex")
    inst = next(p for p in corpus_files if p.stem == "subset_inst")
    assert main(["match", str(scheme), str(inst), "--sig", sig,
                 "--strip", "0"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("command", [
    ["emit", "{bad}"],
    ["emit", "{good}", "--axiom", "{bad}"],
    ["match", "{bad}", "{good}"],
    ["match", "{good}", "{bad}"],
    ["prove", "{bad}", "--prover", "true"],
])
def test_source_errors_name_file_and_position(tmp_path, sig, corpus_files,
                                              capsys, command):
    bad = tmp_path / "bad.mst"
    bad.write_text("statement : p1(c1) &\n  c9 = c1\n")
    good = next(p for p in corpus_files if p.stem == "eq_triv")
    argv = [a.format(bad=bad, good=good) for a in command]
    assert main([*argv, "--sig", sig]) == 1
    assert capsys.readouterr().err == f"{bad}:2:3: unknown name 'c9'\n"


def test_signature_errors_name_file_and_position(tmp_path, corpus_files,
                                                 capsys):
    bad = tmp_path / "bad.sig"
    bad.write_text("obj c1\nfunc f1\n")
    good = next(p for p in corpus_files if p.stem == "eq_triv")
    assert main(["emit", str(good), "--sig", str(bad)]) == 1
    assert capsys.readouterr().err == (
        f"{bad}:2:6: expected 'func NAME/ARITY'\n")


@pytest.mark.parametrize("option", ["--strip=-1", "--max-arity=-1"])
def test_negative_counts_are_usage_errors(sig, corpus_files, capsys,
                                          option):
    scheme = next(p for p in corpus_files if p.stem == "subset_ex")
    inst = next(p for p in corpus_files if p.stem == "subset_inst")
    with pytest.raises(SystemExit) as exc:
        main(["match", str(scheme), str(inst), "--sig", sig, option])
    assert exc.value.code == 2
    assert "expected a count of 0 or more" in capsys.readouterr().err


def test_missing_file_exits_two(sig, capsys):
    assert main(["translate", "no_such_file.mst", "--sig", sig]) == 2
    assert capsys.readouterr().err != ""


def test_non_utf8_statement_exits_two(tmp_path, sig, capsys):
    bad = tmp_path / "bad.mst"
    bad.write_bytes(b"statement : c1 = c1\xff\n")
    assert main(["emit", str(bad), "--sig", sig]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (f"{bad}: not UTF-8 text: 'utf-8' codec can't decode "
                       "byte 0xff in position 19: invalid start byte\n")


def test_non_utf8_signature_exits_two(tmp_path, corpus_files, capsys):
    bad = tmp_path / "bad.sig"
    bad.write_bytes(b"obj c\xff\n")
    good = next(p for p in corpus_files if p.stem == "eq_triv")
    assert main(["check", str(good), "--sig", str(bad)]) == 2
    assert capsys.readouterr().err == (
        f"{bad}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff in "
        "position 5: invalid start byte\n")


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["translate", "x.mst"])
    assert exc.value.code == 2
    capsys.readouterr()


def fake_prover(tmp_path, name: str, script: str) -> str:
    path = tmp_path / name
    path.write_text(f"#!/bin/sh\n{script}\n")
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return str(path)


def test_prove_reads_szs_status(tmp_path, sig, corpus_files, capsys):
    conj = next(p for p in corpus_files if p.stem == "eq_triv")
    seen = tmp_path / "seen"
    yes = fake_prover(tmp_path, "yes",
                      f'echo "$1" >> {seen}\n'
                      'echo "% SZS status Theorem for $1"')
    assert main(["prove", str(conj), "--sig", sig, "--prover", yes]) == 0
    assert capsys.readouterr().out == "SZS status Theorem\n"

    no = fake_prover(tmp_path, "no",
                     f'echo "$1" >> {seen}\necho "% SZS status GaveUp"')
    assert main(["prove", str(conj), "--sig", sig, "--prover", no]) == 1
    assert capsys.readouterr().out == "SZS status GaveUp\n"

    silent = fake_prover(tmp_path, "silent", "true")
    assert main(["prove", str(conj), "--sig", sig,
                 "--prover", silent]) == 1
    assert capsys.readouterr().out == "SZS status Unknown\n"

    problems = seen.read_text().split()
    assert len(problems) == 2
    assert not any(Path(p).exists() for p in problems)


def test_prove_checks_the_problem_before_the_prover(
        tmp_path, sig, corpus_files, capsys, monkeypatch):
    conj = next(p for p in corpus_files if p.stem == "eq_triv")
    seen = tmp_path / "seen"
    prover = fake_prover(tmp_path, "recording", f'echo "$1" >> {seen}')
    monkeypatch.setattr(thf, "emit_thf", lambda problem: (
        "thf(c_tp, type, c: $i).\nthf(goal, conjecture, c).\n"))
    assert main(["prove", str(conj), "--sig", sig,
                 "--prover", prover]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("emitted problem: 2:")
    assert "[ill-typed]" in captured.err
    assert not seen.exists()


def test_prove_timeout_and_missing_prover(tmp_path, sig, corpus_files,
                                          capsys):
    conj = next(p for p in corpus_files if p.stem == "eq_triv")
    seen = tmp_path / "seen"
    slow = fake_prover(tmp_path, "slow", f'echo "$1" > {seen}\nexec sleep 5')
    assert main(["prove", str(conj), "--sig", sig, "--prover", slow,
                 "--timeout", "0.5"]) == 1
    assert "timed out" in capsys.readouterr().err
    problem = Path(seen.read_text().strip())
    assert problem.suffix == ".p"
    assert not problem.exists()
    assert main(["prove", str(conj), "--sig", sig,
                 "--prover", str(tmp_path / "absent")]) == 2


@pytest.mark.parametrize("seconds", [
    "nan", "inf", "1e400", "-1", "0", "-0", "2147484", "soon"])
def test_prove_timeout_must_be_a_wait_poll_takes(tmp_path, sig, corpus_files,
                                                 capsys, seconds):
    conj = next(p for p in corpus_files if p.stem == "eq_triv")
    seen = tmp_path / "seen"
    prover = fake_prover(tmp_path, "recording", f'echo "$1" >> {seen}')
    with pytest.raises(SystemExit) as exc:
        main(["prove", str(conj), "--sig", sig, "--prover", prover,
              f"--timeout={seconds}"])
    assert exc.value.code == 2
    assert (f"expected seconds above 0 and at most {MAX_TIMEOUT}, "
            f"got {seconds!r}") in capsys.readouterr().err
    assert not seen.exists()


def test_prove_takes_the_longest_timeout(tmp_path, sig, corpus_files,
                                         capsys):
    conj = next(p for p in corpus_files if p.stem == "eq_triv")
    yes = fake_prover(tmp_path, "yes", 'echo "% SZS status Theorem"')
    assert main(["prove", str(conj), "--sig", sig, "--prover", yes,
                 "--timeout", str(MAX_TIMEOUT)]) == 0
    assert capsys.readouterr().out == "SZS status Theorem\n"


def _alive(pid: int) -> bool:
    """Running, as opposed to gone or an unreaped zombie."""
    try:
        stat_line = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat_line.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="reads process states from /proc")
def test_prove_timeout_kills_what_the_prover_started(tmp_path, sig,
                                                     corpus_files, capsys):
    conj = next(p for p in corpus_files if p.stem == "eq_triv")
    pidfile = tmp_path / "pid"
    wrapper = fake_prover(tmp_path, "wrapper",
                          f"sleep 30 &\necho $! > {pidfile}\nwait")
    assert main(["prove", str(conj), "--sig", sig, "--prover", wrapper,
                 "--timeout", "0.5"]) == 1
    assert "timed out" in capsys.readouterr().err
    pid = int(pidfile.read_text())
    deadline = time.monotonic() + 5
    while _alive(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not _alive(pid)


@pytest.mark.parametrize("script, code, out, err", [
    # a status on stderr is not the prover's answer
    ('echo "% SZS status Theorem" >&2', 1, "SZS status Unknown\n", ""),
    ("exit 3", 2, "", "prover exited with status 3\n"),
    # a status line on stdout wins over a nonzero exit
    ('echo "% SZS status Theorem"\nexit 1', 0, "SZS status Theorem\n", ""),
], ids=["stderr-only", "silent-crash", "status-wins"])
def test_prove_reads_stdout_status_and_exit_code(tmp_path, sig, corpus_files,
                                                 capsys, script, code, out,
                                                 err):
    conj = next(p for p in corpus_files if p.stem == "eq_triv")
    prover = fake_prover(tmp_path, "prover", script)
    assert main(["prove", str(conj), "--sig", sig,
                 "--prover", prover]) == code
    assert capsys.readouterr() == (out, err)
