import argparse
import ast
import contextlib
import hashlib
import io
import os
import stat
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import pytest

import plakit
from plakit import (
    ControllerImage,
    Cover,
    Fault,
    Fsm,
    PlaProfile,
    Transition,
    blank_device,
    cover_eval,
    emit_fusemap,
    enumerate_faults,
    eval_pla,
    find_test_vector,
    parse_encoding,
    parse_expression,
    parse_fusemap,
    simulate_controller,
    simulate_fsm,
    synthesize_controller,
    table_from_expr,
)
from plakit import cli
from plakit.cli import _CHUNK_BITS, main, parse_profile
from plakit.fsm import _CYCLES_PER_ROW
from oracles import (eval_pla_naive, lowest_differing_row_naive, random_input_sequence,
                     random_state, seeded, simulate_controller_naive, state_from_planes)

MAJ_EQNS = "M = AB + AC + BC\n"
TOGGLE_KISS = ".i 1\n.o 1\n.r S0\n1 S0 S1 1\n1 S1 S0 0\n.e\n"


@pytest.fixture
def maj_eq_file(tmp_path):
    path = tmp_path / "maj.eqn"
    path.write_text(MAJ_EQNS)
    return str(path)


@pytest.fixture
def maj_map_file(tmp_path, maj_eq_file):
    path = tmp_path / "maj.fuse"
    assert main(["compile", maj_eq_file, "--profile", "n3p4m1", "-o", str(path)]) == 0
    return str(path)


def test_parse_profile():
    prof = parse_profile("n3p8m2")
    assert prof == PlaProfile(3, 8, 2)
    prof = parse_profile("n4p8m2:antifuse:xor")
    assert prof.switch_tech == "antifuse" and prof.has_output_xor
    assert parse_profile("n1p1m1:xor").has_output_xor
    with pytest.raises(ValueError):
        parse_profile("3x8x2")
    with pytest.raises(ValueError):
        parse_profile("n3p8m2:otp")
    assert parse_profile("n3p4m1:xor:antifuse") == PlaProfile(3, 4, 1, "antifuse", True)
    # a flag given twice, or both technologies, would let the last one win
    for spec in ("n3p4m1:fuse:antifuse", "n3p4m1:antifuse:fuse:xor", "n3p4m1:xor:xor",
                 "n3p4m1:fuse:fuse"):
        with pytest.raises(ValueError, match="bad profile"):
            parse_profile(spec)


def test_table_majority(capsys):
    assert main(["table", "AB + AC + BC", "--header"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "# A B C"
    assert out[1:] == [
        "000 0",
        "001 0",
        "010 0",
        "011 1",
        "100 0",
        "101 1",
        "110 1",
        "111 1",
    ]


def test_table_respects_order(capsys):
    assert main(["table", "A", "--order", "B,A"]) == 0
    assert capsys.readouterr().out.splitlines() == ["00 0", "01 1", "10 0", "11 1"]


@pytest.mark.parametrize("n", [1, 3, _CHUNK_BITS + 1])
def test_table_lines_are_per_row_formatting(capsys, n):
    # across the chunk boundary at n = 13; x0 alone differs between chunks
    names = [f"x{j}" for j in range(n)]
    text = " + ".join([names[0], "!" + names[-1] + " * " + names[n // 2]])
    assert main(["table", text, "--multi-letter", "--header",
                 "--order", ",".join(names)]) == 0
    table = table_from_expr(parse_expression(text, multi_letter=True), names)
    want = ["# " + " ".join(names)]
    want += [f"{i:0{n}b} {table.bits >> i & 1}" for i in range(1 << n)]
    assert capsys.readouterr().out == "\n".join(want) + "\n"


def test_table_of_twenty_variables_is_written_in_chunks():
    letters = "ABCDEFGHIJKLMNOPQRST"
    sop = " + ".join(letters[i] + letters[(i + 7) % 20] + "'" + letters[(i + 3) % 20]
                     for i in range(20))
    out = _Count()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        assert main(["table", sop]) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"took {elapsed:.2f}s, limit 2s"
    assert out.size == (20 + 3) << 20


def test_table_constant_needs_order(capsys):
    assert main(["table", "1"]) == 2
    assert "order" in capsys.readouterr().err


def test_synth_constant_equations_need_order(tmp_path, capsys):
    eq = tmp_path / "k.eqn"
    eq.write_text("K = 1\n")
    assert main(["synth", str(eq)]) == 2
    assert "constant equations: give the variables with --order" in capsys.readouterr().err
    assert main(["synth", str(eq), "--order", "A"]) == 0
    assert ".p 2\n.ilb A\n.ob K\n0 1\n1 1\n" in capsys.readouterr().out


def test_synth_refuses_a_file_with_no_equations(tmp_path, capsys):
    eq = tmp_path / "none.eqn"
    for text in ("", "\n  \n", "# a comment only\n"):
        eq.write_text(text)
        assert main(["synth", str(eq)]) == 2
        assert capsys.readouterr() == ("", "error: no equations to synthesize\n")


def test_an_empty_order_is_not_a_constant(tmp_path, capsys):
    # --order "," names no columns, which the table and synth builds refuse
    assert main(["table", "A+B", "--order", ","]) == 2
    assert capsys.readouterr().err == "error: variable order must not be empty\n"
    eq = tmp_path / "f.eqn"
    eq.write_text("F = AB + C\n")
    assert main(["synth", str(eq), "--order", ","]) == 2
    assert capsys.readouterr().err == (
        "error: equation 'F' uses variables not in order: ['A', 'B', 'C']\n")


def test_deep_bodies_are_refused_or_read_without_recursion(tmp_path, capsys):
    deep = tmp_path / "deep.eqn"
    deep.write_text("F = " + "(" * 300 + "A" + ")" * 300 + "\n")
    assert main(["compile", str(deep), "--profile", "n1p1m1"]) == 4
    assert capsys.readouterr().err == (
        "error: line 1: parentheses nested more than 100 deep (byte 101)\n")
    assert main(["table", "!(" * 200 + "A" + ")" * 200]) == 4
    assert capsys.readouterr().err == "error: parentheses nested more than 100 deep (byte 201)\n"
    # a run of marks is one loop, not one call per mark
    deep.write_text("F = " + "!" * 2000 + "A\n")
    assert main(["compile", "--minimize", str(deep), "--profile", "n1p1m1"]) == 0
    assert capsys.readouterr().out.endswith("AND\n10\nOR\n1\nEND\n")  # F = A
    assert main(["synth", str(deep)]) == 0
    assert capsys.readouterr().out.endswith(".ob F\n1 1\n.e\n")


def test_nesting_limit_is_100(tmp_path, capsys):
    body = "!(A + B(" * 50 + "C" + ")" * 100  # 100 groups, every other one negated
    eq, fuse = tmp_path / "d.eqn", tmp_path / "d.fuse"
    eq.write_text(f"F = {body}\n")
    assert main(["compile", str(eq), "--profile", "n3p8m1", "-o", str(fuse)]) == 0
    assert main(["verify", str(fuse), "--equations", str(eq)]) == 0
    assert "equivalent: 1 output(s)" in capsys.readouterr().out
    expr = parse_expression(body)
    text = plakit.format_expression(expr)
    assert plakit.format_expression(parse_expression(text)) == text
    assert table_from_expr(parse_expression(text), "ABC") == table_from_expr(expr, "ABC")
    eq.write_text("F = " + "!(A + B(" * 50 + "(C)" + ")" * 100 + "\n")
    assert main(["compile", str(eq), "--profile", "n3p8m1"]) == 4
    assert capsys.readouterr().err == (  # the 101st '(' is the body's character 401
        "error: line 1: parentheses nested more than 100 deep (byte 401)\n")


def test_synth_canonical_and_minimized(tmp_path, capsys):
    eq = tmp_path / "f.eqn"
    eq.write_text("F = ABC + A'BC + AB'C'\n")
    assert main(["synth", str(eq)]) == 0
    out = capsys.readouterr().out
    assert ".p 3" in out and "011 1" in out and "100 1" in out and "111 1" in out
    assert main(["synth", str(eq), "--minimize"]) == 0
    out = capsys.readouterr().out
    assert ".p 2" in out and "-11 1" in out and "100 1" in out


def test_synth_to_file(tmp_path, maj_eq_file):
    out_path = tmp_path / "maj.pla"
    assert main(["synth", maj_eq_file, "--minimize", "-o", str(out_path)]) == 0
    text = out_path.read_text()
    assert text.startswith(".i 3\n.o 1\n.p 3\n")
    assert text.endswith(".e\n")


def test_compile_writes_fuse_map(maj_map_file):
    fm = parse_fusemap(open(maj_map_file).read())
    assert fm.input_names == ("A", "B", "C")
    assert fm.output_names == ("M",)
    assert fm.state.and_plane[0] == (1, 0, 1, 0, 0, 0)  # AB, written order


def test_compile_report_on_stderr(tmp_path, maj_eq_file, capsys):
    assert main(["compile", maj_eq_file, "--profile", "n3p4m1", "--report"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("PLAFUSE 1\n")
    assert "terms   3/4" in captured.err
    assert "M: T0 T1 T2" in captured.err


def test_compile_capacity_exit_code(tmp_path, capsys):
    eq = tmp_path / "g.eqn"
    eq.write_text("G = A'B + AB'CD + BC' + ABD + B'C'D'\n")
    assert main(["compile", str(eq), "--profile", "n4p4m1"]) == 3
    err = capsys.readouterr().err
    assert "error: design needs 5 terms but device provides 4" in err
    assert main(["compile", str(eq), "--profile", "n4p5m1"]) == 0


def test_compile_determinism(tmp_path, maj_eq_file):
    a = tmp_path / "a.fuse"
    b = tmp_path / "b.fuse"
    main(["compile", maj_eq_file, "--profile", "n3p4m1", "-o", str(a)])
    main(["compile", maj_eq_file, "--profile", "n3p4m1", "-o", str(b)])
    assert a.read_bytes() == b.read_bytes()


_WRITERS = {  # every command that writes a file, with {out} the file under test
    "compile -o": ("compile", "{dir}/maj.eqn", "--profile", "n3p4m1", "-o", "{out}"),
    "synth -o": ("synth", "{dir}/maj.eqn", "--minimize", "-o", "{out}"),
    "fsm -o": ("fsm", "{dir}/t.kiss", "--profile", "n2p4m2", "-o", "{out}",
               "--encoding-out", "{dir}/other"),
    "fsm --encoding-out": ("fsm", "{dir}/t.kiss", "--profile", "n2p4m2", "-o", "{dir}/other",
                           "--encoding-out", "{out}"),
}


def _write(tmp_path, writer, out):
    (tmp_path / "maj.eqn").write_text(MAJ_EQNS)
    (tmp_path / "t.kiss").write_text(TOGGLE_KISS)
    return main([word.format(dir=tmp_path, out=out) for word in _WRITERS[writer]])


@pytest.mark.parametrize("writer", _WRITERS)
def test_writers_leave_exactly_the_new_bytes(tmp_path, writer):
    fresh, out = tmp_path / "fresh", tmp_path / "out"
    assert _write(tmp_path, writer, fresh) == 0
    want = fresh.read_bytes()
    for old in (want * 3 + b"old tail\n", want[:-1], b"Z", b"", b"\0" * len(want), want):
        out.write_bytes(old)
        assert _write(tmp_path, writer, out) == 0
        assert out.read_bytes() == want
    assert _write(tmp_path, writer, os.devnull) == 0


def _spy_opens(monkeypatch, path):
    """The modes `path` is opened with, through open() or Path.open()."""
    modes, io_open = [], io.open

    def spy(file, mode="r", *args, **kwargs):
        if not isinstance(file, int) and Path(file) == path:
            modes.append(mode)
        return io_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(io, "open", spy)
    monkeypatch.setattr("builtins.open", spy)
    return modes


def test_writers_open_a_fifo_once(tmp_path, monkeypatch):
    """`-o` on a FIFO (or `>(cmd)`) is opened once, to write: an open to compare
    first would show its reader a writer that comes and goes, then end of file."""
    fresh, fifo = tmp_path / "fresh", tmp_path / "fifo"
    assert _write(tmp_path, "compile -o", fresh) == 0
    os.mkfifo(fifo)
    modes, got = _spy_opens(monkeypatch, fifo), []

    def read():
        with open(os.open(fifo, os.O_RDONLY), "rb") as f:
            got.append(f.read())

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    writer = threading.Thread(target=_write, args=(tmp_path, "compile -o", fifo), daemon=True)
    writer.start()
    writer.join(10)
    if writer.is_alive():  # its reader is gone: open another so the writer can finish
        os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
    reader.join(10)
    assert modes == ["w"] and got == [fresh.read_bytes()]


def test_a_new_file_gets_0o666_less_the_umask(tmp_path):
    for umask in (0o022, 0o077, 0):
        out = tmp_path / f"new{umask:o}"
        old = os.umask(umask)
        try:
            assert _write(tmp_path, "compile -o", out) == 0
        finally:
            os.umask(old)
        assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask


def test_a_non_ascii_label_round_trips(tmp_path):
    eqn, fuse = tmp_path / "u.eqn", tmp_path / "u.fuse"
    eqn.write_text("Y = \u03b1 + B\n")
    fuse.write_text("old\n" * 50)
    assert main(["compile", str(eqn), "--profile", "n2p2m1", "-o", str(fuse)]) == 0
    assert parse_fusemap(fuse.read_text()).input_names == ("\u03b1", "B")
    assert main(["verify", str(fuse), "--equations", str(eqn)]) == 0


@pytest.mark.parametrize("writer", _WRITERS)
def test_writers_report_a_bad_path_as_before(tmp_path, writer, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    missing, directory = "[Errno 2] No such file or directory", "[Errno 21] Is a directory"
    for out, message in (("", f"{directory}: '.'"),
                         ("./nodir/x.fuse", f"{missing}: 'nodir/x.fuse'"),
                         ("a//nodir/x", f"{missing}: 'a/nodir/x'"), ("d", f"{directory}: 'd'"),
                         ("x" * 300, f"[Errno 36] File name too long: '{'x' * 300}'")):
        assert _write(tmp_path, writer, out) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_compile_over_its_own_output_leaves_the_bytes_and_moves_the_mtime(tmp_path, monkeypatch):
    """A rewrite opens the file with O_TRUNC, which on ext4 (auto_da_alloc) starts
    writeback on close; a file that already holds the output is only touched. Any
    other file is still rewritten with O_TRUNC ("w"), so an interrupted write never
    leaves an old image that parses."""
    out = tmp_path / "maj.fuse"
    assert _write(tmp_path, "compile -o", out) == 0
    want, modes = out.read_bytes(), _spy_opens(monkeypatch, out)
    os.utime(out, (0, 0))
    assert _write(tmp_path, "compile -o", out) == 0
    assert modes == ["rb+"] and out.read_bytes() == want and out.stat().st_mtime > 0
    out.write_bytes(want.replace(b"PLAFUSE", b"PLAFUSX"))
    modes.clear()
    assert _write(tmp_path, "compile -o", out) == 0
    assert modes == ["rb+", "w"] and out.read_bytes() == want


def test_every_file_write_in_the_cli_goes_through_write_text():
    """So a new command gets the same writer: outside _write_text, cli.py opens
    no file and writes only to sys.stdout and sys.stderr."""
    tree = ast.parse(Path(cli.__file__).read_text())
    writer = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_write_text")
    inside = set(map(id, ast.walk(writer)))
    streams = {"sys.stdout", "sys.stderr"}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if id(node) in inside:
            continue
        assert name not in {"write_text", "write_bytes"}, ast.unparse(node)
        assert name not in {"open", "fdopen"}, ast.unparse(node)
        if name in {"write", "writelines"}:
            assert ast.unparse(func.value) in streams, ast.unparse(node)
        if name == "print":
            files = [ast.unparse(kw.value) for kw in node.keywords if kw.arg == "file"]
            assert set(files) <= streams, ast.unparse(node)


def test_compile_polarity_pipeline(tmp_path, capsys):
    eq = tmp_path / "g.eqn"
    eq.write_text("G = AB + C'\n")
    fuse = tmp_path / "g.fuse"
    rc = main(
        ["compile", str(eq), "--profile", "n3p8m1:xor", "--polarity", "G",
         "-o", str(fuse)]
    )
    assert rc == 0
    assert "POL 1" in fuse.read_text()
    # the pin function is unchanged, so verify still passes
    assert main(["verify", str(fuse), "--equations", str(eq)]) == 0
    out = capsys.readouterr().out
    assert "equivalent: 1 output(s) verified over 8 input vectors" in out


def test_sim_all_vectors(maj_map_file, capsys):
    assert main(["sim", maj_map_file, "--vectors", "all"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "000 0",
        "001 0",
        "010 0",
        "011 1",
        "100 0",
        "101 1",
        "110 1",
        "111 1",
    ]


def test_sim_all8_accepted_all4_rejected(maj_map_file, capsys):
    assert main(["sim", maj_map_file, "--vectors", "all8"]) == 0
    capsys.readouterr()
    assert main(["sim", maj_map_file, "--vectors", "all4"]) == 2
    assert "2^3 = 8" in capsys.readouterr().err


def test_sim_all_matches_explicit_vectors(tmp_path, capsys):
    eq = tmp_path / "xor.eqn"
    eq.write_text("F = AB + C'D\nG = A + BD\nH = A'B'C\n")
    fuse = tmp_path / "xor.fuse"
    assert main(["compile", str(eq), "--profile", "n4p8m3:antifuse:xor",
                 "--minimize", "--polarity", "G", "-o", str(fuse)]) == 0
    vectors = tmp_path / "v.txt"
    vectors.write_text("".join(format(r, "04b") + "\n" for r in range(16)))
    capsys.readouterr()
    for extra in ([], ["--header"]):
        assert main(["sim", str(fuse), "--vectors", "all"] + extra) == 0
        streamed = capsys.readouterr().out
        assert main(["sim", str(fuse), "--vectors", str(vectors)] + extra) == 0
        assert streamed == capsys.readouterr().out
        assert len(streamed.splitlines()) == 16 + len(extra)


def test_sim_vector_file_and_header(tmp_path, maj_map_file, capsys):
    vectors = tmp_path / "v.txt"
    vectors.write_text("# spot checks\n110\n000\n\n111\n")
    assert main(["sim", maj_map_file, "--vectors", str(vectors), "--header"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["# A B C | M", "110 1", "000 0", "111 1"]


def test_sim_bad_vector_line(tmp_path, maj_map_file, capsys):
    vectors = tmp_path / "v.txt"
    vectors.write_text("01\n")
    assert main(["sim", maj_map_file, "--vectors", str(vectors)]) == 4
    assert "not 3 binary digits" in capsys.readouterr().err


FOUR_INPUT_FSM = Fsm(4, 1, ("S0",), "S0", (Transition("1---", "S0", "S0", "1"),))
VECTOR_ENTRY_POINTS = {
    "eval_pla": lambda bits: eval_pla(blank_device(PlaProfile(4, 1, 1)), bits),
    "cover_eval": lambda bits: cover_eval(Cover(tuple("ABCD"), ("1---",)), bits),
    "simulate_fsm": lambda bits: simulate_fsm(FOUR_INPUT_FSM, [bits]),
    "simulate_controller": lambda bits: simulate_controller(
        synthesize_controller(FOUR_INPUT_FSM, PlaProfile(5, 2, 2))[0], [bits]
    ),
}


@pytest.mark.parametrize(
    "entry, bits",
    [
        (entry, bits)
        for entry in (*VECTOR_ENTRY_POINTS, "sim --vectors FILE")
        for bits in ("", "0120", "010", [0, 2])
        # a vector file cannot hold the empty vector: blank lines are skipped
        if bits or entry in VECTOR_ENTRY_POINTS
    ],
)
def test_every_vector_entry_point_rejects_bad_vectors(entry, bits, tmp_path, capsys):
    if entry in VECTOR_ENTRY_POINTS:
        with pytest.raises(ValueError, match="not 4 binary digits"):
            VECTOR_ENTRY_POINTS[entry](bits)
        return
    fuse = tmp_path / "n4.fuse"
    fuse.write_text(emit_fusemap(blank_device(PlaProfile(4, 1, 1))))
    vectors = tmp_path / "v.txt"
    vectors.write_text("".join(map(str, bits)) + "\n")
    assert main(["sim", str(fuse), "--vectors", str(vectors)]) == 4
    err = capsys.readouterr().err
    assert "vectors line 1:" in err and "not 4 binary digits" in err


def test_sim_fusemap_from_stdin(maj_map_file, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(open(maj_map_file).read()))
    assert main(["sim", "--vectors", "all"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 8


def test_sim_two_stdin_sources_rejected(capsys):
    assert main(["sim", "-", "--vectors", "-"]) == 2
    assert "stdin" in capsys.readouterr().err
    assert main(["fsmsim", "-", "--encoding", "unread.enc", "--vectors", "-"]) == 2
    assert "fuse map and vectors cannot both come from stdin" in capsys.readouterr().err


def test_verify_equivalent(maj_map_file, maj_eq_file, capsys):
    assert main(["verify", maj_map_file, "--equations", maj_eq_file]) == 0
    out = capsys.readouterr().out
    assert out == "equivalent: 1 output(s) verified over 8 input vectors\n"


def test_verify_refuses_repeated_ob_name(tmp_path, capsys):
    eqns = tmp_path / "fg.eqn"
    eqns.write_text("F = AB + AC + BC\nG = A\n")
    fuse = tmp_path / "fg.fuse"
    assert main(["compile", str(eqns), "--profile", "n3p4m2", "-o", str(fuse)]) == 0
    fuse.write_text(fuse.read_text().replace("OB F G", "OB F F"))
    eqns.write_text("F = AB + AC + BC\n")
    assert main(["verify", str(fuse), "--equations", str(eqns)]) == 4
    assert "OB repeats a name: F F" in capsys.readouterr().err


def test_verify_mismatch(tmp_path, maj_map_file, capsys):
    wrong = tmp_path / "wrong.eqn"
    wrong.write_text("M = AB\n")
    assert main(["verify", maj_map_file, "--equations", str(wrong)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("MISMATCH M: input ")
    assert "device=" in out and "expected=" in out


def test_verify_matches_outputs_by_name(tmp_path, capsys):
    eq = tmp_path / "two.eqn"
    eq.write_text("F = AB\nG = A + B\n")
    fuse = tmp_path / "two.fuse"
    assert main(["compile", str(eq), "--profile", "n2p4m2", "-o", str(fuse)]) == 0
    # equations listed in the other order still verify by OB name
    swapped = tmp_path / "swapped.eqn"
    swapped.write_text("G = A + B\nF = AB\n")
    assert main(["verify", str(fuse), "--equations", str(swapped)]) == 0
    capsys.readouterr()


def test_verify_refuses_equation_with_no_ob_label(tmp_path, capsys):
    eq = tmp_path / "two.eqn"
    eq.write_text("F = AB\nG = A + B\n")
    fuse = tmp_path / "two.fuse"
    assert main(["compile", str(eq), "--profile", "n2p4m2", "-o", str(fuse)]) == 0
    other = tmp_path / "h.eqn"
    other.write_text("H = AB\n")
    assert main(["verify", str(fuse), "--equations", str(other)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'H'" in captured.err and "F G" in captured.err
    # a map without OB labels still pairs equations by position
    unlabelled = tmp_path / "unlabelled.fuse"
    unlabelled.write_text(
        "".join(l for l in fuse.read_text().splitlines(True) if not l.startswith("OB"))
    )
    assert main(["verify", str(unlabelled), "--equations", str(other)]) == 0
    assert capsys.readouterr().out.startswith("equivalent: 1 output(s)")


def test_verify_var_order_override(tmp_path, capsys):
    eq = tmp_path / "f.eqn"
    eq.write_text("F = AB'\n")
    fuse = tmp_path / "f.fuse"
    assert main(["compile", str(eq), "--profile", "n2p2m1", "-o", str(fuse)]) == 0
    # under the swapped order the same map computes A'B, i.e. not F
    assert main(["verify", str(fuse), "--equations", str(eq),
                 "--var-order", "B,A"]) == 1
    capsys.readouterr()


def test_verify_too_many_equations(tmp_path, maj_map_file, capsys):
    eq = tmp_path / "many.eqn"
    eq.write_text("M = A\nN = B\n")
    assert main(["verify", maj_map_file, "--equations", str(eq)]) == 2
    assert "2 equations but the device has 1" in capsys.readouterr().err


def test_verify_refuses_a_file_with_no_equations(tmp_path, maj_map_file, capsys):
    eq = tmp_path / "none.eqn"
    for text in ("", "\n  \n", "# a comment only\n"):
        eq.write_text(text)
        assert main(["verify", maj_map_file, "--equations", str(eq)]) == 2
        assert capsys.readouterr() == ("", "error: no equations to verify\n")


def test_compile_refuses_variables_outside_its_order(tmp_path, capsys):
    # every missing name is listed, on the SOP and table paths alike
    eq = tmp_path / "m.eqn"
    eq.write_text("M = AD + (B + C)'\n")
    for extra in ([], ["--minimize"]):
        assert main(["compile", str(eq), "--profile", "n3p8m1", "--order", "A,B", *extra]) == 2
        assert (capsys.readouterr().err
                == "error: equation 'M' uses variables not in order: ['C', 'D']\n")


def test_verify_refuses_variables_the_device_lacks(tmp_path, maj_map_file, capsys):
    eq = tmp_path / "m.eqn"
    eq.write_text("M = AD\n")
    assert main(["verify", maj_map_file, "--equations", str(eq)]) == 2
    assert "equation 'M' uses variables not on the device: ['D']" in capsys.readouterr().err
    assert main(["verify", maj_map_file, "--equations", str(eq),
                 "--var-order", "A,B,C,D"]) == 2
    assert "4 variables but the device has 3 inputs" in capsys.readouterr().err


def test_outside_names_win_over_a_repeated_order(tmp_path, capsys):
    # compile and synth name the first equation, in file order, with a name
    # outside the order, even when the order itself is refused too
    eq = tmp_path / "fg.eqn"
    for argv in (["compile", str(eq), "--profile", "n3p8m3"], ["synth", str(eq)],
                 ["synth", str(eq), "--minimize"]):
        eq.write_text("F = AB\nG = AC + D\nH = E\n")
        for order in ("A,B", "A,A,B"):
            assert main(argv + ["--order", order]) == 2
            assert capsys.readouterr() == (
                "", "error: equation 'G' uses variables not in order: ['C', 'D']\n")
        eq.write_text("F = AB\n")
        assert main(argv + ["--order", "A,A,B"]) == 2
        assert "duplicate variable in order" in capsys.readouterr().err


def test_minimized_commands_refuse_as_before(tmp_path, capsys, monkeypatch):
    # one prime walk serves every output; a design too wide for the minimizer
    # is refused before any table is built, with the message each output's
    # own minimize call gave, and a name outside the order still wins
    names = [chr(ord("a") + j) for j in range(17)]
    wide, order = " ".join(names), ",".join(names)
    eq = tmp_path / "w.eqn"
    built, body_mask = [], cli._body_mask
    for module in (cli, plakit.logic):  # synth's tables, and compile's through fit
        monkeypatch.setattr(module, "_body_mask",
                            lambda *args: built.append(args) or body_mask(*args))
    for argv in (["compile", str(eq), "--profile", "n17p64m3", "--minimize"],
                 ["synth", str(eq), "--minimize"]):
        cases = ((f"F = {wide}\nG = a b' + q\nH = {wide}\n", order, 0,
                  "17 variables exceeds the minimizer limit of 16"),
                 (f"F = {wide}\nG = a z\n", order, 0,
                  "equation 'G' uses variables not in order: ['z']"),
                 ("F = a b + c\nG = a z + b\n", "a,b,c", 2,
                  "equation 'G' uses variables not in order: ['z']"))
        for text, names_given, tables, err in cases:
            eq.write_text(text)
            built.clear()
            assert main(argv + ["--order", names_given]) == 2
            assert capsys.readouterr() == ("", f"error: {err}\n")
            assert len(built) == tables


def test_verify_builds_every_table_before_naming_outputs(tmp_path, capsys):
    eq = tmp_path / "two.eqn"
    eq.write_text("F = AB\nG = A + B\n")
    fuse = tmp_path / "two.fuse"
    assert main(["compile", str(eq), "--profile", "n2p4m2", "-o", str(fuse)]) == 0
    cases = (
        # an equation naming no OB output, after one that verifies
        ("F = AB\nH = A\n", "error: equation 'H' names no output of the fuse map (OB: F G)\n"),
        # a name the device lacks wins over an earlier unknown output...
        ("H = A\nF = AC\n", "error: equation 'F' uses variables not on the device: ['C']\n"),
        # ...and over an earlier mismatch
        ("F = A\nG = C\n", "error: equation 'G' uses variables not on the device: ['C']\n"),
    )
    for text, err in cases:
        eq.write_text(text)
        assert main(["verify", str(fuse), "--equations", str(eq)]) == 2
        assert capsys.readouterr() == ("", err)
    # an unknown output after a mismatch is never reached
    eq.write_text("F = A\nH = B\n")
    assert main(["verify", str(fuse), "--equations", str(eq)]) == 1
    assert capsys.readouterr().out.startswith("MISMATCH F: input ")


def test_valid_compile_and_verify_never_walk_for_names(tmp_path, capsys, monkeypatch):
    # the missing-name walk runs only once a build has failed
    calls, variables = [], plakit.expr.variables

    def counted(*exprs):
        calls.append(exprs)
        return variables(*exprs)

    monkeypatch.setattr(plakit.expr, "variables", counted)
    monkeypatch.setattr(plakit.cli, "variables", counted)
    eq = tmp_path / "fg.eqn"
    eq.write_text("F = AB + A'C\nG = B'C + A\n")
    fuse = tmp_path / "fg.fuse"
    for extra in ([], ["--minimize"], ["--polarity", "G"]):
        assert main(["compile", str(eq), "--profile", "n3p8m2:xor", "--order", "A,B,C",
                     "-o", str(fuse), *extra]) == 0
        assert main(["verify", str(fuse), "--equations", str(eq)]) == 0
    assert calls == []
    capsys.readouterr()
    # nor on an unlabelled map, of a group that flattens to literals
    fuse.write_text("".join(l for l in fuse.read_text().splitlines(True)
                            if not l.startswith("ILB")))
    eq.write_text("F = (AB) + A'C\n")
    assert main(["verify", str(fuse), "--equations", str(eq)]) == 0
    assert calls == []
    # the counters do see the walks: a failed build names its missing
    # variables, and verify on an unlabelled map of a body that keeps a
    # group takes its first-appearance order from the group's variables
    checked, check_names = [], plakit.expr.check_names

    def counted_check(*args):
        checked.append(args)
        return check_names(*args)

    for module in (plakit.expr, plakit.cli):  # compile's, through fit, and the CLI's
        monkeypatch.setattr(module, "check_names", counted_check)
    eq.write_text("F = AD\n")
    for argv in (["compile", str(eq), "--profile", "n3p8m2", "--order", "A,B,C"],
                 ["synth", str(eq), "--order", "A,B,C"],
                 ["verify", str(fuse), "--equations", str(eq), "--var-order", "A,B,C"]):
        assert main(argv) == 2, argv
    assert len(checked) == 3
    eq.write_text("F = A(B + B) + A'C\n")
    assert main(["verify", str(fuse), "--equations", str(eq)]) == 0
    assert calls
    capsys.readouterr()


def test_sim_vector_file_matches_the_oracle_on_a_wide_part(tmp_path, capsys):
    rng = seeded(79)
    prof = PlaProfile(24, 40, 3, "antifuse", has_output_xor=True)
    state = random_state(rng, prof, 0.04)
    fuse = tmp_path / "wide.fuse"
    fuse.write_text(emit_fusemap(state))
    vectors = ["0" * 24, "1" * 24] + [format(rng.getrandbits(24), "024b") for _ in range(60)]
    path = tmp_path / "v.txt"
    path.write_text("\n".join(vectors) + "\n")
    assert main(["sim", str(fuse), "--vectors", str(path)]) == 0
    expected = "".join(f"{v} {eval_pla_naive(state, v)}\n" for v in vectors)
    assert capsys.readouterr().out == expected


def test_diagram(maj_map_file, capsys):
    assert main(["diagram", maj_map_file]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "     A A' B B' C C' | M"
    assert out.count("X") == 9  # three 2-literal terms + three OR points


def test_fsm_pipeline(tmp_path, capsys):
    kiss = tmp_path / "toggle.kiss"
    kiss.write_text(TOGGLE_KISS)
    fuse = tmp_path / "toggle.fuse"
    enc = tmp_path / "toggle.enc"
    rc = main(
        ["fsm", str(kiss), "--profile", "n2p4m2",
         "-o", str(fuse), "--encoding-out", str(enc), "--report"]
    )
    assert rc == 0
    assert "PLAENC 1" in enc.read_text()
    captured = capsys.readouterr()
    assert "ns0:" in captured.err

    vectors = tmp_path / "v.txt"
    vectors.write_text("1\n1\n1\n")
    assert main(["fsmsim", str(fuse), "--encoding", str(enc),
                 "--vectors", str(vectors), "--names"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["0 0 1 S0", "1 1 0 S1", "2 0 1 S0"]
    assert main(["fsmsim", str(fuse), "--encoding", str(enc),
                 "--vectors", str(vectors)]) == 0
    assert capsys.readouterr().out.splitlines() == ["0 0 1", "1 1 0", "2 0 1"]
    assert main(["fsmsim", str(fuse), "--encoding", str(enc),
                 "--vectors", str(vectors), "--header"]) == 0
    assert capsys.readouterr().out.splitlines() == ["# cycle state out", "0 0 1",
                                                    "1 1 0", "2 0 1"]
    # runs either side of the mask path's size rule: 2 (state code, input) rows
    image = ControllerImage(parse_fusemap(fuse.read_text()).state,
                            parse_encoding(enc.read_text()))
    rng = seeded(1022)
    for cycles in (2 * _CYCLES_PER_ROW - 1, 2 * _CYCLES_PER_ROW):
        seq = random_input_sequence(rng, 1, cycles)
        vectors.write_text("\n".join(seq) + "\n")
        want = "# cycle state out\n" + "".join(
            f"{cycle} {code} {outs} S{int(code)}\n"
            for cycle, (code, outs) in enumerate(simulate_controller_naive(image, seq)))
        assert main(["fsmsim", str(fuse), "--encoding", str(enc),
                     "--vectors", str(vectors), "--names", "--header"]) == 0
        assert capsys.readouterr().out == want


def test_fsm_strict_exit(tmp_path, capsys):
    kiss = tmp_path / "toggle.kiss"
    kiss.write_text(TOGGLE_KISS)
    assert main(["fsm", str(kiss), "--profile", "n2p4m2", "--strict"]) == 2
    assert "unmatched" in capsys.readouterr().err


def test_fsm_zero_input_declaration_is_malformed(tmp_path, capsys):
    kiss = tmp_path / "none.kiss"
    kiss.write_text(".i 0\n.o 1\n1 S0 S1 1\n.e\n")
    assert main(["fsm", str(kiss), "--profile", "n2p4m2"]) == 4
    assert "line 1: .i must declare at least one signal" in capsys.readouterr().err


def test_fsm_input_declaration_over_the_limit_is_malformed(tmp_path, capsys):
    kiss = tmp_path / "wide.kiss"
    kiss.write_text(".i 40\n.o 1\n" + "1" * 40 + " S0 S0 1\n.e\n")
    assert main(["fsm", str(kiss), "--profile", "n2p4m2"]) == 4
    assert "line 1: .i 40 is more signals than the limit of 24" in capsys.readouterr().err


def test_padded_output_names_do_not_collide(tmp_path, capsys):
    eqns = tmp_path / "f1.eqn"
    eqns.write_text("f1 = AB\n")
    fuse = tmp_path / "f1.fuse"
    assert main(["compile", str(eqns), "--profile", "n2p2m2", "-o", str(fuse)]) == 0
    fm = parse_fusemap(fuse.read_text())
    assert fm.output_names == ("f1", "_f1")
    assert main(["verify", str(fuse), "--equations", str(eqns)]) == 0
    assert capsys.readouterr().out.startswith("equivalent: 1 output(s)")


def test_fsmsim_rejects_all(tmp_path, capsys):
    kiss = tmp_path / "toggle.kiss"
    kiss.write_text(TOGGLE_KISS)
    fuse = tmp_path / "toggle.fuse"
    enc = tmp_path / "toggle.enc"
    main(["fsm", str(kiss), "--profile", "n2p4m2",
          "-o", str(fuse), "--encoding-out", str(enc)])
    capsys.readouterr()
    assert main(["fsmsim", str(fuse), "--encoding", str(enc),
                 "--vectors", "all"]) == 2
    assert "sequence" in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    ("OUTPUTS -3", "at least one output"),
    ("INPUTS 0", "at least one input"),
])
def test_fsmsim_nonpositive_encoding_count_is_malformed(tmp_path, capsys, line, message):
    kiss = tmp_path / "toggle.kiss"
    kiss.write_text(TOGGLE_KISS)
    fuse = tmp_path / "toggle.fuse"
    enc = tmp_path / "toggle.enc"
    main(["fsm", str(kiss), "--profile", "n2p4m2",
          "-o", str(fuse), "--encoding-out", str(enc)])
    key = line.split()[0]
    enc.write_text(enc.read_text().replace(f"{key} 1", line))
    vectors = tmp_path / "v.txt"
    vectors.write_text("1\n1\n")
    capsys.readouterr()
    assert main(["fsmsim", str(fuse), "--encoding", str(enc),
                 "--vectors", str(vectors)]) == 4
    assert message in capsys.readouterr().err


def test_fsmsim_refuses_a_huge_state_bit_count(tmp_path, capsys):
    kiss = tmp_path / "toggle.kiss"
    kiss.write_text(TOGGLE_KISS)
    fuse = tmp_path / "toggle.fuse"
    enc = tmp_path / "toggle.enc"
    main(["fsm", str(kiss), "--profile", "n2p4m2",
          "-o", str(fuse), "--encoding-out", str(enc)])
    enc.write_text(enc.read_text().replace("BITS 1", "BITS 100000000000"))
    vectors = tmp_path / "v.txt"
    vectors.write_text("1\n")
    capsys.readouterr()
    start = time.perf_counter()
    assert main(["fsmsim", str(fuse), "--encoding", str(enc),
                 "--vectors", str(vectors)]) == 4
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "100000000000 state bits exceeds the limit of 24" in err
    assert "Traceback" not in err


def test_fsmsim_encoding_device_mismatch(tmp_path, maj_map_file, capsys):
    enc = tmp_path / "big.enc"
    enc.write_text(
        "PLAENC 1\nBITS 2\nINPUTS 2\nOUTPUTS 2\nSTATE S0 0\nEND\n"
    )
    assert main(["fsmsim", maj_map_file, "--encoding", str(enc),
                 "--vectors", "-"]) == 2
    assert "encoding wants 4 inputs" in capsys.readouterr().err


def test_fsmsim_refuses_a_combinational_fuse_map(tmp_path, capsys):
    eqns = tmp_path / "fg.eqn"
    eqns.write_text("F = AB + C\nG = A'C\n")
    fuse = tmp_path / "fg.fuse"
    assert main(["compile", str(eqns), "--profile", "n3p4m2", "-o", str(fuse)]) == 0
    enc = tmp_path / "one.enc"
    enc.write_text("PLAENC 1\nBITS 1\nINPUTS 2\nOUTPUTS 1\nSTATE S0 0\nEND\n")
    vectors = tmp_path / "v.txt"
    vectors.write_text("10\n")
    capsys.readouterr()
    assert main(["fsmsim", str(fuse), "--encoding", str(enc),
                 "--vectors", str(vectors)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "device inputs A B C are not the controller's s0 i0 i1" in captured.err


def test_fault_single_and_gate(maj_map_file, capsys):
    rc = main(["fault", maj_map_file, "--fault", "or,0,0,disconnected"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "or[0,0] stuck-disconnected: 110"
    assert out[1] == "coverage: 1/1 detected (100.0%)"

    rc = main(
        ["fault", maj_map_file,
         "--fault", "or,0,0,disconnected",
         "--fault", "or,0,3,connected",
         "--require-full-coverage"]
    )
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "or[0,3] stuck-connected: 000"  # spare row is constant 1
    assert out[2] == "coverage: 2/2 detected (100.0%)"


def test_fault_all_with_gate(maj_map_file, capsys):
    assert main(["fault", maj_map_file, "--all"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2 * (4 * 6) + 2 * (1 * 4) + 1
    assert out[-1].startswith("coverage: ")
    # stuck-at-programmed faults exist, so the gate trips
    assert main(["fault", maj_map_file, "--all", "--require-full-coverage"]) == 1
    capsys.readouterr()


def test_fault_usage_errors(maj_map_file, capsys):
    assert main(["fault", maj_map_file]) == 2
    assert "--fault specs or --all" in capsys.readouterr().err
    assert main(["fault", maj_map_file, "--fault", "nand,0,0,connected"]) == 2
    assert "bad fault" in capsys.readouterr().err
    assert main(["fault", maj_map_file, "--fault", "and,9,0,connected"]) == 2
    assert "no crosspoint" in capsys.readouterr().err


def test_exit_codes_for_bad_files(tmp_path, capsys):
    assert main(["sim", str(tmp_path / "absent.fuse"), "--vectors", "all"]) == 2
    assert "cannot read" in capsys.readouterr().err
    bad = tmp_path / "bad.fuse"
    bad.write_text("not a fuse map\n")
    assert main(["sim", str(bad), "--vectors", "all"]) == 4
    assert "PLAFUSE" in capsys.readouterr().err
    for row in ("_1", "+1"):  # int(row, 2) reads both
        bad.write_text(f"PLAFUSE 1\nTECH fuse XOR 0\nDIM 1 1 1\nAND\n{row}\nOR\n1\nEND\n")
        assert main(["sim", str(bad), "--vectors", "all"]) == 4
        assert "illegal characters" in capsys.readouterr().err
    bad_eq = tmp_path / "bad.eqn"
    bad_eq.write_text("F =\n")
    assert main(["synth", str(bad_eq)]) == 4
    capsys.readouterr()


def test_oversized_dim_is_a_malformed_fuse_map(tmp_path, capsys):
    wide = tmp_path / "wide.fuse"
    wide.write_text(
        "PLAFUSE 1\nTECH fuse XOR 0\nDIM 30 1 1\nAND\n" + "0" * 60 + "\nOR\n1\nEND\n"
    )
    for argv in (["sim", str(wide), "--vectors", "all"], ["diagram", str(wide)],
                 ["fault", str(wide), "--all"]):
        assert main(argv) == 4
        assert "DIM asks for 30 inputs" in capsys.readouterr().err


def test_no_command_prints_help(capsys):
    assert main([]) == 2
    assert "usage:" in capsys.readouterr().err


def test_unknown_command():
    assert main(["frobnicate"]) == 2


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.startswith("plakit ")


def test_module_entry_point():
    # the child process imports the same package this test imported
    src = str(Path(plakit.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "plakit", "table", "A'"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["0 1", "1 0"]


def test_fault_all_and_fault_are_mutually_exclusive(maj_map_file, capsys):
    for spec in ("bogus", "or,0,0,disconnected"):
        assert main(["fault", maj_map_file, "--all", "--fault", spec]) == 2
        captured = capsys.readouterr()
        assert "not allowed with argument" in captured.err and captured.out == ""


def test_kept_parser_carries_no_state_between_calls(maj_map_file, capsys):
    assert main(["fault", maj_map_file, "--fault", "or,0,0,disconnected"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "or[0,0] stuck-disconnected: 110", "coverage: 1/1 detected (100.0%)"]
    assert main(["fault", maj_map_file, "--fault", "and,0,0,connected"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2 and out[0].startswith("and[0,0] stuck-connected: ")

    assert main(["sim", maj_map_file, "--vectors", "all", "--header"]) == 0
    assert capsys.readouterr().out.startswith("# A B C | M\n")
    assert main(["sim", maj_map_file, "--vectors", "all"]) == 0
    assert capsys.readouterr().out.startswith("000 0\n")

    assert main(["--version"]) == 0
    assert main(["-h"]) == 0
    assert "usage:" in capsys.readouterr().out
    assert main([]) == 2
    assert main(["sim", maj_map_file, "--vectors", "all", "--bogus"]) == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err


def _planted_state(rng, n, tech, xor):
    """A random image with a contradictory AND row, an all-zero AND row and
    an unconnected OR row planted among random ones."""
    prof = PlaProfile(n, rng.randint(3, 6), rng.randint(2, 3), tech, xor)
    state = random_state(rng, prof, rng.choice((0.15, 0.3, 0.5)))
    and_plane = [list(row) for row in state.and_plane]
    or_plane = [list(row) for row in state.or_plane]
    j = rng.randrange(n)
    and_plane[0][2 * j] = and_plane[0][2 * j + 1] = 1
    and_plane[1] = [0] * (2 * n)
    or_plane[0][0] = or_plane[0][1] = 1
    or_plane[-1] = [0] * prof.n_terms
    return state_from_planes(prof, and_plane, or_plane, state.polarity)


def _fault_all(tmp_path, capsys, state, *flags):
    """Run `fault --all` on the image, check every line against find_test_vector
    and the brute-force oracle, and return (exit code, faults detected)."""
    fuse = tmp_path / "image.fuse"
    fuse.write_text(emit_fusemap(state))
    code = main(["fault", str(fuse), "--all", *flags])
    lines = capsys.readouterr().out.splitlines()
    faults = enumerate_faults(state.profile)
    assert len(lines) == len(faults) + 1
    detected = 0
    for line, fault in zip(lines, faults):
        want = lowest_differing_row_naive(state, fault)
        assert find_test_vector(state, fault) == want, fault
        assert line == f"{fault}: {find_test_vector(state, fault) or 'undetectable'}"
        detected += want is not None
    pct = 100.0 * detected / len(faults)
    assert lines[-1] == f"coverage: {detected}/{len(faults)} detected ({pct:.1f}%)"
    return code, detected


def test_fault_all_matches_find_test_vector_and_oracle(tmp_path, capsys):
    rng = seeded(61)
    cases = [(n, tech, xor) for n in range(1, 10)
             for tech in ("fuse", "antifuse") for xor in (False, True)]
    cases.append((16, "antifuse", True))
    for n, tech, xor in cases:
        state = _planted_state(rng, n, tech, xor)
        assert _fault_all(tmp_path, capsys, state)[0] == 0


def test_fault_all_on_blank_devices(tmp_path, capsys):
    # A blank fuse array ties every term to x and x' of every input, so from
    # two inputs up no single crosspoint changes an output. A blank antifuse
    # array's terms are the constant 1 and feed nothing: only connecting one
    # to an output shows, at row 0.
    for n in (1, 2, 3, 6):
        for tech in ("fuse", "antifuse"):
            for xor in (False, True):
                prof = PlaProfile(n, 3, 2, tech, xor)
                state = blank_device(prof)
                assert _fault_all(tmp_path, capsys, state)[0] == 0
                code, detected = _fault_all(tmp_path, capsys, state, "--require-full-coverage")
                assert code == 1
                if tech == "antifuse":
                    assert detected == prof.n_outputs * prof.n_terms
                    assert {find_test_vector(state, Fault("or", o, t, "connected"))
                            for o in range(2) for t in range(3)} == {"0" * n}
                elif n > 1:  # so the last line reads coverage: 0/N detected (0.0%)
                    assert detected == 0


def test_sim_all_chunks_match_explicit_vectors(tmp_path, capsys):
    rng = seeded(67)
    for n in (_CHUNK_BITS - 1, _CHUNK_BITS, _CHUNK_BITS + 1):
        prof = PlaProfile(n, 6, 3, "fuse", has_output_xor=True)
        state = random_state(rng, prof, 0.08)
        # term 0 is the first input alone, so output 0 differs between chunks
        and_plane = ((1,) + (0,) * (2 * n - 1),) + state.and_plane[1:]
        or_plane = ((1,) + state.or_plane[0][1:],) + state.or_plane[1:]
        state = state_from_planes(prof, and_plane, or_plane, (1, 0, 1))
        fuse = tmp_path / "image.fuse"
        fuse.write_text(emit_fusemap(state))
        vectors = tmp_path / "v.txt"
        vectors.write_text("".join(format(r, f"0{n}b") + "\n" for r in range(1 << n)))
        for extra in ([], ["--header"]):
            assert main(["sim", str(fuse), "--vectors", "all"] + extra) == 0
            swept = capsys.readouterr().out.splitlines()
            assert main(["sim", str(fuse), "--vectors", str(vectors)] + extra) == 0
            explicit = capsys.readouterr().out.splitlines()
            assert len(swept) == len(explicit) == (1 << n) + len(extra)
            # the first differing line, not a diff of 2^n lines
            assert next(filter(lambda pair: pair[0] != pair[1], zip(swept, explicit)),
                        None) is None


class _Discard(io.TextIOBase):
    def write(self, text):
        return len(text)


class _Count(io.TextIOBase):
    size = 0

    def write(self, text):
        self.size += len(text)
        return len(text)


def test_sim_all_formats_a_chunk_at_a_time(tmp_path):
    # 20 inputs x 8 outputs: the full columns alone would be 8 x 2^20 characters
    rng = seeded(71)
    prof = PlaProfile(20, 8, 8)
    fuse = tmp_path / "wide.fuse"
    fuse.write_text(emit_fusemap(random_state(rng, prof, 0.05)))
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(_Discard()):
            assert main(["sim", str(fuse), "--vectors", "all"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, f"peak {peak} bytes"


# ---------------------------------------------------------------------------
# Usage transcripts: (exit code, stdout, stderr) of `main` for argvs that
# stop in argparse or lean on its rules, pinned as digests.

_COMMANDS = ("table", "synth", "compile", "sim", "verify", "diagram", "fsm", "fsmsim",
             "fault")
_USAGE_ARGVS = (
    (), ("-h",), ("--help",), ("--version",), ("--vers",), ("frobnicate",),
    *((name, "-h") for name in _COMMANDS),
    ("compile", "--profile", "n3p4m1"),  # a missing positional
    ("compile", "maj.eqn"),  # a missing --profile
    ("sim", "maj.fuse", "--vectors"),  # a missing value
    ("sim", "maj.fuse", "--vectors", "all", "--bogus"),  # an unknown option
    ("sim", "maj.fuse", "--vec", "all", "--head"),  # abbreviated options
    ("diagram", "maj.fuse", "extra"),  # an extra positional
    ("compile", "x", "--version"),
    ("diagram", "a", "--", "b"),
    ("--", "compile"),
    ("fault", "m", "--all", "--fault", "and,0,0,connected"),
    ("compile", "maj.eqn", "--=x"),  # the top-level parser finds this ambiguous
)


@pytest.fixture
def usage_dir(tmp_path, monkeypatch):
    """A working directory holding maj.eqn and maj.fuse, a fixed help width
    and a closed stdin, so every transcript is the same on every run."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    stdin = io.StringIO()
    stdin.close()
    monkeypatch.setattr(sys, "stdin", stdin)
    (tmp_path / "maj.eqn").write_text(MAJ_EQNS)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["compile", "maj.eqn", "--profile", "n3p4m1", "-o", "maj.fuse"]) == 0
    return tmp_path


def _transcript(run, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _digest(transcript):
    return hashlib.sha256(repr(transcript).encode()).hexdigest()[:16]


# taken on argparse of Python 3.11, whose wording later versions change
_USAGE_DIGESTS = {
    (): "6ec3861da2d512a2",
    ("-h",): "47aa27fe30c38099",
    ("--help",): "47aa27fe30c38099",
    ("--version",): "ec1d2b330c0007e7",
    ("--vers",): "ec1d2b330c0007e7",
    ("frobnicate",): "40d69e850a911666",
    ("table", "-h"): "1647182000da8529",
    ("synth", "-h"): "845729c6aab4dc85",
    ("compile", "-h"): "09d0fae1fb469bee",
    ("sim", "-h"): "54b1226ddba30587",
    ("verify", "-h"): "f416756dc38b18f2",
    ("diagram", "-h"): "25e29e742941c0e0",
    ("fsm", "-h"): "6549f3d353869ad5",
    ("fsmsim", "-h"): "b912980012de6ce0",
    ("fault", "-h"): "ac1b1255c9c211fa",
    ("compile", "--profile", "n3p4m1"): "e860f782cefc4189",
    ("compile", "maj.eqn"): "aaee2061e83d348d",
    ("sim", "maj.fuse", "--vectors"): "699971ea64799094",
    ("sim", "maj.fuse", "--vectors", "all", "--bogus"): "0e153d0d92b943c3",
    ("sim", "maj.fuse", "--vec", "all", "--head"): "c135740814e67fe6",
    ("diagram", "maj.fuse", "extra"): "a2d01e3250e6eb6d",
    ("compile", "x", "--version"): "aaee2061e83d348d",
    ("diagram", "a", "--", "b"): "390f03c9ed9b9579",
    ("--", "compile"): "6e3850e7e5db65d9",
    ("fault", "m", "--all", "--fault", "and,0,0,connected"): "c1029c38973089e8",
    ("compile", "maj.eqn", "--=x"): "4ccf8fcf2843c659",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="the digests hold argparse's Python 3.11 wording")
@pytest.mark.parametrize("argv", _USAGE_ARGVS, ids=lambda argv: " ".join(argv) or "none")
def test_usage_transcripts_are_pinned(usage_dir, argv):
    assert _digest(_transcript(main, argv)) == _USAGE_DIGESTS[argv]


def test_command_words_skip_the_top_level_pass(usage_dir, monkeypatch):
    """A command word goes straight to its parser; the namespace, exit
    code, stdout and stderr are what the top-level parse_args gives, on any
    Python version. No command runs: each cmd_* hands back its namespace."""
    top, _ = cli._parsers()
    calls, seen = [], []
    parse_args = argparse.ArgumentParser.parse_args

    def spy(self, *args, **kwargs):
        calls.append(self is top)
        return parse_args(self, *args, **kwargs)

    def reference(argv):  # the top-level pass over every argv
        args = top.parse_args(argv)
        if args.command is None:
            top.print_help(sys.stderr)
            return 2
        seen.append(args)
        return 0

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    for name in _COMMANDS:
        monkeypatch.setattr(cli, f"cmd_{name}", lambda args: seen.append(args) or 0)
    extra = (("compile", "maj.eqn", "--profile=n3p4m1", "--min"),
             ("fault", "m", "--fault", "or,0,0,connected", "--fault=and,1,2,connected"),
             ("sim", "--vectors", "all", "--", "-"), ("table", "-", "--order", "A"),
             ("fsmsim", "--encoding", "e", "--vectors", "-1", "--names"))
    for argv in _USAGE_ARGVS + extra:
        got = _transcript(main, argv), seen[:]
        top_level = not argv or argv[0] not in _COMMANDS or "--=x" in argv
        assert calls == ([True] if top_level else []), argv
        seen.clear()
        assert got == (_transcript(reference, argv), seen), argv
        calls.clear()
        seen.clear()


# sha256 of every transcript below, taken before truth tables were read from
# products: synth, synth --minimize, compile --minimize and compile --polarity
_GROUPED_DIGEST = "8d7a450178486b7221c8e43e40ab977412a4ab4b790fd88c3b024ce33270d292"


def test_table_commands_keep_their_output_on_grouped_bodies(tmp_path, monkeypatch):
    """Seeded equation files whose bodies hold constants, groups (some
    negated, some nested) and X X' products: exit code, stdout, stderr and
    the artifact of each table-reading command stay byte for byte."""
    from test_logic import random_body

    monkeypatch.chdir(tmp_path)
    rng = seeded(431)
    transcript = []
    for i in range(24):
        names = rng.sample("ABCDE", rng.randint(2, 5))
        outs = [f"F{o}" for o in range(rng.randint(1, 3))]
        Path("g.eqn").write_text("".join(f"{o} = {random_body(rng, names, 2)}\n" for o in outs))
        inverted = ",".join(o for o in outs if rng.random() < 0.5) or outs[0]
        for argv in (["synth", "g.eqn"], ["synth", "g.eqn", "--minimize"],
                     ["compile", "g.eqn", "--profile", "n5p64m3:xor", "--minimize"],
                     ["compile", "g.eqn", "--profile", "n5p64m3:xor", "--polarity", inverted]):
            Path("out").unlink(missing_ok=True)
            transcript.append((_transcript(main, argv + ["-o", "out"]),
                               Path("out").read_text() if Path("out").exists() else None))
    assert hashlib.sha256(repr(transcript).encode()).hexdigest() == _GROUPED_DIGEST
