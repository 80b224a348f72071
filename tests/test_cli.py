import contextlib
import io
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import plakit
from plakit import (
    Cover,
    Fsm,
    PlaProfile,
    PlaState,
    Transition,
    blank_device,
    cover_eval,
    emit_fusemap,
    enumerate_faults,
    eval_pla,
    find_test_vector,
    parse_fusemap,
    simulate_controller,
    simulate_fsm,
    synthesize_controller,
)
from plakit.cli import _CHUNK_BITS, main, parse_profile
from oracles import lowest_differing_row_naive, random_state, seeded

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


def test_table_constant_needs_order(capsys):
    assert main(["table", "1"]) == 2
    assert "order" in capsys.readouterr().err


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


def test_fsmsim_encoding_device_mismatch(tmp_path, maj_map_file, capsys):
    enc = tmp_path / "big.enc"
    enc.write_text(
        "PLAENC 1\nBITS 2\nINPUTS 2\nOUTPUTS 2\nSTATE S0 0\nEND\n"
    )
    assert main(["fsmsim", maj_map_file, "--encoding", str(enc),
                 "--vectors", "-"]) == 2
    assert "encoding wants 4 inputs" in capsys.readouterr().err


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
    return PlaState(prof, and_plane, or_plane, state.polarity)


def test_fault_all_matches_find_test_vector_and_oracle(tmp_path, capsys):
    rng = seeded(61)
    cases = [(n, tech, xor) for n in range(1, 10)
             for tech in ("fuse", "antifuse") for xor in (False, True)]
    cases.append((16, "antifuse", True))
    for n, tech, xor in cases:
        state = _planted_state(rng, n, tech, xor)
        fuse = tmp_path / "image.fuse"
        fuse.write_text(emit_fusemap(state))
        assert main(["fault", str(fuse), "--all"]) == 0
        lines = capsys.readouterr().out.splitlines()
        faults = enumerate_faults(state.profile)
        assert len(lines) == len(faults) + 1
        detected = 0
        for line, fault in zip(lines, faults):
            want = lowest_differing_row_naive(state, fault)
            assert find_test_vector(state, fault) == want, fault
            assert line == f"{fault}: {want or 'undetectable'}"
            detected += want is not None
        pct = 100.0 * detected / len(faults)
        assert lines[-1] == f"coverage: {detected}/{len(faults)} detected ({pct:.1f}%)"


def test_sim_all_chunks_match_explicit_vectors(tmp_path, capsys):
    rng = seeded(67)
    for n in (_CHUNK_BITS - 1, _CHUNK_BITS, _CHUNK_BITS + 1):
        prof = PlaProfile(n, 6, 3, "fuse", has_output_xor=True)
        state = random_state(rng, prof, 0.08)
        # term 0 is the first input alone, so output 0 differs between chunks
        and_plane = ((1,) + (0,) * (2 * n - 1),) + state.and_plane[1:]
        or_plane = ((1,) + state.or_plane[0][1:],) + state.or_plane[1:]
        state = PlaState(prof, and_plane, or_plane, (1, 0, 1))
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
