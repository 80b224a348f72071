"""Tests of the benchmark's own machinery: generators, checker and tracer.

    python3 -m pytest bench/tests -q
"""

import random
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "bench", ROOT / "src", ROOT / "tests"):
    sys.path.insert(0, str(path))

import calibration  # noqa: E402
import checker  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from oracles import eval_pla_naive, random_profile, random_state  # noqa: E402

import plakit as pk  # noqa: E402


def _snapshot(designs):
    return [(d.name, d.kind, d.files, d.params, d.ref) for d in designs]


def _design_class(d):
    if d.kind == "fsm":
        return str(d.params["profile"])
    if d.kind == "image":
        return str(d.ref["n"] >= 14)
    return d.name.rsplit("-", 1)[0]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_bytes(name):
    make = workloads.WORKLOADS[name]
    warm_a, a = make(7)
    warm_b, b = make(7)
    assert _snapshot([warm_a] + a) == _snapshot([warm_b] + b)
    _, c = make(8)
    assert [d.files for d in a] != [d.files for d in c]
    # the seed draws contents, never the schedule of classes
    assert sorted(map(_design_class, a)) == sorted(map(_design_class, c))


def test_checker_agrees_with_naive_oracle():
    rng = random.Random(11)
    for _ in range(60):
        state = random_state(rng, random_profile(rng, max_inputs=6, max_terms=8,
                                                 max_outputs=4))
        fm = checker.read_fusemap(pk.emit_fusemap(state))
        n = state.profile.n_inputs
        outs = checker.device_outputs(fm)
        for row in range(1 << n):
            bits = format(row, f"0{n}b")
            want = eval_pla_naive(state, bits)
            assert "".join(str((mask >> row) & 1) for mask in outs) == want
            assert checker.eval_vector(fm, bits) == want


def test_incremental_fault_diffs_match_plakit():
    rng = random.Random(5)
    for _ in range(10):
        state = random_state(rng, random_profile(rng, max_inputs=4, max_terms=5,
                                                 max_outputs=3))
        fm = checker.read_fusemap(pk.emit_fusemap(state))
        diffs = checker.fault_diffs(fm)
        for fault, diff in zip(pk.enumerate_faults(state.profile), diffs):
            vector = pk.find_test_vector(state, fault)
            if vector is None:
                assert diff == 0
            else:
                assert (diff >> int(vector, 2)) & 1


def test_self_times_on_synthetic_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3]
    spans = [
        ("root", -1, 0.0, 10.0),
        ("a", 0, 1.0, 4.0),
        ("c", 1, 2.0, 3.0),
        ("b", 0, 5.0, 9.0),
        ("a", -1, 11.0, 12.0),  # a second root, same name
    ]
    by_name, root = tracer.self_times(spans)
    assert by_name == pytest.approx({"root": 3.0, "a": 3.0, "c": 1.0, "b": 4.0})
    assert root == pytest.approx(11.0)
    assert sum(by_name.values()) == pytest.approx(root)


def test_timings_are_scaled_to_the_local_kernel_speed():
    ref = calibration.REFERENCE_MS / 1000
    # two passes over 20 designs; the machine ran at half speed in the second pass
    first = [[i, 0.001 * (i + 1), None] for i in range(20)]
    second = [[i, 2 * t, None] for i, t, _ in first]
    result = {"records": first + second, "kernel_s": [ref] * 20 + [2 * ref] * 20}
    scales = run.local_scales(result)
    assert scales[:16] == pytest.approx([1.0] * 16)
    assert scales[-16:] == pytest.approx([0.5] * 16)
    p50, tail, rate, times = run.timings(result, 20, scales)
    assert times == pytest.approx([0.001 * (i + 1) for i in range(20)])
    assert p50 == pytest.approx(10.5)
    assert tail == pytest.approx(10)  # 10 designs beyond the 10th of 20
    assert rate == pytest.approx(40 / (2 * 0.21))
    p50_wall, _, _, _ = run.timings(result, 20, [1.0] * 40)
    assert p50_wall == pytest.approx(10.5 * 1.5)


def test_unnamed_functions_fall_into_layer_other():
    assert tracer.category("device.eval_pla") == "device.eval"
    assert tracer.category("device.enumerate_faults") == "device.other"


def test_install_rebinds_every_namespace():
    code = (
        "import sys; sys.path[:0] = [%r, %r]\n"
        "import plakit, plakit.cli, plakit.fsm, plakit.device, tracer\n"
        "t = tracer.Tracer(); tracer.install(t)\n"
        "assert plakit.cli.eval_pla is plakit.device.eval_pla is plakit.eval_pla\n"
        "assert plakit.fsm.eval_pla is plakit.device.eval_pla\n"
        "assert plakit.device.eval_pla.__wrapped__.__module__ == 'plakit.device'\n"
        "plakit.cli.main(['table', 'AB'])\n"
        "names = [s[0] for s in t.take()[0]]\n"
        "assert names[0] == 'cli.main' and 'cli.cmd_table' in names, names\n"
        "assert 'expr.parse_expression' in names and 'logic.table_from_expr' in names\n"
    ) % (str(ROOT / "bench"), str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr


def _run_design(design, tmp_path):
    d = dict(design.params, text=design.files, dir=tmp_path, out=tmp_path,
             name=design.name, kind=design.kind)
    for fname, text in design.files.items():
        (tmp_path / fname).write_text(text)
    if "stimulus.txt" in design.files:
        d["stimulus"] = design.files["stimulus.txt"].split()
    artifacts, transcript = worker.FLOWS[design.kind](pk, d)
    return {**artifacts, **transcript}


def test_checker_flags_corrupted_fuse_map(tmp_path):
    rng = random.Random(3)
    design = workloads.sop_design(rng, "t", 6, 2, (3, 4), (2, 3))
    files = _run_design(design, tmp_path)
    fm = checker.read_fusemap(files["fuse"])
    assert checker.check_function(checker.device_outputs(fm), design.ref["tables"]) == []

    # open one connected OR crosspoint of a used term: the output loses rows
    o = 0
    t = fm["or"][o].index("1")
    bad = list(files["fuse"].split("\n"))
    row = bad.index(fm["or"][o], bad.index("OR"))
    bad[row] = fm["or"][o][:t] + "0" + fm["or"][o][t + 1 :]
    broken = checker.read_fusemap("\n".join(bad))
    problems = checker.check_function(checker.device_outputs(broken), design.ref["tables"])
    assert problems and problems[0].startswith("output 0 wrong on row")


def test_checker_flags_wrong_fault_and_sim_transcripts(tmp_path):
    rng = random.Random(4)
    design = workloads.image_design(rng, "t", 5, 6, 3, (1, 3), True)
    files = _run_design(design, tmp_path)
    fm = checker.read_fusemap(files["fuse"])
    outs = checker.device_outputs(fm)
    sim = files["sim"].partition("\n")[2]
    fault = files["fault"].partition("\n")[2]
    assert checker.check_sim(sim, outs, 5) == []
    assert checker.check_fault(fault, fm, random.Random(0)) == []
    assert checker.check_diagram(files["diagram"].partition("\n")[2], fm) == []
    assert files["negative"].startswith("1\nMISMATCH")

    lines = sim.splitlines()
    lines[3] = lines[3][:-1] + ("0" if lines[3][-1] == "1" else "1")
    assert checker.check_sim("\n".join(lines) + "\n", outs, 5)

    lines = fault.splitlines()
    k = next(i for i, line in enumerate(lines) if not line.endswith("undetectable"))
    label = lines[k].split(": ")[0]
    lines[k] = f"{label}: undetectable"
    assert checker.check_fault("\n".join(lines) + "\n", fm, random.Random(0))


def test_checker_flags_wrong_controller_trace(tmp_path):
    rng = random.Random(6)
    design = workloads.fsm_design(rng, "t", workloads.SMALL, *workloads.counter_rows(5),
                                  cycles=200)
    files = _run_design(design, tmp_path)
    ref = design.ref
    assert checker.check_controller(files["fuse"], files["enc"], files["trace"], ref) == []
    lines = files["trace"].splitlines()
    lines[50] = lines[50][:-1] + ("0" if lines[50][-1] == "1" else "1")
    assert checker.check_controller(files["fuse"], files["enc"], "\n".join(lines) + "\n", ref)
