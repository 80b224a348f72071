"""plakit's benchmark: one seeded workload, run in a fresh process, every result checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see bench/README.md for why each exists):
    eqn_minimize     minimizer-heavy library flow
    image_cli        device- and CLI-heavy flow through plakit.cli.main
    fsm_controller   controller synthesis and cycle-by-cycle simulation

This process generates the inputs from the seed, writes them as text under
.bench_work/ in the checkout, and launches `bench/worker.py` on them: a few
times only to measure set-up, then once to run whole passes over the
designs for about S seconds. With --trace 1 it runs an untraced and a
traced worker for S/2 seconds each and reports per-layer numbers instead.

Times are reported at the calibration kernel's reference speed, with the
raw wall times beside them (bench/calibration.py says why). Each design is
checked against the generator's own reference with the benchmark's own
readers (bench/checker.py), outside any timed region. The
human-readable report goes to stderr; the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}. The exit code is 0 when
every check passed, 1 when any failed, 2 on a usage error or when the
checkout holds no plakit sources.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import calibration  # noqa: E402
import checker  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_LAUNCHES = 5
TAIL_BEYOND = 10  # the tail percentile is the highest one with this many designs beyond it
KERNEL_WINDOW = 4  # kernel runs on each side of a timed run that give its local speed
HELD_OUT_SEED = 20261017  # reserved for confirming claims; never used while tuning a change


# ---------------------------------------------------------------------------
# Running the worker


def write_inputs(workdir, warmup, designs, workload):
    """Write every design's text inputs and the manifest; returns a hash over all of them."""
    manifest = {"workload": workload, "designs": []}
    h = hashlib.sha256()
    for design in [warmup] + designs:
        folder = workdir / "in" / design.name
        folder.mkdir(parents=True)
        for fname, text in sorted(design.files.items()):
            (folder / fname).write_text(text)
            h.update(f"{design.name}/{fname}\0{text}\0".encode())
        entry = {"name": design.name, "kind": design.kind,
                 "files": sorted(design.files), "params": design.params}
        if design is warmup:
            manifest["warmup"] = entry
        else:
            manifest["designs"].append(entry)
    (workdir / "manifest.json").write_text(json.dumps(manifest))
    h.update(json.dumps(manifest, sort_keys=True).encode())
    return h.hexdigest()


def worker_command(workdir, *args):
    return [sys.executable, str(BENCH / "worker.py"), str(workdir), *map(str, args)]


def measure_setup(workdir):
    """Seconds from a fresh launch until plakit is imported and the warm-up design is done.

    Returns (wall seconds, the launch's median kernel seconds) per launch.
    """
    times = []
    for _ in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        with subprocess.Popen(worker_command(workdir, "setup"), stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            kernel = proc.stdout.read().strip()
            code = proc.wait(timeout=120)
        if line != "ready" or code != 0:
            raise RuntimeError(f"set-up launch failed (exit {code})")
        times.append((elapsed, float(kernel)))
    return times


def run_worker(workdir, mode, seconds):
    proc = subprocess.run(worker_command(workdir, mode, seconds), timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with {proc.returncode}")
    return json.loads((workdir / f"results-{mode}.json").read_text())


# ---------------------------------------------------------------------------
# Checking


def check_design(design, out, seed):
    """(problems, product terms) for one design's first-pass outputs; no problems = correct."""
    files = {p.name: p.read_text() for p in out.iterdir()}
    if "error" in files:
        return [files["error"]], 0
    try:
        return _check_design(design, files, seed)
    except (checker.CheckError, KeyError, IndexError, ValueError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"], 0


def _check_design(design, files, seed):
    ref = design.ref
    fm = checker.read_fusemap(files["fuse"])
    terms = checker.used_terms(fm)
    names = tuple(ref.get("names", ()))
    if design.kind == "fsm":
        return checker.check_controller(files["fuse"], files["enc"], files["trace"], ref), terms
    problems = []
    if fm["ob"] != names:
        problems.append(f"OB labels {fm['ob']} differ from {names}")
    outs = checker.device_outputs(fm)
    problems += checker.check_function(outs, ref["tables"], ref.get("dc"), names)
    if design.kind == "sop" and files["verify"]:
        problems.append(f"library verify flagged {files['verify']}")
    if design.kind == "isf":
        ob, pla_outs = checker.pla_outputs(files["pla"], ref["n"])
        if ob != names:
            problems.append(f".pla .ob labels {ob} differ from {names}")
        problems += [f".pla {p}" for p in
                     checker.check_function(pla_outs, ref["tables"], ref["dc"], names)]
    if design.kind == "image":
        problems += check_transcripts(design, files, fm, outs, seed)
    return problems, terms


def check_transcripts(design, files, fm, outs, seed):
    ref, n, m = design.ref, design.ref["n"], len(design.ref["names"])
    problems = []

    def stdout(key, want_code):
        code, _, text = files[key].partition("\n")
        if code != str(want_code):
            problems.append(f"{key} exited {code}, expected {want_code}")
        return text

    stdout("compile", 0)
    if stdout("verify", 0) != (f"equivalent: {m} output(s) verified over "
                               f"{1 << n} input vectors\n"):
        problems.append("verify did not report equivalence")
    if design.params["negative"]:
        text = stdout("negative", 1)
        o = ref["neg_output"]
        head, _, rest = text.partition(": input ")
        bits = rest.split(" ")[0]
        if head != f"MISMATCH {ref['names'][o]}" or len(bits) != n:
            problems.append(f"negative control not caught: {text.strip()!r}")
        else:
            row = int(bits, 2)
            device = checker.eval_vector(fm, bits)[o]
            wrong = (ref["neg_tables"][o] >> row) & 1
            if device == str(wrong):
                problems.append(f"negative control reported row {bits}, which agrees")
    problems += checker.check_sim(stdout("sim", 0), outs, n)
    problems += checker.check_diagram(stdout("diagram", 0), fm)
    rng = checker.sample_rng(seed, design.name)
    problems += checker.check_fault(stdout("fault", 0), fm, rng)
    return problems


# ---------------------------------------------------------------------------
# Metrics


def local_scales(result):
    """For each timed run, the factor that turns its wall time into time at the kernel's
    reference speed, from the median of the kernel runs around it.

    The machine's speed drifts for tens of seconds at a time, so each run is
    scaled by the kernel's speed near it, not by the whole run's.
    """
    k = result["kernel_s"]
    ref = calibration.REFERENCE_MS / 1000
    return [ref / statistics.median(k[max(0, j - KERNEL_WINDOW):j + KERNEL_WINDOW + 1])
            for j in range(len(k))]


def timings(result, count, scales):
    """p50 and tail (ms), designs per second, and each design's median over the passes,
    with timed run j's time multiplied by scales[j]."""
    per_design = [[] for _ in range(count)]
    total = 0.0
    for (i, seconds, _), scale in zip(result["records"], scales):
        per_design[i].append(seconds * scale)
        total += seconds * scale
    times = [statistics.median(t) for t in per_design]
    ranked = sorted(times)
    return (statistics.median(ranked) * 1000, ranked[len(ranked) - TAIL_BEYOND - 1] * 1000,
            len(result["records"]) / total, times)


def end_to_end(result, count, setup_times, terms):
    p50, tail, rate, _ = timings(result, count, local_scales(result))
    return {
        "design_p50_ms": (p50, "ms"),
        "design_tail_ms": (tail, "ms"),
        "designs_per_s": (rate, "1/s"),
        "setup_s": (statistics.median(
            wall * calibration.REFERENCE_MS / 1000 / kernel for wall, kernel in setup_times), "s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
        "product_terms": (terms, "count"),
    }


def per_layer(traced, untraced):
    s = traced["self_s"]
    c = dict(traced["counts"])
    design_s = s.get("design", 0.0)
    petrick, greedy = traced["cover_paths"]
    metrics = {}
    for layer in tracer.LAYERS:
        total = sum(v for k, v in s.items() if k.split(".")[0] == layer)
        metrics[f"{layer}.self_s"] = (total, "s")
        metrics[f"{layer}.share"] = (total / design_s if design_s else 0.0, "ratio")
    for cat in tracer.SELF_METRICS:
        metrics[f"{cat}_self_s"] = (s.get(cat, 0.0), "s")
    attributed = sum(v for k, v in s.items() if k != "design")
    metrics["trace.design_s"] = (design_s, "s")
    metrics["trace.unattributed_s"] = (design_s - attributed, "s")
    for key, unit in (
        ("expr.calls", "count"), ("expr.equations", "count"),
        ("logic.tables", "count"), ("logic.table_rows", "count"),
        ("minimize.problems", "count"), ("minimize.care_rows", "count"),
        ("minimize.primes", "count"), ("minimize.cover_terms", "count"),
        ("minimize.pool_terms", "count"),
        ("device.faults", "count"), ("device.faults_detected", "count"),
        ("device.inject_calls", "count"), ("device.masks_calls", "count"),
        ("device.eval_calls", "count"),
        ("fit.crosspoints", "count"), ("fit.bytes_emitted", "bytes"),
        ("fsm.cycles", "count"), ("fsm.dc_rows", "count"),
        ("cli.stdout_bytes", "bytes"),
    ):
        metrics[key] = (c.get(key, 0), unit)
    primes = c.get("minimize.primes", 0)
    faults = c.get("device.faults", 0)
    metrics["minimize.select_ratio"] = (
        c.get("minimize.cover_terms", 0) / primes if primes else 0.0, "ratio")
    metrics["minimize.petrick_covers"] = (petrick, "count")
    metrics["minimize.greedy_covers"] = (greedy, "count")
    metrics["device.detect_ratio"] = (
        c.get("device.faults_detected", 0) / faults if faults else 0.0, "ratio")

    def rate(r):
        return timings(r, len(r["digests"]), local_scales(r))[2]

    metrics["trace.overhead_ratio"] = (rate(traced) / rate(untraced), "ratio")
    return metrics


# ---------------------------------------------------------------------------
# Provenance and digests


def source_hash():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "plakit").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(args):
    sha = None
    if (ROOT / ".git").exists():  # a plain checkout has no history to ask
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": sha, "source_sha256": source_hash(),
        "python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
        "held_out_seed": HELD_OUT_SEED,
        "parameters": {name: getattr(workloads, name) for name in dir(workloads)
                       if name.endswith("_SCHEDULE")},
    }


def compare_digests(store_path, key, digests):
    """Designs whose artifacts differ from an earlier run of the same code on the same inputs."""
    store = json.loads(store_path.read_text()) if store_path.exists() else {}
    earlier = store.setdefault(key, digests)
    store_path.write_text(json.dumps(store))
    return sorted(name for name, d in digests.items() if earlier.get(name) != d)


def workload_digest(digests, designs):
    h = hashlib.sha256()
    for design in designs:
        h.update(digests[design.name].encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "plakit" / "__init__.py").is_file():
        print(f"error: no plakit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    base = ROOT / ".bench_work"
    workdir = base / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return run(args, base, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, base, workdir):
    warmup, designs = workloads.WORKLOADS[args.workload](args.seed)
    inputs_sha = write_inputs(workdir, warmup, designs, args.workload)

    if args.trace:
        untraced = run_worker(workdir, "run", args.seconds / 2)
        traced = run_worker(workdir, "trace", args.seconds / 2)
        result, setup_times = untraced, []
    else:
        setup_times = measure_setup(workdir)
        result = run_worker(workdir, "run", args.seconds)

    failures = {}
    terms = 0
    for design in designs:
        problems, used = check_design(design, workdir / "out-run" / design.name, args.seed)
        terms += used
        if problems:
            failures[design.name] = problems
    for name in result["changed"]:
        failures.setdefault(name, []).append("outputs changed between passes")
    digests = {name: sums[0] for name, sums in result["digests"].items()}
    if args.trace:
        for name, sums in traced["digests"].items():
            if sums != result["digests"][name]:
                failures.setdefault(name, []).append("traced run produced other outputs")
    key = f"{args.workload}:{inputs_sha}:{source_hash()}"
    for name in compare_digests(base / "digests.json", key, digests):
        failures.setdefault(name, []).append("artifacts differ from an earlier run")

    attempted, failed = len(designs), len(failures)
    *wall_timings, times = timings(result, attempted, [1.0] * len(result["records"]))
    record = {
        "provenance": provenance(args),
        "inputs_sha256": inputs_sha,
        "artifact_sha256": workload_digest(digests, designs),
        "error_rate": failed / attempted,
        "failures": failures,
        "tail_percentile": 100.0 * (attempted - TAIL_BEYOND) / attempted,
        "passes": result["passes"],
        "timed_runs": len(result["records"]),
        "design_ms": {d.name: t * 1000 for d, t in zip(designs, times)},
        "kernel_median_ms": statistics.median(result["kernel_s"]) * 1000,
        "wall": dict(zip(("design_p50_ms", "design_tail_ms", "designs_per_s"), wall_timings)),
    }
    if setup_times:
        record["wall"]["setup_s"] = statistics.median(t for t, _ in setup_times)
    lines = [f"plakit benchmark: {args.workload} seed={args.seed} "
             f"seconds={args.seconds} trace={args.trace}"]
    if args.trace:
        metrics = per_layer(traced, untraced)
        record["per_layer"] = metrics
        width = max(map(len, metrics))
        lines += [f"  {k:<{width}} {v:>14.6g} {u}" for k, (v, u) in metrics.items()]
        shares = {layer: metrics[f"{layer}.share"][0] for layer in tracer.LAYERS}
        top = max(shares, key=shares.get)
        lines.append(f"  dominant layer by self time: {top} ({shares[top]:.1%})")
    else:
        metrics = end_to_end(result, attempted, setup_times, terms)
        record["end_to_end"] = metrics
        lines += [f"  {k:<15} {v:>14.6g} {u}" for k, (v, u) in metrics.items()]
        lines.append(f"  {'error_rate':<15} {failed / attempted:>14.6g} ratio")
        wall = record["wall"]
        lines.append(f"  times above are at the kernel's reference speed "
                     f"({calibration.REFERENCE_MS} ms); this run's kernel median was "
                     f"{record['kernel_median_ms']:.3f} ms, so the wall times were "
                     f"p50 {wall['design_p50_ms']:.6g} ms, tail "
                     f"{wall['design_tail_ms']:.6g} ms, {wall['designs_per_s']:.6g} designs/s, "
                     f"set-up {wall['setup_s']:.6g} s")
        lines.append(f"  tail = p{record['tail_percentile']:.1f} of {attempted} "
                     f"designs; {record['timed_runs']} timed runs in "
                     f"{record['passes']} passes; setup launches (wall s, kernel ms) "
                     + " ".join(f"{t:.3f}/{k * 1000:.2f}" for t, k in setup_times))
    lines.append(f"  artifact sha256 {record['artifact_sha256']}")
    for name, problems in failures.items():
        lines.append(f"  FAILED {name}: {'; '.join(problems)}")
    print("\n".join(lines), file=sys.stderr)
    records = base / "records"
    records.mkdir(exist_ok=True)
    (records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
