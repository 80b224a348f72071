"""Runs one generated workload against plakit in a fresh process.

    worker.py WORKDIR setup            import plakit, run the warm-up design, print "ready",
                                       then the calibration kernel's median seconds
    worker.py WORKDIR run SECONDS      then time whole passes over the designs
    worker.py WORKDIR trace SECONDS    the same with every layer function traced

The process reads only the text inputs and parameters in WORKDIR's
manifest; the reference answers stay with the parent. Each design's flow is
timed alone; reading the results back, hashing and writing them out happen
after its clock stops. Before each design, outside its clock, the worker
times the calibration kernel (calibration.py), so the parent can tell how
fast the machine ran. Results go to WORKDIR/results-<mode>.json, and the
first pass's artifacts and transcripts to WORKDIR/out-<mode>/<design>/.
"""

import contextlib
import hashlib
import importlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import calibration  # noqa: E402  (sits beside this file)
import tracer as tr  # noqa: E402


def sop_flow(pk, d):
    """Equations -> minimized fit -> fuse map -> parsed back -> checked by output masks."""
    order = tuple(d["order"])
    equations = pk.parse_equations(d["text"]["eqs.txt"])
    state, report = pk.compile_equations(
        equations, pk.PlaProfile(*d["profile"]), minimize=True, order=order
    )
    fuse = pk.emit_fusemap(state, report.input_names, report.output_names)
    masks = pk.output_masks(pk.parse_fusemap(fuse).state)
    wrong = [
        name for (name, e), mask in zip(equations, masks)
        if pk.table_from_expr(e, order).bits != mask
    ]
    return {"fuse": fuse}, {"verify": " ".join(wrong)}


def isf_flow(pk, d):
    """On/don't-care sets -> minimize -> share -> .pla round trip -> fit -> fuse map."""
    on = pk.read_berkeley_pla(d["text"]["on.pla"])
    dc = pk.read_berkeley_pla(d["text"]["dc.pla"])
    named = [
        (name, pk.minimize(on.cover_for(name).to_table(),
                           dc.cover_for(name).to_table().on_set()))
        for name in on.names
    ]
    pla = pk.write_berkeley_pla(pk.share_terms(named))
    state, report = pk.fit(pk.read_berkeley_pla(pla), pk.PlaProfile(*d["profile"]))
    return {"pla": pla, "fuse": pk.emit_fusemap(state, report.input_names,
                                                 report.output_names)}, {}


def image_flow(pk, d):
    """compile -> verify (-> negative verify) -> sim all -> diagram -> fault --all, via cli.main."""
    cli = importlib.import_module("plakit.cli")
    eqs, fuse = str(d["dir"] / "eqs.txt"), str(d["out"] / "image.fuse")
    commands = [
        ("compile", ["compile", eqs, "--profile", d["profile"], "--order", d["order"],
                     "-o", fuse]),
        ("verify", ["verify", fuse, "--equations", eqs]),
    ]
    if d["negative"]:
        commands.append(("negative", ["verify", fuse, "--equations",
                                      str(d["dir"] / "neg.txt")]))
    commands += [
        ("sim", ["sim", fuse, "--vectors", "all"]),
        ("diagram", ["diagram", fuse]),
        ("fault", ["fault", fuse, "--all"]),
    ]
    transcript = {}
    for key, argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        transcript[key] = f"{code}\n{out.getvalue()}"
    return {"fuse": Path(fuse).read_text()}, transcript


def fsm_flow(pk, d):
    """KISS2 -> minimized controller -> fuse map + PLAENC -> parsed back -> clocked."""
    machine = pk.parse_kiss2(d["text"]["machine.kiss"])
    image, _ = pk.synthesize_controller(
        machine, pk.PlaProfile(*d["profile"]), minimize=True
    )
    fuse = pk.emit_fusemap(image.state, image.input_names, image.output_names)
    enc = pk.emit_encoding(image.encoding)
    device = pk.ControllerImage(pk.parse_fusemap(fuse).state, pk.parse_encoding(enc))
    trace = pk.simulate_controller(device, d["stimulus"])
    return {"fuse": fuse, "enc": enc}, {"trace": "".join(f"{c} {o}\n" for c, o in trace)}


def timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


SETUP_KERNELS = 9  # kernel runs after a set-up launch is ready

FLOWS = {"sop": sop_flow, "isf": isf_flow, "image": image_flow, "fsm": fsm_flow}


def digest(parts):
    h = hashlib.sha256()
    for key in sorted(parts):
        h.update(key.encode() + b"\0" + parts[key].encode() + b"\0")
    return h.hexdigest()


def load(workdir, entry, out_root):
    d = dict(entry["params"])
    d["name"], d["kind"] = entry["name"], entry["kind"]
    d["dir"] = workdir / "in" / entry["name"]
    d["out"] = out_root / entry["name"]
    d["out"].mkdir(parents=True, exist_ok=True)
    d["text"] = {f: (d["dir"] / f).read_text() for f in entry["files"]}
    if "stimulus.txt" in d["text"]:
        d["stimulus"] = d["text"]["stimulus.txt"].split()
    return d


def main(argv):
    workdir, mode = Path(argv[1]), argv[2]
    seconds = float(argv[3]) if len(argv) > 3 else 0.0
    manifest = json.loads((workdir / "manifest.json").read_text())
    out_root = workdir / f"out-{mode}"

    import plakit as pk

    tracer = counts = paths = None
    if mode == "trace":
        tracer, counts = tr.Tracer(), tr.Counts()
        tr.install(tracer)
        paths = tr.CoverPaths().attach()

    warmup = load(workdir, manifest["warmup"], out_root)
    FLOWS[warmup["kind"]](pk, warmup)
    if tracer:
        tracer.take()
    if mode == "setup":
        print("ready", flush=True)
        print(statistics.median(timed(calibration.kernel) for _ in range(SETUP_KERNELS)))
        return 0

    designs = [load(workdir, entry, out_root) for entry in manifest["designs"]]
    records = []  # [design index, seconds, error or None]
    kernel_s = []  # the calibration kernel's time before each design
    first = [None] * len(designs)  # (artifact digest, transcript digest) from pass 0
    changed = set()
    self_s = {}
    counted_paths = (0, 0)
    passes = 0
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for i, d in enumerate(designs):
            flow = FLOWS[d["kind"]]
            error = None
            kernel_s.append(timed(calibration.kernel))
            t0 = time.perf_counter()
            try:
                artifacts, transcript = flow(pk, d)
            except Exception as exc:  # a failing design is recorded, never hidden
                error = f"{type(exc).__name__}: {exc}"
                artifacts, transcript = {}, {}
            elapsed = time.perf_counter() - t0
            records.append([i, elapsed, error])
            if tracer:
                spans, calls = tracer.take()
                by_name, _ = tr.self_times(spans)
                for name, s in by_name.items():
                    cat = tr.category(name)
                    self_s[cat] = self_s.get(cat, 0.0) + s
                self_s["design"] = self_s.get("design", 0.0) + elapsed
                if passes == 0:
                    counts.record(spans, calls)
                    if d["kind"] == "image":
                        counts.add("cli.stdout_bytes", sum(
                            len(text.partition("\n")[2]) for text in transcript.values()
                        ))
            sums = (digest(artifacts), digest(transcript))
            if passes == 0:
                first[i] = sums
                for key, text in {**artifacts, **transcript}.items():
                    (d["out"] / key).write_text(text)
                if error:
                    (d["out"] / "error").write_text(error)
            elif sums != first[i]:
                changed.add(d["name"])
        if paths and passes == 0:
            counted_paths = (paths.petrick, paths.greedy)
        passes += 1
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            break

    result = {
        "passes": passes,
        "records": records,
        "kernel_s": kernel_s,
        "digests": {d["name"]: first[i] for i, d in enumerate(designs)},
        "changed": sorted(changed),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        result["self_s"] = {k: v / passes for k, v in self_s.items()}
        result["counts"] = counts.values
        result["cover_paths"] = counted_paths
    (workdir / f"results-{mode}.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
