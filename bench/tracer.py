"""Outside-in tracing of plakit's layers.

The tracer wraps every public function of the layer modules and rebinds
the wrapper in every plakit namespace that holds the original, because
`cli`, `fit` and `fsm` import names directly. Each call records a span:
name, parent span, start, end. Spans stay in memory for one design and are
reduced to self times after that design's clock has stopped.

A span's self time is its duration minus the time its child spans cover.
Everything runs on one thread, so nothing waits and no wait time exists.
"""

import importlib
import inspect
import logging
import sys
import time

LAYERS = ("expr", "logic", "minimize", "device", "fit", "fsm", "cli")

# Function -> metric category. Functions not named here count toward
# "<layer>.other", which only feeds the layer total.
CATEGORY = {
    "minimize.prime_implicants": "minimize.primes",
    "minimize.minimum_cover": "minimize.cover",
    "minimize.share_terms": "minimize.share",
    "device.find_test_vector": "device.fault",
    "device.inject_fault": "device.inject",
    "device.set_crosspoint": "device.inject",
    "device.output_masks": "device.masks",
    "device.eval_pla": "device.eval",
    "device.render_crosspoint_diagram": "device.diagram",
    "fit.compile_equations": "fit.compile",
    "fit.fit": "fit.fit",
    "fit.pad_input_names": "fit.fit",
    "fit.emit_fusemap": "fit.emit",
    "fit.parse_fusemap": "fit.parse",
    "fit.read_berkeley_pla": "fit.pla",
    "fit.write_berkeley_pla": "fit.pla",
    "fsm.parse_kiss2": "fsm.parse",
    "fsm.parse_encoding": "fsm.parse",
    "fsm.fsm_to_covers": "fsm.lower",
    "fsm.default_encoding": "fsm.lower",
    "fsm.synthesize_controller": "fsm.synth",
    "fsm.simulate_controller": "fsm.sim",
    "fsm.simulate_fsm": "fsm.sim",
    "cli.cmd_compile": "cli.compile",
    "cli.cmd_verify": "cli.verify",
    "cli.cmd_sim": "cli.sim",
    "cli.cmd_fault": "cli.fault",
    "cli.cmd_diagram": "cli.diagram",
}

# Self-time categories reported by name, beside the per-layer totals.
SELF_METRICS = tuple(dict.fromkeys(CATEGORY.values()))


# Calls whose arguments or results the counters read; other calls are only
# counted, from their spans.
KEEP = frozenset((
    "expr.parse_equations", "logic.table_from_expr", "logic.table_from_rows",
    "minimize.prime_implicants", "minimize.minimum_cover", "minimize.share_terms",
    "device.find_test_vector", "fit.fit", "fit.emit_fusemap", "fit.write_berkeley_pla",
    "fsm.simulate_controller", "fsm.fsm_to_covers",
))


def category(name):
    return CATEGORY.get(name, name.split(".")[0] + ".other")


def self_times(spans):
    """Self time per span name from (name, parent index, start, end) records.

    A parent index of -1 marks a root span. Returns ({name: self seconds},
    seconds covered by root spans).
    """
    child_time = [0.0] * len(spans)
    root = 0.0
    for name, parent, start, end in spans:
        if parent < 0:
            root += end - start
        else:
            child_time[parent] += end - start
    out = {}
    for (name, _, start, end), covered in zip(spans, child_time):
        out[name] = out.get(name, 0.0) + (end - start) - covered
    return out, root


class Tracer:
    """Collects spans for the current design; `take()` hands them over and resets."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.calls = []  # (name, args, result) for the counters, read after the clock stops

    def wrap(self, fn, name):
        spans, stack, calls = self.spans, self.stack, self.calls
        clock = time.perf_counter
        keep = name in KEEP

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, parent, start, end)
            if keep:
                calls.append((name, args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def take(self):
        spans, calls = list(self.spans), list(self.calls)
        self.spans.clear()
        self.calls.clear()
        return spans, calls


def install(tracer):
    """Replace each public layer function with its traced wrapper, everywhere it is bound."""
    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"plakit.{layer}")
        for attr, obj in vars(module).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == module.__name__
            ):
                wrappers[obj] = tracer.wrap(obj, f"{layer}.{attr}")
    for name, module in list(sys.modules.items()):
        if name == "plakit" or name.startswith("plakit."):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
    return len(wrappers)


class CoverPaths(logging.Handler):
    """Counts the exact (Petrick) and greedy cover paths from plakit.minimize's log."""

    def __init__(self):
        super().__init__(logging.INFO)
        self.petrick = 0
        self.greedy = 0

    def emit(self, record):
        if record.msg.startswith("exact cover via Petrick"):
            self.petrick += 1
        elif record.msg.startswith("greedy cover"):
            self.greedy += 1

    def attach(self):
        logger = logging.getLogger("plakit.minimize")
        logger.addHandler(self)
        logger.setLevel(logging.INFO)
        logger.propagate = False
        return self


class Counts:
    """Work counts read from traced calls' arguments and results."""

    def __init__(self):
        self.values = {}

    def add(self, key, amount=1):
        self.values[key] = self.values.get(key, 0) + amount

    def record(self, spans, calls):
        for name, _, _, _ in spans:
            if name.startswith("expr."):
                self.add("expr.calls")
            elif name == "device.inject_fault":
                self.add("device.inject_calls")
            elif name == "device.output_masks":
                self.add("device.masks_calls")
            elif name == "device.eval_pla":
                self.add("device.eval_calls")
        for name, args, result in calls:
            if name == "expr.parse_equations":
                self.add("expr.equations", len(result))
            elif name in ("logic.table_from_expr", "logic.table_from_rows"):
                self.add("logic.tables")
                self.add("logic.table_rows", 1 << len(result.order))
            elif name == "minimize.prime_implicants":
                spec = args[0]
                self.add("minimize.problems")
                self.add("minimize.care_rows", len(spec.on_set | spec.dc_set))
                self.add("minimize.primes", len(result))
            elif name == "minimize.minimum_cover":
                self.add("minimize.cover_terms", len(result.cubes))
            elif name == "minimize.share_terms":
                self.add("minimize.pool_terms", len(result.term_pool))
            elif name == "device.find_test_vector":
                self.add("device.faults")
                self.add("device.faults_detected", result is not None)
            elif name == "fit.fit":
                state = result[0]
                self.add("fit.crosspoints", sum(map(sum, state.and_plane))
                         + sum(map(sum, state.or_plane)))
            elif name in ("fit.emit_fusemap", "fit.write_berkeley_pla"):
                self.add("fit.bytes_emitted", len(result))
            elif name == "fsm.simulate_controller":
                self.add("fsm.cycles", len(result))
            elif name == "fsm.fsm_to_covers":
                self.add("fsm.dc_rows", len(result[1]))
