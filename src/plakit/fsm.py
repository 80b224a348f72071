"""Finite-state machines: KISS2 I/O, encoding, and PLA controller synthesis.

A machine read from KISS2 is Mealy-style: each transition row carries an
input cube, current state, next state, and output bits. The subset handled
here requires at least one input and one output, binary outputs (no output
don't-cares), and deterministic rows -- two rows for the same state whose
input cubes overlap are rejected. Cubes and vectors are checked only by
`logic.check_cube` and `logic.check_bits`; rows are compared as literal
words and row masks.

Synthesis uses the classic registered-PLA arrangement: state bits are fed
back from the first outputs to the first inputs through an external
register. With b state bits and k machine inputs the device sees b+k
inputs (state bits first, most significant) and drives b+q outputs
(next-state bits first). State codes are binary-counted in declaration
order with the reset state at code 0; unused codes are don't-cares. An
input combination no transition matches holds the current state with all
outputs 0 (or is an error under strict=True).

The encoding sidecar records what a fuse map alone cannot -- the state
assignment and the input/output split:

    PLAENC 1
    BITS 1
    INPUTS 1
    OUTPUTS 1
    STATE S0 0
    STATE S1 1
    END
"""

from dataclasses import dataclass, field
from itertools import islice

from . import minimize as mn
from .device import eval_pla  # noqa: F401 (bench/tests reads fsm.eval_pla)
from .errors import FormatError
from .fit import _check_row, _directive_count, _next_line, _nonblank_lines, _scan_rows, fit
from .logic import (
    MAX_VARS, _product_mask, check_bits, cube_contains, cube_words, mask_rows
)


@dataclass(frozen=True)
class Transition:
    input_cube: str
    current: str
    next_state: str
    outputs: str

    def line(self):
        return f"{self.input_cube} {self.current} {self.next_state} {self.outputs}"


@dataclass(frozen=True)
class Fsm:
    n_inputs: int
    n_outputs: int
    states: tuple
    reset: str
    transitions: tuple

    def __post_init__(self):
        if self.n_inputs < 1:
            raise ValueError("machine needs at least one input")
        if self.n_inputs > MAX_VARS:
            raise ValueError(f"{self.n_inputs} inputs exceeds the limit of {MAX_VARS}")
        if self.n_outputs < 1:
            raise ValueError("machine needs at least one output")
        states = tuple(self.states)
        object.__setattr__(self, "states", states)
        if len(set(states)) != len(states):
            raise ValueError(f"duplicate state names in {states}")
        if self.reset not in states:
            raise ValueError(f"reset state {self.reset!r} is not declared")
        transitions = tuple(self.transitions)
        object.__setattr__(self, "transitions", transitions)
        seen = set()
        by_state = {}  # state -> (req1, req0, cube) per row
        for t in transitions:
            _check_row(t.input_cube, t.outputs, self.n_inputs, self.n_outputs)
            for s in (t.current, t.next_state):
                if s not in states:
                    raise ValueError(f"transition uses undeclared state {s!r}")
            if t in seen:
                raise ValueError(f"duplicate transition: {t.line()}")
            seen.add(t)
            group = by_state.setdefault(t.current, [])
            group.append((*cube_words(t.input_cube), t.input_cube))
        # determinism: two cubes share a row unless one needs a literal true
        # that the other needs complemented
        for state, rows in by_state.items():
            for i, (a1, a0, a) in enumerate(rows):
                for b1, b0, b in rows[i + 1 :]:
                    if not (a1 & b0 or a0 & b1):
                        raise ValueError(
                            f"state {state!r} has overlapping input cubes "
                            f"{a!r} and {b!r}"
                        )

    def transitions_from(self, state):
        return [t for t in self.transitions if t.current == state]


# ---------------------------------------------------------------------------
# KISS2


def parse_kiss2(text):
    """Parse the KISS2 subset: .i/.o required, binary outputs, .r optional.

    States are ordered by first appearance; without .r the first-mentioned
    state (the first transition's current state) is the reset state.
    Declared .s/.p counts that disagree with the body are errors.
    """
    n_in, n_out, rows, found = _scan_rows(
        text, "<inputs> <current> <next> <outputs>", "transition", _KISS2_DIRECTIVES
    )
    if not rows:
        raise FormatError("no transitions")
    states = tuple(dict.fromkeys(s for _, cur, nxt, _ in rows for s in (cur, nxt)))
    reset = found.get(".r", rows[0][1])
    if reset not in states:
        raise FormatError(f".r names unknown state {reset!r}")
    for key, actual, what in ((".s", len(states), "states"), (".p", len(rows), "transitions")):
        declared = found.get(key)
        if declared is not None and declared != actual:
            raise FormatError(f"declared {declared} {what} but file has {actual}")
    try:
        return Fsm(n_in, n_out, states, reset, tuple(Transition(*row) for row in rows))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def _reset_name(parts, lineno):
    if len(parts) != 2:
        raise FormatError(f"line {lineno}: .r takes one state name")
    return parts[1]


_KISS2_DIRECTIVES = {".s": _directive_count, ".r": _reset_name}


def write_kiss2(fsm):
    lines = [
        f".i {fsm.n_inputs}",
        f".o {fsm.n_outputs}",
        f".s {len(fsm.states)}",
        f".p {len(fsm.transitions)}",
        f".r {fsm.reset}",
    ]
    lines.extend(t.line() for t in fsm.transitions)
    lines.append(".e")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# State encoding


@dataclass(frozen=True)
class StateEncoding:
    """Binary state assignment plus the machine's input/output widths."""

    bits: int
    n_inputs: int
    n_outputs: int
    codes: tuple  # (state name, code) pairs, codes ascending

    def __post_init__(self):
        codes = tuple(self.codes)
        object.__setattr__(self, "codes", codes)
        if self.bits < 1:
            raise ValueError("encoding needs at least one state bit")
        if self.n_inputs < 1:
            raise ValueError("encoding needs at least one input")
        if self.n_outputs < 1:
            raise ValueError("encoding needs at least one output")
        values = [c for _, c in codes]
        if values != sorted(values) or len(set(values)) != len(values):
            raise ValueError("state codes must be unique and ascending")
        for name, c in codes:
            if not 0 <= c < (1 << self.bits):
                raise ValueError(f"code {c} for {name!r} needs more than {self.bits} bits")
        if not codes or codes[0][1] != 0:
            raise ValueError("code 0 (the reset state) must be assigned")
        names = [n for n, _ in codes]
        if len(set(names)) != len(names):
            raise ValueError("duplicate state name in encoding")

    def code_of(self, name):
        return dict(self.codes)[name]

    def code_str(self, name):
        return format(self.code_of(name), f"0{self.bits}b")

    def name_of(self, code):
        """State name for a code, or None for an unused code."""
        return {c: n for n, c in self.codes}.get(code)

    @property
    def reset(self):
        return self.codes[0][0]


def default_encoding(fsm):
    """Binary-counted codes: reset gets 0, the rest follow declaration order."""
    s = len(fsm.states)
    bits = max(1, (s - 1).bit_length())
    codes = [(fsm.reset, 0)]
    nxt = 1
    for name in fsm.states:
        if name != fsm.reset:
            codes.append((name, nxt))
            nxt += 1
    return StateEncoding(bits, fsm.n_inputs, fsm.n_outputs, tuple(codes))


def emit_encoding(enc):
    lines = [
        "PLAENC 1",
        f"BITS {enc.bits}",
        f"INPUTS {enc.n_inputs}",
        f"OUTPUTS {enc.n_outputs}",
    ]
    lines.extend(f"STATE {name} {code}" for name, code in enc.codes)
    lines.append("END")
    return "\n".join(lines) + "\n"


def parse_encoding(text):
    it = _nonblank_lines(text)
    if next(it, "").split() != ["PLAENC", "1"]:
        raise FormatError("not an encoding sidecar: missing 'PLAENC 1' header")
    counts = []
    for key in ("BITS", "INPUTS", "OUTPUTS"):
        line = _next_line(it, key, "encoding")
        parts = line.split()
        if len(parts) != 2 or parts[0] != key:
            raise FormatError(f"expected '{key} <count>', got {line!r}")
        try:
            counts.append(int(parts[1]))
        except ValueError:
            raise FormatError(f"bad {key} count {parts[1]!r}") from None
    codes = []
    while (line := _next_line(it, "END", "encoding")) != "END":
        parts = line.split()
        if len(parts) != 3 or parts[0] != "STATE":
            raise FormatError(f"expected 'STATE <name> <code>', got {line!r}")
        try:
            codes.append((parts[1], int(parts[2])))
        except ValueError:
            raise FormatError(f"bad state code {parts[2]!r}") from None
    for extra in it:
        raise FormatError(f"content after END: {extra!r}")
    codes.sort(key=lambda nc: nc[1])
    try:
        return StateEncoding(*counts, tuple(codes))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Synthesis


def fsm_to_covers(fsm, encoding=None, strict=False):
    """Lower a machine to next-state and output covers over (state bits, inputs).

    Returns (MultiOutputCover, dc_rows). Variable order is s0..s{b-1} then
    i0..i{k-1}, big-endian, so row index = state_code * 2^k + input_value.
    Each transition becomes one cube; each unmatched (state, input) pair
    becomes a hold-state minterm (none are needed for code 0). dc_rows are
    the rows of unused state codes.
    """
    if encoding is None:
        encoding = default_encoding(fsm)
    b, k, q = encoding.bits, fsm.n_inputs, fsm.n_outputs
    order = tuple(f"s{j}" for j in range(b)) + tuple(f"i{j}" for j in range(k))
    out_names = [f"ns{j}" for j in range(b)] + [f"o{j}" for j in range(q)]

    code_strs = {name: format(code, f"0{b}b") for name, code in encoding.codes}
    free = dict.fromkeys(fsm.states, (1 << (1 << k)) - 1)  # rows no transition covers
    uses = []  # (cube, output positions): next-state bits first, then outputs
    for t in fsm.transitions:
        free[t.current] &= ~_product_mask(k, *cube_words(t.input_cube))
        cube = code_strs[t.current] + t.input_cube
        next_str = code_strs[t.next_state]
        targets = [j for j in range(b) if next_str[j] == "1"]
        targets += [b + j for j in range(q) if t.outputs[j] == "1"]
        if targets:
            uses.append((cube, targets))

    row_fmt = f"0{k}b"
    if strict and any(free.values()):
        pairs = ((s, row) for s in fsm.states for row in mask_rows(free[s]))
        shown = ", ".join(f"({s}, {row:{row_fmt}})" for s, row in islice(pairs, 5))
        raise ValueError(
            f"{sum(m.bit_count() for m in free.values())} unmatched state/input "
            f"combinations, e.g. {shown}"
        )
    for state in fsm.states:
        code_str = code_strs[state]
        hold_targets = [j for j in range(b) if code_str[j] == "1"]
        if hold_targets:
            uses += [(code_str + format(row, row_fmt), hold_targets)
                     for row in mask_rows(free[state])]

    dc_rows = []
    used = {c for _, c in encoding.codes}
    for code in range(1 << b):
        if code not in used:
            dc_rows.extend(range(code << k, (code + 1) << k))

    return mn.MultiOutputCover.pooled(order, out_names, uses), dc_rows


@dataclass(frozen=True)
class ControllerImage:
    """A programmed device plus the encoding that gives its bits meaning.

    The device must have inputs for the state bits plus the machine's
    inputs, and outputs for the state bits plus the machine's outputs.
    """

    state: object
    encoding: StateEncoding
    input_names: tuple = field(default=())
    output_names: tuple = field(default=())

    def __post_init__(self):
        prof, enc = self.state.profile, self.encoding
        need_in = enc.bits + enc.n_inputs
        need_out = enc.bits + enc.n_outputs
        if prof.n_inputs < need_in or prof.n_outputs < need_out:
            raise ValueError(
                f"encoding wants {need_in} inputs / {need_out} outputs but the device "
                f"has {prof.n_inputs} / {prof.n_outputs}"
            )


def synthesize_controller(fsm, profile, minimize=False, strict=False, encoding=None):
    """Program a device as the machine's next-state/output logic.

    Returns (ControllerImage, FitReport). With minimize=True each output
    function is minimized against the unused-code don't-cares before
    fitting; otherwise cubes mirror the transition rows.
    """
    if encoding is None:
        encoding = default_encoding(fsm)
    mcover, dc_rows = fsm_to_covers(fsm, encoding, strict=strict)
    if minimize:
        mcover = mn.share_terms(
            (name, mn.minimize(mcover.cover_for(name), dc_rows)) for name in mcover.names
        )
    state, report = fit(mcover, profile)
    image = ControllerImage(
        state, encoding, report.input_names, report.output_names
    )
    return image, report


# ---------------------------------------------------------------------------
# Simulation


def simulate_fsm(fsm, input_seq):
    """Symbolic reference run: [(state name, outputs)] per cycle from reset.

    An input no transition matches holds the state and emits all zeros,
    mirroring the synthesized hold terms.
    """
    cur = fsm.reset
    trace = []
    for bits in input_seq:
        bits = check_bits(bits, fsm.n_inputs)
        hit = None
        for t in fsm.transitions_from(cur):
            if cube_contains(t.input_cube, bits):
                hit = t
                break
        if hit is None:
            trace.append((cur, "0" * fsm.n_outputs))
        else:
            trace.append((cur, hit.outputs))
            cur = hit.next_state
    return trace


def simulate_controller(image, input_seq):
    """Cycle-accurate run of the programmed device: [(state code bits, outputs)].

    The register starts at code 0; each cycle evaluates the PLA on the
    input word (state bits, input bits, unused inputs at 0) and latches the
    next-state outputs. A run evaluates each distinct (code, input) pair
    once: the step table keeps its trace entry and next code, and a key
    enters the table only after its vector passed check_bits.
    """
    enc = image.encoding
    b, k, q = enc.bits, enc.n_inputs, enc.n_outputs
    prof = image.state.profile
    device = image.state.compiled
    pad = prof.n_inputs - b - k  # unused inputs read 0
    next_at = prof.n_outputs - b  # the next code is the word's top b bits
    outs_at, outs_mask = next_at - q, (1 << q) - 1
    steps = {}  # (code, input string) -> ((code bits, outputs), next code)
    code = 0
    trace = []
    for bits in input_seq:
        if not isinstance(bits, str):
            bits = check_bits(bits, k)
        step = steps.get((code, bits))
        if step is None:
            word = device.eval(((code << k) | int(check_bits(bits, k), 2)) << pad)
            step = steps[code, bits] = ((format(code, f"0{b}b"),
                                         format(word >> outs_at & outs_mask, f"0{q}b")),
                                        word >> next_at)
        trace.append(step[0])
        code = step[1]
    return trace
