"""PLA device model: planes of crosspoints, evaluation, and stuck faults.

A device has p AND rows (product terms) by 2n AND columns -- column 2j
carries input j true, column 2j+1 carries its complement -- and m OR rows
by p columns. A stored 1 always means "connected", whichever switch
technology the profile names: fuse arrays start fully connected and are
blown open, antifuse arrays start open and are programmed closed. The
starting image differs; the meaning of the programmed image does not.

Evaluation rules fall out of wired-AND/wired-OR behaviour:
  * an AND row with no connections is the constant-1 product;
  * an AND row connected to both polarities of one input is constant 0;
  * an OR row with no connections is constant 0;
  * a set polarity bit complements that output (the macrocell XOR), which
    is how a product-of-sums form is realized on sum-of-products hardware.

The fault model is the single stuck crosspoint: one crosspoint reads as
connected or as disconnected no matter what was programmed. OR-plane fault
coordinates are (output row, term column), matching the stored or_plane.
"""

from dataclasses import dataclass, replace
from functools import cached_property, reduce
from operator import and_, or_

from .logic import MAX_VARS, _product_mask, check_bits, lowest_row

SWITCH_TECHS = ("fuse", "antifuse")
PLANES = ("and", "or")
STUCK_MODES = ("connected", "disconnected")


@dataclass(frozen=True)
class PlaProfile:
    """Capacities and features of a target device."""

    n_inputs: int
    n_terms: int
    n_outputs: int
    switch_tech: str = "fuse"
    has_output_xor: bool = False

    def __post_init__(self):
        for field_name in ("n_inputs", "n_terms", "n_outputs"):
            v = getattr(self, field_name)
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"{field_name} must be a positive int, got {v!r}")
        if self.n_inputs > MAX_VARS:
            raise ValueError(
                f"n_inputs {self.n_inputs} exceeds the simulation limit of {MAX_VARS}"
            )
        if self.switch_tech not in SWITCH_TECHS:
            raise ValueError(f"switch_tech must be one of {SWITCH_TECHS}")


def _check_matrix(name, matrix, n_rows, n_cols):
    matrix = tuple(tuple(row) for row in matrix)
    if len(matrix) != n_rows:
        raise ValueError(f"{name} has {len(matrix)} rows, expected {n_rows}")
    for r, row in enumerate(matrix):
        if len(row) != n_cols:
            raise ValueError(f"{name} row {r} has {len(row)} columns, expected {n_cols}")
        for bit in row:
            if bit not in (0, 1):
                raise ValueError(f"{name} row {r} has non-binary entry {bit!r}")
    return matrix


@dataclass(frozen=True)
class PlaState:
    """One programmed image of a device: 1 = crosspoint connected."""

    profile: PlaProfile
    and_plane: tuple  # p rows x 2n columns
    or_plane: tuple  # m rows x p columns
    polarity: tuple  # m bits

    def __post_init__(self):
        p = self.profile
        object.__setattr__(
            self,
            "and_plane",
            _check_matrix("and_plane", self.and_plane, p.n_terms, 2 * p.n_inputs),
        )
        object.__setattr__(
            self,
            "or_plane",
            _check_matrix("or_plane", self.or_plane, p.n_outputs, p.n_terms),
        )
        polarity = tuple(self.polarity)
        if len(polarity) != p.n_outputs:
            raise ValueError(
                f"polarity has {len(polarity)} bits, expected {p.n_outputs}"
            )
        for bit in polarity:
            if bit not in (0, 1):
                raise ValueError(f"polarity bit must be 0 or 1, got {bit!r}")
        if any(polarity) and not p.has_output_xor:
            raise ValueError("polarity bits set but profile has no output XOR")
        object.__setattr__(self, "polarity", polarity)


def blank_device(profile):
    """The unprogrammed image: fuse arrays all connected, antifuse all open."""
    bit = 1 if profile.switch_tech == "fuse" else 0
    and_plane = tuple(
        tuple(bit for _ in range(2 * profile.n_inputs)) for _ in range(profile.n_terms)
    )
    or_plane = tuple(
        tuple(bit for _ in range(profile.n_terms)) for _ in range(profile.n_outputs)
    )
    return PlaState(profile, and_plane, or_plane, (0,) * profile.n_outputs)


def _plane(state, plane, row, col):
    """The plane holding crosspoint (row, col), after checking it exists."""
    if plane not in PLANES:
        raise ValueError(f"plane must be one of {PLANES}, got {plane!r}")
    matrix = state.and_plane if plane == "and" else state.or_plane
    if not (0 <= row < len(matrix) and 0 <= col < len(matrix[0])):
        raise ValueError(f"{plane} plane has no crosspoint ({row}, {col})")
    return matrix


def set_crosspoint(state, plane, row, col, connected):
    """Return a new image with one crosspoint forced to `connected` (0 or 1)."""
    if connected not in (0, 1):
        raise ValueError(f"crosspoint value must be 0 or 1, got {connected!r}")
    matrix = _plane(state, plane, row, col)
    new_row = matrix[row][:col] + (connected,) + matrix[row][col + 1 :]
    updated = matrix[:row] + (new_row,) + matrix[row + 1 :]
    if plane == "and":
        return replace(state, and_plane=updated)
    return replace(state, or_plane=updated)


def set_polarity(state, index, bit):
    if not state.profile.has_output_xor:
        raise ValueError("profile has no output XOR; polarity is fixed at 0")
    if bit not in (0, 1):
        raise ValueError(f"polarity bit must be 0 or 1, got {bit!r}")
    if not 0 <= index < state.profile.n_outputs:
        raise ValueError(f"no output {index}")
    polarity = list(state.polarity)
    polarity[index] = bit
    return replace(state, polarity=tuple(polarity))


# ---------------------------------------------------------------------------
# Evaluation


def _word(bits):
    return int("".join(map(str, bits)), 2)


class _Compiled:
    """Integer form of one image.

    Input j is bit n-1-j of an input word, so int(bits, 2) is the word of
    an input string and row r of a 2^n-row mask is input word r. Term t is
    bit t of an OR row and of a term word. Output o is bit m-1-o of an
    output word.
    """

    def __init__(self, state):
        self.n = state.profile.n_inputs
        self.full = (1 << (1 << self.n)) - 1
        self.polarity = state.polarity
        self.flip = _word(state.polarity)
        self.literals = tuple(  # (req1, req0) per term
            (_word(row[0::2]), _word(row[1::2])) for row in state.and_plane
        )
        self.or_rows = tuple(_word(row[::-1]) for row in state.or_plane)

    @cached_property
    def slices(self):
        """slices[s][v]: the word of terms left alive when bits 8s..8s+7 of
        the input word read v. Built by doubling, one input bit at a time,
        from the terms each bit value kills."""
        dead = [[0, 0] for _ in range(self.n)]  # [when 0, when 1] per bit
        for t, lits in enumerate(self.literals):
            for value, req in enumerate(lits):  # req1 dies on 0, req0 on 1
                while req:
                    low = req & -req
                    dead[low.bit_length() - 1][value] |= 1 << t
                    req ^= low
        every = (1 << len(self.literals)) - 1
        tables = []
        for lo in range(0, self.n, 8):
            table = [every]
            for dead0, dead1 in dead[lo : lo + 8]:
                table = [e & ~dead0 for e in table] + [e & ~dead1 for e in table]
            tables.append(tuple(table))
        return tuple(tables)

    def eval(self, x):
        """Output word for input word x: one lookup per 8-bit slice, then
        one test per OR row."""
        alive = -1
        for table in self.slices:
            alive &= table[x & 0xFF]
            x >>= 8
        word = 0
        for row in self.or_rows:
            word = word << 1 | (alive & row != 0)
        return word ^ self.flip

    @cached_property
    def terms(self):
        return tuple(_product_mask(self.n, *lits) for lits in self.literals)

    @cached_property
    def raw(self):
        """Output masks before the polarity XOR."""
        return tuple(
            reduce(or_, (m for t, m in enumerate(self.terms) if row >> t & 1), 0)
            for row in self.or_rows
        )

    @cached_property
    def outputs(self):
        return tuple(m ^ self.full if p else m for m, p in zip(self.raw, self.polarity))

    @cached_property
    def twice(self):
        """Rows of each output that two or more connected terms cover."""
        masks = []
        for row in self.or_rows:
            once = twice = 0
            for t, m in enumerate(self.terms):
                if row >> t & 1:
                    once, twice = once | m, twice | once & m
            masks.append(twice)
        return tuple(masks)

    @cached_property
    def hidden(self):
        """hidden[t]: rows where each output that term t feeds is 1 through
        another term, so no change to term t shows there."""
        return tuple(
            reduce(and_, (raw & ~m | twice & m
                          for row, raw, twice in zip(self.or_rows, self.raw, self.twice)
                          if row >> t & 1), self.full)
            for t, m in enumerate(self.terms)
        )


def _compiled(state):
    """The image's integer form, built on first use and kept on the instance
    outside the dataclass fields, so equality, hashing and replace() are
    untouched. Every edit makes a new instance, so it never goes stale."""
    compiled = state.__dict__.get("_compiled")
    if compiled is None:
        compiled = _Compiled(state)
        object.__setattr__(state, "_compiled", compiled)
    return compiled


def eval_pla(state, bits):
    """Evaluate one input vector; returns the m-character output string."""
    word = _compiled(state).eval(int(check_bits(bits, state.profile.n_inputs), 2))
    return format(word, f"0{state.profile.n_outputs}b")


def output_masks(state):
    """Bit-parallel exhaustive evaluation: one 2^n-bit mask per output."""
    return _compiled(state).outputs


# ---------------------------------------------------------------------------
# Stuck-crosspoint faults


@dataclass(frozen=True)
class Fault:
    """One crosspoint stuck connected or disconnected."""

    plane: str
    row: int
    col: int
    stuck: str

    def __post_init__(self):
        if self.plane not in PLANES:
            raise ValueError(f"plane must be one of {PLANES}, got {self.plane!r}")
        if self.stuck not in STUCK_MODES:
            raise ValueError(f"stuck must be one of {STUCK_MODES}, got {self.stuck!r}")

    def __str__(self):
        return f"{self.plane}[{self.row},{self.col}] stuck-{self.stuck}"


def inject_fault(state, fault):
    """Image as the faulty part would behave: the crosspoint reads `stuck`."""
    value = 1 if fault.stuck == "connected" else 0
    return set_crosspoint(state, fault.plane, fault.row, fault.col, value)


def enumerate_faults(profile):
    """Every single stuck-crosspoint fault, in a fixed deterministic order."""
    shapes = (("and", profile.n_terms, 2 * profile.n_inputs),
              ("or", profile.n_outputs, profile.n_terms))
    return [Fault(plane, row, col, stuck) for plane, rows, cols in shapes
            for row in range(rows) for col in range(cols) for stuck in STUCK_MODES]


def find_test_vector(state, fault):
    """Lowest input vector whose outputs expose the fault, or None.

    None means the fault is undetectable on this image -- usually because
    the stuck value equals the programmed value, or the crosspoint feeds
    nothing observable. Only the faulted term or output is re-evaluated.
    """
    stuck = 1 if fault.stuck == "connected" else 0
    row, col = fault.row, fault.col
    if _plane(state, fault.plane, row, col)[row][col] == stuck:
        return None
    image = _compiled(state)
    if fault.plane == "and":
        req1, req0 = image.literals[row]
        bit = 1 << (image.n - 1 - col // 2)
        if col % 2:
            req0 ^= bit
        else:
            req1 ^= bit
        changed = image.terms[row] ^ _product_mask(image.n, req1, req0)
        diff = changed & ~image.hidden[row]
    elif stuck:
        diff = image.terms[col] & ~image.raw[row]
    else:
        diff = image.terms[col] & ~image.twice[row]
    return lowest_row(diff, image.n)


# ---------------------------------------------------------------------------
# Diagram


def render_crosspoint_diagram(state, input_names=None, output_names=None):
    """ASCII crosspoint map: X connected, . open, AND plane | OR plane.

    Each input owns a true/complement column pair; each line below the
    header is one product term showing which outputs it feeds. A POL line
    appears only on devices with the output XOR.
    """
    prof = state.profile
    if input_names is None:
        input_names = [f"x{j}" for j in range(prof.n_inputs)]
    if output_names is None:
        output_names = [f"f{o}" for o in range(prof.n_outputs)]
    if len(input_names) != prof.n_inputs:
        raise ValueError(f"expected {prof.n_inputs} input names")
    if len(output_names) != prof.n_outputs:
        raise ValueError(f"expected {prof.n_outputs} output names")

    and_labels = []
    for name in input_names:
        and_labels.append(name)
        and_labels.append(name + "'")
    term_labels = [f"T{t}" for t in range(prof.n_terms)]
    left_w = max(len(s) for s in term_labels + ["POL"]) + 2
    and_ws = [len(s) + 1 for s in and_labels]
    or_ws = [len(s) + 1 for s in output_names]

    lines = []
    header = "".ljust(left_w)
    header += "".join(s.ljust(w) for s, w in zip(and_labels, and_ws))
    header += "| " + "".join(s.ljust(w) for s, w in zip(output_names, or_ws))
    lines.append(header.rstrip())
    for t in range(prof.n_terms):
        line = term_labels[t].ljust(left_w)
        line += "".join(
            ("X" if bit else ".").ljust(w)
            for bit, w in zip(state.and_plane[t], and_ws)
        )
        line += "| " + "".join(
            ("X" if state.or_plane[o][t] else ".").ljust(w)
            for o, w in zip(range(prof.n_outputs), or_ws)
        )
        lines.append(line.rstrip())
    if prof.has_output_xor:
        line = "POL".ljust(left_w) + " " * sum(and_ws)
        line += "| " + "".join(
            str(bit).ljust(w) for bit, w in zip(state.polarity, or_ws)
        )
        lines.append(line.rstrip())
    return "\n".join(lines) + "\n"
