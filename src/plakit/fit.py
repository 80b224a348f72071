"""Fitting covers onto devices, and the interchange formats.

The fuse map is the programming artifact: a plain-text image of every
crosspoint, written so that a stored 1 always means "connected" whichever
switch technology the header names. Layout, one section per line group:

    PLAFUSE 1
    TECH fuse XOR 0        switch technology, output-XOR presence
    DIM 3 8 2              n inputs, p product terms, m outputs
    ILB A B C              optional input labels (exactly n)
    OB F G                 optional output labels (exactly m)
    AND                    p rows of 2n chars; cols 2j / 2j+1 = input j
    100100                 true / complement
    ...
    OR                     m rows of p chars
    10110000
    ...
    POL 01                 only when XOR 1: per-output polarity bits
    END

Lines end with LF (CRLF accepted on read); blank lines are ignored on
read, never written. Everything after END is an error.

The Berkeley PLA reader/writer handles the plain-SOP subset: .i/.o/.p,
.ilb/.ob, cube lines with {0,1,-} inputs and {0,1} outputs, '#' comments,
.e/.end. Output don't-cares and multi-plane types are rejected. One
scanner, `_scan_rows`, reads the grammar that .pla covers and KISS2
machines share. It refuses an unknown directive, a bad or zero .i/.o
count, a .i above the input limit, a row before .i/.o or without them,
a row with the wrong field count or a bad cube or output field, and a
.i/.o that changes after rows were read.
"""

import warnings
from dataclasses import dataclass, replace

from . import expr as ex
from . import logic
from . import minimize as mn
from .device import PlaProfile, PlaState
from .errors import CapacityError, FormatError


@dataclass(frozen=True)
class FitReport:
    """How a multi-output cover landed on a device."""

    inputs_used: int
    inputs_available: int
    terms_used: int
    terms_available: int
    outputs_used: int
    outputs_available: int
    assignments: tuple  # (output name, tuple of term rows)
    shared_terms: tuple  # rows feeding two or more outputs
    input_names: tuple  # padded to the device width
    output_names: tuple

    def summary(self):
        lines = [
            f"inputs  {self.inputs_used}/{self.inputs_available}",
            f"terms   {self.terms_used}/{self.terms_available}",
            f"outputs {self.outputs_used}/{self.outputs_available}",
        ]
        for name, rows in self.assignments:
            terms = " ".join(f"T{r}" for r in rows) if rows else "(none)"
            lines.append(f"{name}: {terms}")
        if self.shared_terms:
            lines.append("shared: " + " ".join(f"T{r}" for r in self.shared_terms))
        return "\n".join(lines) + "\n"


def pad_input_names(order, n_inputs):
    """Extend cover variable names with fresh labels for unused device inputs."""
    return _pad_names(order, n_inputs, "x")


def _pad_names(names, width, stem):
    """`names` extended to `width` with stem+position labels, each prefixed
    with '_' while the name is taken."""
    names = list(names)
    used = set(names)
    for j in range(len(names), width):
        candidate = f"{stem}{j}"
        while candidate in used:
            candidate = "_" + candidate
        names.append(candidate)
        used.add(candidate)
    return tuple(names)


def fit(mcover, profile):
    """Map a MultiOutputCover onto a device; returns (PlaState, FitReport).

    Pool cube i becomes AND row i: literal '1' on variable j connects
    column 2j, '0' connects 2j+1, '-' connects nothing. Unused rows and
    columns are left fully disconnected. Raises CapacityError with exact
    needed/available counts when any axis does not fit.
    """
    n_vars = len(mcover.order)
    n_outs = len(mcover.outputs)
    n_terms = len(mcover.term_pool)
    for axis, needed, available in (("inputs", n_vars, profile.n_inputs),
                                    ("outputs", n_outs, profile.n_outputs),
                                    ("terms", n_terms, profile.n_terms)):
        if needed > available:
            raise CapacityError(axis, needed, available)

    pad = profile.n_inputs - n_vars  # unused inputs take the low bits
    and_words = [(req1 << pad, req0 << pad)
                 for req1, req0 in map(logic.cube_words, mcover.term_pool)]
    and_words += [(0, 0)] * (profile.n_terms - n_terms)

    or_words = []
    usage = [0] * n_terms
    for _, sel in mcover.outputs:
        word = 0
        for t in sel:
            word |= 1 << t
            usage[t] += 1
        or_words.append(word)
    or_words += [0] * (profile.n_outputs - n_outs)

    state = PlaState(profile, and_words, or_words)
    report = FitReport(
        inputs_used=n_vars,
        inputs_available=profile.n_inputs,
        terms_used=n_terms,
        terms_available=profile.n_terms,
        outputs_used=n_outs,
        outputs_available=profile.n_outputs,
        assignments=mcover.outputs,
        shared_terms=tuple(t for t in range(n_terms) if usage[t] >= 2),
        input_names=pad_input_names(mcover.order, profile.n_inputs),
        output_names=_pad_names(mcover.names, profile.n_outputs, "f"),
    )
    return state, report


# ---------------------------------------------------------------------------
# Fuse map text format


@dataclass(frozen=True)
class FuseMap:
    """A parsed fuse map: the device image plus any labels it carried."""

    state: PlaState
    input_names: tuple = None
    output_names: tuple = None


def emit_fusemap(state, input_names=None, output_names=None):
    prof = state.profile
    if input_names is not None and len(input_names) != prof.n_inputs:
        raise ValueError(f"expected {prof.n_inputs} input names")
    if output_names is not None and len(output_names) != prof.n_outputs:
        raise ValueError(f"expected {prof.n_outputs} output names")
    lines = [
        "PLAFUSE 1",
        f"TECH {prof.switch_tech} XOR {1 if prof.has_output_xor else 0}",
        f"DIM {prof.n_inputs} {prof.n_terms} {prof.n_outputs}",
    ]
    if input_names is not None:
        lines.append("ILB " + " ".join(input_names))
    if output_names is not None:
        lines.append("OB " + " ".join(output_names))
    lines.append("AND")
    n = prof.n_inputs
    row = bytearray(2 * n)  # column 2j: input j true, 2j+1: its complement
    for req1, req0 in state.and_words:
        row[0::2] = format(req1, f"0{n}b").encode()
        row[1::2] = format(req0, f"0{n}b").encode()
        lines.append(row.decode())
    lines.append("OR")
    lines += [format(w, f"0{prof.n_terms}b")[::-1] for w in state.or_words]
    if prof.has_output_xor:
        lines.append("POL " + format(state.pol_word, f"0{prof.n_outputs}b"))
    lines.append("END")
    return "\n".join(lines) + "\n"


def _nonblank_lines(text):
    for raw in text.split("\n"):
        line = raw.rstrip("\r").strip()
        if line:
            yield line


def _next_line(it, what, artifact="fuse map"):
    for line in it:
        return line
    raise FormatError(f"truncated {artifact}: expected {what}")


def _row_text(line, width, what):
    """The row's 0/1 text after its width and character checks. The
    character check stands before any int(row, 2), which would also take
    '_', '+' and spaces."""
    if len(line) != width:
        raise FormatError(f"{what} has {len(line)} columns, expected {width}")
    if not logic._BIT_CHARS.issuperset(line):
        raise FormatError(f"{what} has illegal characters "
                          f"{sorted(set(line) - logic._BIT_CHARS)}")
    return line


def parse_fusemap(text):
    it = _nonblank_lines(text)
    header = _next_line(it, "PLAFUSE header")
    if not header.startswith("PLAFUSE"):
        raise FormatError("not a fuse map: missing PLAFUSE header")
    if header.split() != ["PLAFUSE", "1"]:
        raise FormatError(f"unsupported fuse map version: {header!r}")

    tech_line = _next_line(it, "TECH line").split()
    if len(tech_line) != 4 or tech_line[0] != "TECH" or tech_line[2] != "XOR":
        raise FormatError("malformed TECH line: expected 'TECH <tech> XOR <0|1>'")
    tech = tech_line[1]
    if tech not in ("fuse", "antifuse"):
        raise FormatError(f"unknown switch technology {tech!r}")
    if tech_line[3] not in ("0", "1"):
        raise FormatError(f"XOR flag must be 0 or 1, got {tech_line[3]!r}")
    has_xor = tech_line[3] == "1"

    dim_line = _next_line(it, "DIM line").split()
    if len(dim_line) != 4 or dim_line[0] != "DIM":
        raise FormatError("malformed DIM line: expected 'DIM <inputs> <terms> <outputs>'")
    try:
        n, p, m = (int(x) for x in dim_line[1:])
    except ValueError:
        raise FormatError(f"non-numeric DIM entries: {dim_line[1:]}") from None
    if min(n, p, m) < 1:
        raise FormatError(f"DIM entries must be positive: {n} {p} {m}")
    if n > logic.MAX_VARS:
        raise FormatError(f"DIM asks for {n} inputs; the limit is {logic.MAX_VARS}")

    line = _next_line(it, "ILB, OB, or AND")
    input_names = output_names = None
    if line.split()[0] == "ILB":
        input_names = _labels(line.split())
        if len(input_names) != n:
            raise FormatError(f"ILB lists {len(input_names)} names, DIM says {n} inputs")
        line = _next_line(it, "OB or AND")
    if line.split()[0] == "OB":
        output_names = _labels(line.split())
        if len(output_names) != m:
            raise FormatError(f"OB lists {len(output_names)} names, DIM says {m} outputs")
        line = _next_line(it, "AND")

    if line != "AND":
        raise FormatError(f"expected AND section, got {line!r}")
    and_words = []
    for r in range(p):
        row = _row_text(_next_line(it, f"AND row {r}"), 2 * n, f"AND row {r}")
        and_words.append((int(row[0::2], 2), int(row[1::2], 2)))
    line = _next_line(it, "OR")
    if line != "OR":
        raise FormatError(f"expected OR section, got {line!r}")
    or_words = [int(_row_text(_next_line(it, f"OR row {r}"), p, f"OR row {r}")[::-1], 2)
                for r in range(m)]

    line = _next_line(it, "POL or END")
    polarity = 0
    if line.split()[0] == "POL":
        if not has_xor:
            raise FormatError("POL line on a device without output XOR")
        parts = line.split()
        if len(parts) != 2:
            raise FormatError("malformed POL line")
        polarity = int(_row_text(parts[1], m, "POL"), 2)
        line = _next_line(it, "END")
    elif has_xor:
        raise FormatError("device has output XOR but no POL line")
    if line != "END":
        raise FormatError(f"expected END, got {line!r}")
    for extra in it:
        raise FormatError(f"content after END: {extra!r}")

    profile = PlaProfile(n, p, m, switch_tech=tech, has_output_xor=has_xor)
    state = PlaState(profile, and_words, or_words, polarity)
    return FuseMap(state, input_names, output_names)


# ---------------------------------------------------------------------------
# Berkeley PLA format (plain SOP subset)


def read_berkeley_pla(text, strict=False):
    """Parse the .pla subset into a MultiOutputCover.

    Only the single-plane SOP form is handled: input characters {0,1,-},
    output characters {0,1}. A .p term count that disagrees with the cube
    lines warns, or raises under strict=True. Duplicate input cubes fold
    into one pool entry.
    """
    n, m, rows, found = _scan_rows(text, "<inputs> <outputs>", "cube", _PLA_DIRECTIVES)
    declared_p = found.get(".p")
    if declared_p is not None and declared_p != len(rows):
        msg = f".p declares {declared_p} terms but {len(rows)} cube lines present"
        if strict:
            raise FormatError(msg)
        warnings.warn(msg)
    input_names, output_names = found.get(".ilb"), found.get(".ob")
    if input_names is not None and len(input_names) != n:
        raise FormatError(f".ilb lists {len(input_names)} names, .i says {n}")
    if output_names is not None and len(output_names) != m:
        raise FormatError(f".ob lists {len(output_names)} names, .o says {m}")
    # Default names come from the declared counts alone. A cube or label line
    # spends a character per signal, so a count beyond the file's length is
    # backed by neither, and building its names would be unbounded work.
    for key, count in ((".i", n), (".o", m)):
        if count > len(text):
            raise FormatError(f"{key} {count} is more signals than the file describes")
    if input_names is None:
        input_names = tuple(f"x{j}" for j in range(n))
    if output_names is None:
        output_names = tuple(f"f{o}" for o in range(m))
    uses = [(cube, [o for o, c in enumerate(outs) if c == "1"]) for cube, outs in rows]
    return mn.MultiOutputCover.pooled(input_names, output_names, uses)


def _pla_type(parts, lineno):
    if parts[1:] != ["f"]:
        raise FormatError(f"line {lineno}: only '.type f' is supported")


_PLA_DIRECTIVES = {
    ".ilb": lambda parts, lineno: _labels(parts, f"line {lineno}: "),
    ".ob": lambda parts, lineno: _labels(parts, f"line {lineno}: "),
    ".type": _pla_type,
}


def _scan_rows(text, shape, noun, directives):
    """Read the dot-directive grammar that .pla covers and KISS2 machines
    share; returns (n, m, rows, found).

    Each row comes back as its list of `shape`'s fields, the first an
    n-char input cube and the last m output bits. A directive other than
    .i/.o/.p/.e/.end is read by `directives[key](parts, lineno)`, and
    `found` maps each key read, .p included, to its last line's value.
    """
    readers = {".p": _directive_count, **directives}
    counts = {".i": None, ".o": None}
    n = m = None
    width = shape.count(" ") + 1
    rows = []
    found = {}
    for lineno, line in ex.content_lines(text):
        parts = line.split()
        if line[0] != ".":
            if n is None or m is None:
                raise FormatError(f"line {lineno}: {noun} before .i/.o declarations")
            if len(parts) != width:
                raise FormatError(f"line {lineno}: expected {shape!r}, got {line!r}")
            _check_line(lineno, parts[0], parts[-1], n, m)
            rows.append(parts)
            continue
        key = parts[0]
        if key in counts:
            count = _signal_count(parts, lineno)
            if rows and count != counts[key]:
                raise FormatError(f"line {lineno}: {key} {count} after rows "
                                  f"read with {key} {counts[key]}")
            counts[key] = count
            n, m = counts.values()
        elif key in (".e", ".end"):
            break
        elif key in readers:
            found[key] = readers[key](parts, lineno)
        else:
            raise FormatError(f"line {lineno}: unsupported directive {key!r}")
    if n is None or m is None:
        raise FormatError("missing .i/.o declarations")
    return n, m, rows, found


def _directive_count(parts, lineno):
    if len(parts) != 2:
        raise FormatError(f"line {lineno}: {parts[0]} takes one numeric argument")
    try:
        value = int(parts[1])
    except ValueError:
        raise FormatError(f"line {lineno}: bad count {parts[1]!r}") from None
    if value < 0:
        raise FormatError(f"line {lineno}: negative count {value}")
    return value


def _signal_count(parts, lineno):
    """A .i or .o count; a .i count sizes every 2^n-row mask made from the file."""
    value = _directive_count(parts, lineno)
    if value == 0:
        raise FormatError(f"line {lineno}: {parts[0]} must declare at least one signal")
    if parts[0] == ".i" and value > logic.MAX_VARS:
        raise FormatError(f"line {lineno}: .i {value} is more signals than "
                          f"the limit of {logic.MAX_VARS} inputs")
    return value


def _labels(parts, where=""):
    """The names after an ILB/OB/.ilb/.ob keyword, none repeated."""
    names = tuple(parts[1:])
    if len(set(names)) < len(names):
        raise FormatError(f"{where}{parts[0]} repeats a name: {' '.join(names)}")
    return names


def _check_row(cube, outs, n, m):
    """Check one '<input cube> <outputs>' row of a .pla cover or KISS2 machine."""
    logic.check_cube(cube, n)
    try:
        logic.check_bits(outs, m)
    except ValueError:
        raise ValueError(
            f"outputs {outs!r} is not {m} chars of 0/1 "
            "(output don't-cares are not supported)"
        ) from None


def _check_line(lineno, cube, outs, n, m):
    try:
        _check_row(cube, outs, n, m)
    except ValueError as exc:
        raise FormatError(f"line {lineno}: {exc}") from None


def write_berkeley_pla(mcover):
    n = len(mcover.order)
    lines = [
        f".i {n}",
        f".o {len(mcover.outputs)}",
        f".p {len(mcover.term_pool)}",
        ".ilb " + " ".join(mcover.order),
        ".ob " + " ".join(mcover.names),
    ]
    sel_sets = [set(sel) for _, sel in mcover.outputs]
    for t, cube in enumerate(mcover.term_pool):
        out_part = "".join("1" if t in s else "0" for s in sel_sets)
        lines.append(f"{cube} {out_part}")
    lines.append(".e")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Equations -> programmed device


def compile_equations(equations, profile, minimize=False, polarity=None, order=None):
    """Compile (name, Expr) pairs onto a device; returns (PlaState, FitReport).

    Each SOP-shaped equation maps term-for-term into AND rows, so the
    written image matches the written algebra; anything else goes through
    its truth table as a canonical minterm cover. With minimize=True every
    output is minimized instead. A polarity-1 output stores the cover of
    the complement and sets the XOR bit, leaving the pin function equal to
    the equation -- the product-of-sums trick. `polarity` is a name->bit
    mapping or a bit sequence in equation order.
    """
    equations = list(equations)
    if not equations:
        raise ValueError("no equations to compile")
    names = [name for name, _ in equations]

    pol_bits = _polarity_bits(polarity, names)
    if any(pol_bits) and not profile.has_output_xor:
        raise ValueError("polarity requested but profile has no output XOR")

    if order is None:
        order = ex.variables(*(e for _, e in equations)) or ("x0",)
    else:
        order = tuple(order)
        for name, e in equations:
            missing = set(ex.variables(e)) - set(order)
            if missing:
                raise ValueError(
                    f"equation {name!r} uses variables not in order: {sorted(missing)}"
                )

    named_covers = []
    for (name, e), pol in zip(equations, pol_bits):
        if pol:
            table = logic.table_from_expr(e, order).complement()
            cover = mn.minimize(table) if minimize else logic.canonical_sop(table)
        elif minimize:
            cover = mn.minimize(logic.table_from_expr(e, order))
        else:
            try:
                cover = logic.cover_from_expr(e, order)
            except ValueError:
                cover = logic.canonical_sop(logic.table_from_expr(e, order))
        named_covers.append((name, cover))

    mcover = mn.share_terms(named_covers)
    state, report = fit(mcover, profile)
    if any(pol_bits):
        top = profile.n_outputs - 1
        state = replace(state, pol_word=sum(b << (top - o) for o, b in enumerate(pol_bits)))
    return state, report


def _polarity_bits(polarity, names):
    if polarity is None:
        return [0] * len(names)
    if isinstance(polarity, dict):
        unknown = set(polarity) - set(names)
        if unknown:
            raise ValueError(f"polarity names not among outputs: {sorted(unknown)}")
        bits = [1 if polarity.get(name) else 0 for name in names]
    else:
        bits = [1 if b else 0 for b in polarity]
        if len(bits) != len(names):
            raise ValueError(
                f"polarity has {len(bits)} bits for {len(names)} outputs"
            )
    return bits
