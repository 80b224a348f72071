"""Brute-force reference implementations the tests trust.

Everything here is deliberately naive -- enumerate, tabulate, rescore,
don't be clever -- so the library's bit-parallel code is checked against
an independent path.
"""

import contextlib
import importlib
import io
import random
import warnings
from collections import Counter
from dataclasses import replace
from itertools import combinations, product

from plakit import (
    And, CapacityError, Const, ControllerImage, FormatError, Fsm, MultiOutputCover, Not, Or,
    ParseError, PlaProfile, PlaState, Transition, Var, canonical_sop, compile_equations,
    cover_from_expr, default_encoding, emit_fusemap, eval_pla, fit, fsm_to_covers,
    inject_fault, minimize, output_masks, pad_input_names, parse_equations, parse_fusemap,
    share_terms, table_from_expr, variables,
)
from plakit.cli import parse_profile
from plakit.expr import _equation_lines, content_lines
from plakit.fit import _check_row, _directive_count, _signal_count
from plakit.minimize import _checked_mask

fit_module, fsm_module = map(importlib.import_module, ("plakit.fit", "plakit.fsm"))


def all_cubes(n):
    """All 3^n cubes over n variables."""
    return ["".join(p) for p in product("01-", repeat=n)]


def cube_rows_naive(cube):
    """Rows covered by a cube, by scanning every row."""
    n = len(cube)
    rows = []
    for i in range(1 << n):
        bits = format(i, f"0{n}b")
        if all(c == "-" or c == b for c, b in zip(cube, bits)):
            rows.append(i)
    return rows


def brute_primes(care, n):
    """Maximal cubes contained in the care set, by enumerating all 3^n cubes."""
    care = set(care)

    def implicant(cube):
        return set(cube_rows_naive(cube)) <= care

    primes = []
    for cube in all_cubes(n):
        if not implicant(cube):
            continue
        wider = [
            cube[:j] + "-" + cube[j + 1 :] for j, c in enumerate(cube) if c != "-"
        ]
        if not any(implicant(w) for w in wider):
            primes.append(cube)
    return sorted(primes, key=lambda c: (-c.count("-"), c))


def qm_primes(care, n):
    """Prime implicants of the care rows by Quine-McCluskey tabulation on
    (req1, req0) literal words, widest first then lexicographic.

    A cube merges with the cube that has one of its complemented literals
    true, found by set lookup; what merges with nothing is prime.
    """
    full = (1 << n) - 1
    # level k holds the implicants with k absent literals
    current = {(row, full ^ row) for row in care}
    levels = []
    while current:
        merged = set()
        used = set()
        for req1, req0 in current:
            lits = req0
            while lits:
                d = lits & -lits  # the partner has this literal true
                lits ^= d
                partner = (req1 | d, req0 ^ d)
                if partner in current:
                    merged.add((req1, req0 ^ d))
                    used.add((req1, req0))
                    used.add(partner)
        levels.append(current - used)
        current = merged
    return [
        cube for level in reversed(levels)
        for cube in sorted(cube_of_words(n, req1, req0) for req1, req0 in level)
    ]


def cube_of_words(n, req1, req0):
    """The cube string of a (req1, req0) literal-word pair, one variable at a
    time: bit n-1-j of req1 makes variable j '1', of req0 '0'."""
    return "".join("1" if req1 >> k & 1 else "0" if req0 >> k & 1 else "-"
                   for k in range(n - 1, -1, -1))


def and_row_naive(n, req1, req0):
    """A fuse-map AND row, one column at a time: column 2j is bit n-1-j of
    req1 (input j true), column 2j+1 the same bit of req0 (its complement)."""
    return "".join(str(word >> (n - 1 - col // 2) & 1)
                   for col, word in enumerate([req1, req0] * n))


def greedy_cover_naive(primes, on_rows):
    """The cover minimum_cover picks without Petrick: every prime that is the
    sole coverer of some on-set row, in list order, then greedy picks that
    rescore every prime at every step -- the most uncovered rows first, ties
    to the lexicographically smallest cube."""
    on_rows = set(on_rows)
    rows_of = [  # a cube's rows, by filling in its '-' positions both ways
        {int("".join(bits), 2) for bits in product(*(c.replace("-", "01") for c in cube))}
        & on_rows
        for cube in primes
    ]
    coverers = Counter(row for rows in rows_of for row in rows)
    chosen = [i for i, rows in enumerate(rows_of)
              if any(coverers[row] == 1 for row in rows)]
    masks = [sum(1 << row for row in rows) for rows in rows_of]
    remaining = sum(1 << row for row in on_rows)
    for i in chosen:
        remaining &= ~masks[i]
    backwards = [tuple(-ord(c) for c in cube) for cube in primes]  # max() picks the least
    picked = []
    while remaining:
        best = max(range(len(primes)),
                   key=lambda i: ((masks[i] & remaining).bit_count(), backwards[i]))
        picked.append(best)
        remaining &= ~masks[best]
    return tuple(primes[i] for i in chosen + picked)


def brute_min_cover_size(primes, on_rows, n):
    """Smallest number of primes covering on_rows, by subset enumeration."""
    on_rows = set(on_rows)
    if not on_rows:
        return 0
    rows_of = [set(cube_rows_naive(c)) & on_rows for c in primes]
    useful = [i for i, rows in enumerate(rows_of) if rows]
    for k in range(1, len(useful) + 1):
        for combo in combinations(useful, k):
            hit = set()
            for i in combo:
                hit |= rows_of[i]
            if hit >= on_rows:
                return k
    raise AssertionError("primes do not cover the on-set")


def pooled_naive(order, names, rows):
    """MultiOutputCover.pooled from position lists: each (cube, output bits)
    row becomes the list of outputs it feeds; a cube's pool index is where
    its first row stands among the distinct cubes, and each output lists a
    term at its first row that feeds the output."""
    positions = [(cube, [o for o, c in enumerate(outs) if c == "1"]) for cube, outs in rows]
    pool = []
    for cube, _ in positions:
        if cube not in pool:
            pool.append(cube)
    outputs = []
    for o, name in enumerate(names):
        sel = []
        for cube, feeds in positions:
            if o in feeds and pool.index(cube) not in sel:
                sel.append(pool.index(cube))
        outputs.append((name, tuple(sel)))
    return MultiOutputCover(order, tuple(pool), tuple(outputs))


def eval_pla_naive(state, bits):
    """Independent reading of the plane semantics, one input at a time."""
    n = state.profile.n_inputs
    term_values = []
    for row in state.and_plane:
        value = 1
        for j in range(n):
            if row[2 * j] == 1 and bits[j] == "0":
                value = 0
            if row[2 * j + 1] == 1 and bits[j] == "1":
                value = 0
        term_values.append(value)
    out = ""
    for o in range(state.profile.n_outputs):
        raw = 0
        for t in range(state.profile.n_terms):
            if state.or_plane[o][t] == 1 and term_values[t] == 1:
                raw = 1
        out += str(raw ^ state.polarity[o])
    return out


def lowest_differing_row_naive(state, fault):
    """Input string of the lowest row where the good image and the image
    with `fault` injected differ, each evaluated from scratch; None when
    they agree everywhere."""
    diff = 0
    for good, bad in zip(output_masks(state), output_masks(inject_fault(state, fault))):
        diff |= good ^ bad
    if not diff:
        return None
    n = state.profile.n_inputs
    return format((diff & -diff).bit_length() - 1, f"0{n}b")


def random_state(rng, profile, density=0.3):
    """A random programmed image at the given connection density."""
    and_plane = tuple(
        tuple(1 if rng.random() < density else 0 for _ in range(2 * profile.n_inputs))
        for _ in range(profile.n_terms)
    )
    or_plane = tuple(
        tuple(1 if rng.random() < density else 0 for _ in range(profile.n_terms))
        for _ in range(profile.n_outputs)
    )
    if profile.has_output_xor:
        polarity = tuple(rng.randint(0, 1) for _ in range(profile.n_outputs))
    else:
        polarity = (0,) * profile.n_outputs
    return state_from_planes(profile, and_plane, or_plane, polarity)


def state_from_planes(profile, and_plane, or_plane, polarity):
    """The PlaState drawn as 0/1 rows: AND rows of 2n columns (input j true
    at 2j, complement at 2j+1), OR rows of p term columns, m polarity bits.
    Each word is summed bit by bit."""
    def word(bits):  # first bit most significant
        bits = list(bits)
        assert set(bits) <= {0, 1}, bits
        return sum(bit << (len(bits) - 1 - k) for k, bit in enumerate(bits))

    n, p, m = profile.n_inputs, profile.n_terms, profile.n_outputs
    assert all(len(row) == 2 * n for row in and_plane), "AND rows need 2n columns"
    assert all(len(row) == p for row in or_plane), "OR rows need p columns"
    assert len(polarity) == m, "polarity needs m bits"
    and_words = [(word(row[0::2]), word(row[1::2])) for row in and_plane]
    return PlaState(profile, and_words, [word(row[::-1]) for row in or_plane],
                    word(polarity))


def random_profile(rng, max_inputs=4, max_terms=6, max_outputs=3):
    return PlaProfile(
        rng.randint(1, max_inputs),
        rng.randint(1, max_terms),
        rng.randint(1, max_outputs),
        switch_tech=rng.choice(["fuse", "antifuse"]),
        has_output_xor=rng.random() < 0.5,
    )


def random_fsm(rng, max_states=6, max_inputs=2, max_outputs=2):
    """A deterministic random machine built from fully-specified transitions.

    Every transition's input cube is a full minterm, so rows for one state
    can never overlap; some (state, input) pairs are left unmatched to
    exercise the hold-state rule.
    """
    s = rng.randint(2, max_states)
    k = rng.randint(1, max_inputs)
    q = rng.randint(1, max_outputs)
    states = [f"Q{i}" for i in range(s)]
    transitions = []
    for state in states:
        for value in range(1 << k):
            if rng.random() < 0.75:
                transitions.append(
                    Transition(
                        format(value, f"0{k}b"),
                        state,
                        rng.choice(states),
                        "".join(str(rng.randint(0, 1)) for _ in range(q)),
                    )
                )
    if not transitions:
        transitions.append(Transition("0" * k, states[0], states[1], "1" * q))
    return Fsm(k, q, tuple(states), states[0], tuple(transitions))


def _split_cube(rng, cube, depth):
    """Disjoint cubes whose union is `cube`, cut on random '-' positions."""
    free = [j for j, c in enumerate(cube) if c == "-"]
    if not free or depth == 0 or rng.random() < 0.3:
        return [cube]
    j = rng.choice(free)
    return [
        piece
        for bit in "01"
        for piece in _split_cube(rng, cube[:j] + bit + cube[j + 1 :], depth - 1)
    ]


def _punch_hole(rng, cube):
    """Disjoint cubes covering `cube` except a random sub-cube of 1 to 4 rows."""
    free = [j for j, c in enumerate(cube) if c == "-"]
    fixed = rng.sample(free, max(0, len(free) - rng.randint(0, 2)))
    pieces, rest = [], list(cube)
    for j in fixed:
        bit = rng.choice("01")
        rest[j] = "1" if bit == "0" else "0"
        pieces.append("".join(rest))
        rest[j] = bit
    return pieces


def random_cube_fsm(rng, k, max_states=6, max_outputs=3):
    """A deterministic random machine with k inputs and '-' in its cubes.

    Each state's input space is cut at random positions into disjoint
    cubes, so no two rows of a state overlap; about a quarter of the
    pieces, and always the reset state's first, lose a small sub-cube,
    leaving unmatched (state, input) pairs.
    """
    s = rng.randint(2, max_states)
    q = rng.randint(1, max_outputs)
    states = [f"Q{i}" for i in range(s)]
    transitions = []
    for state in states:
        for i, piece in enumerate(_split_cube(rng, "-" * k, 4)):
            holed = rng.random() < 0.25 or (state == states[0] and i == 0)
            cubes = _punch_hole(rng, piece) if holed else [piece]
            for cube in cubes:
                outputs = "".join(str(rng.randint(0, 1)) for _ in range(q))
                transitions.append(
                    Transition(cube, state, rng.choice(states), outputs)
                )
    return Fsm(k, q, tuple(states), states[0], tuple(transitions))


def next_state_naive(fsm, state, bits):
    """The transition of `state` whose cube covers `bits`, by scanning, or None."""
    for t in fsm.transitions:
        if t.current == state and all(
            c == "-" or c == b for c, b in zip(t.input_cube, bits)
        ):
            return t
    return None


def simulate_controller_naive(image, input_seq):
    """Clocked run with one eval_pla call per cycle and no memory between
    cycles: [(state code bits, outputs)] from code 0."""
    enc = image.encoding
    b, q = enc.bits, enc.n_outputs
    pad = "0" * (image.state.profile.n_inputs - b - enc.n_inputs)
    code = "0" * b
    trace = []
    for bits in input_seq:
        if not isinstance(bits, str):
            bits = "".join(map(str, bits))
        word = eval_pla(image.state, code + bits + pad)
        trace.append((code, word[b : b + q]))
        code = word[:b]
    return trace


def random_input_sequence(rng, width, length):
    return [
        "".join(str(rng.randint(0, 1)) for _ in range(width)) for _ in range(length)
    ]


def seeded(seed):
    return random.Random(seed)


# ---------------------------------------------------------------------------
# `plakit compile` and `plakit verify` on the Expr tree path: every equation
# file parsed to (name, Expr) pairs, covers from compile_equations, tables
# from table_from_expr. Each returns what plakit.cli.main would report.


def _cli_outcome(command):
    """(exit code, stdout, stderr) of a command body, errors mapped to exit
    codes as plakit.cli.main maps them."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = command()
    except CapacityError as exc:
        return 3, out.getvalue(), f"error: {exc}\n"
    except FormatError as exc:
        return 4, out.getvalue(), f"error: {exc}\n"
    except ValueError as exc:
        return 2, out.getvalue(), f"error: {exc}\n"
    return code, out.getvalue(), ""


def compile_via_expr(text, profile, order=None, multi_letter=False):
    """`plakit compile` without --minimize or --polarity: (exit code, fuse
    map text or None, stderr)."""
    fuse = []

    def command():
        equations = parse_equations(text, multi_letter=multi_letter)
        state, report = compile_equations(equations, parse_profile(profile), order=order)
        fuse.append(emit_fusemap(state, report.input_names, report.output_names))
        return 0

    code, _, err = _cli_outcome(command)
    return code, fuse[0] if fuse else None, err


def verify_via_expr(fuse, text, var_order=None, multi_letter=False):
    """`plakit verify`: (exit code, stdout, stderr). The order is
    `var_order`, else the map's ILB, else first appearance in the file."""

    def command():
        fm = parse_fusemap(fuse)
        equations = parse_equations(text, multi_letter=multi_letter)
        if not equations:
            raise ValueError("no equations to verify")
        profile = fm.state.profile
        if len(equations) > profile.n_outputs:
            raise ValueError(
                f"{len(equations)} equations but the device has {profile.n_outputs} outputs")
        base = var_order or fm.input_names or variables(*(e for _, e in equations))
        if len(base) > profile.n_inputs:
            raise ValueError(
                f"{len(base)} variables but the device has {profile.n_inputs} inputs")
        order = pad_input_names(base, profile.n_inputs)
        try:
            tables = [table_from_expr(e, order).bits for _, e in equations]
        except ValueError:
            for name, e in equations:  # the first equation with a name outside
                missing = set(variables(e)).difference(order)
                if missing:
                    raise ValueError(f"equation {name!r} uses variables not on the device: "
                                     f"{sorted(missing)}") from None
            raise
        masks = output_masks(fm.state)
        for i, ((name, _), expected) in enumerate(zip(equations, tables)):
            if not fm.output_names:
                idx = i
            elif name in fm.output_names:
                idx = fm.output_names.index(name)
            else:
                raise ValueError(f"equation {name!r} names no output of the fuse map "
                                 f"(OB: {' '.join(fm.output_names)})")
            diff = masks[idx] ^ expected
            for row in range(1 << profile.n_inputs):  # the lowest differing row
                if diff >> row & 1:
                    bits = format(row, f"0{profile.n_inputs}b")
                    got = masks[idx] >> row & 1
                    print(f"MISMATCH {name}: input {bits} device={got} expected={1 - got}")
                    return 1
        print(f"equivalent: {len(equations)} output(s) verified over "
              f"{1 << profile.n_inputs} input vectors")
        return 0

    return _cli_outcome(command)


# ---------------------------------------------------------------------------
# The string route the compile paths took before they fitted words: each
# output's Cover of cube strings, pooled by share_terms into a
# MultiOutputCover, placed by fit, and the polarity bits set after.


def fit_via_strings(named_covers, profile, pol_bits=()):
    """(PlaState, FitReport) of (name, Cover) pairs through share_terms and fit."""
    state, report = fit(share_terms(named_covers), profile)
    if any(pol_bits):
        top = profile.n_outputs - 1
        state = replace(state, pol_word=sum(b << (top - o) for o, b in enumerate(pol_bits)))
    return state, report


def compile_via_strings(equations, profile, minimize_=False, pol_bits=None, order=None):
    """compile_equations by the string route, `pol_bits` a bit per equation:
    a minimized cover, the complement's minterms under polarity 1, else the
    written products when the body is a sum of products, else its minterms."""
    order = tuple(order) if order else variables(*(e for _, e in equations))
    pol_bits = list(pol_bits or [0] * len(equations))
    covers = []
    for (name, e), pol in zip(equations, pol_bits):
        table = table_from_expr(e, order)
        table = table.complement() if pol else table
        if minimize_:
            cover = minimize(table)
        elif pol:
            cover = canonical_sop(table)
        else:
            try:
                cover = cover_from_expr(e, order)
            except ValueError:
                cover = canonical_sop(table)
        covers.append((name, cover))
    return fit_via_strings(covers, profile, pol_bits)


def synthesize_via_strings(fsm, profile, encoding=None):
    """synthesize_controller(minimize=True) by the string route: each
    output's Cover from fsm_to_covers, minimized against the unused codes."""
    encoding = encoding or default_encoding(fsm)
    mcover, dc_rows = fsm_to_covers(fsm, encoding)
    state, report = fit_via_strings(
        [(name, minimize(mcover.cover_for(name), dc_rows)) for name in mcover.names], profile)
    return ControllerImage(state, encoding, report.input_names, report.output_names), report


def lower_via_rows(fsm, encoding):
    """(ON mask per output, DC mask) of a machine by the row route: the
    table of each output's Cover of fsm_to_covers' rows, and the mask of
    the unused codes' rows, listed one by one."""
    mcover, _ = fsm_to_covers(fsm, encoding)
    b, k = encoding.bits, fsm.n_inputs
    used = {code for _, code in encoding.codes}
    dc_rows = [row for code in range(1 << b) if code not in used
               for row in range(code << k, (code + 1) << k)]
    return ([mcover.cover_for(name).to_table().bits for name in mcover.names],
            _checked_mask(b + k, dc_rows))


# ---------------------------------------------------------------------------
# The .pla and KISS2 readers line by line, and the .pla writer term by term,
# as they were before the readers checked rows in blocks and the writer
# filled each output's column whole.


def scan_rows_per_line(text, shape, noun, directives):
    """fit._scan_rows read one content line at a time, each row checked alone."""
    readers = {".p": _directive_count, **directives}
    counts = {".i": None, ".o": None}
    n = m = None
    width = shape.count(" ") + 1
    rows = []
    found = {}
    for lineno, line in content_lines(text):
        parts = line.split()
        if line[0] != ".":
            if n is None or m is None:
                raise FormatError(f"line {lineno}: {noun} before .i/.o declarations")
            if len(parts) != width:
                raise FormatError(f"line {lineno}: expected {shape!r}, got {line!r}")
            try:
                _check_row(parts[0], parts[-1], n, m)
            except ValueError as exc:
                raise FormatError(f"line {lineno}: {exc}") from None
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
            found[".e"] = lineno
            break
        elif key in readers:
            found[key] = readers[key](parts, lineno)
        else:
            raise FormatError(f"line {lineno}: unsupported directive {key!r}")
    if n is None or m is None:
        raise FormatError("missing .i/.o declarations")
    return n, m, rows, found


def read_outcome(reader, text, per_line=False):
    """("ok", result, warnings) of reader(text), or (exception type, message,
    warnings); with per_line the readers scan with scan_rows_per_line and
    pool .pla rows with pooled_naive."""
    with contextlib.ExitStack() as stack:
        caught = stack.enter_context(warnings.catch_warnings(record=True))
        warnings.simplefilter("always")
        if per_line:
            for module in (fit_module, fsm_module):
                stack.enter_context(_patched(module, "_scan_rows", scan_rows_per_line))
            stack.enter_context(_patched(MultiOutputCover, "pooled", classmethod(
                lambda cls, order, names, rows: pooled_naive(order, names, rows))))
        try:
            result = ("ok", reader(text))
        except Exception as exc:  # noqa: BLE001 - the outcome is compared, whatever it is
            result = (type(exc), str(exc))
    return (*result, [str(w.message) for w in caught])


@contextlib.contextmanager
def _patched(owner, name, value):
    saved = owner.__dict__[name]
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, saved)


def write_berkeley_pla_per_term(mcover):
    """write_berkeley_pla with each term's output bits tested one by one."""
    lines = [
        f".i {len(mcover.order)}",
        f".o {len(mcover.outputs)}",
        f".p {len(mcover.term_pool)}",
        ".ilb " + " ".join(mcover.order),
        ".ob " + " ".join(mcover.names),
    ]
    for t, cube in enumerate(mcover.term_pool):
        lines.append(cube + " " + "".join("1" if t in sel else "0" for _, sel in mcover.outputs))
    lines.append(".e")
    return "\n".join(lines) + "\n"


def render_crosspoint_diagram_naive(state, input_names=None, output_names=None):
    """The crosspoint map padded one crosspoint at a time: every cell is its
    mark left-justified to its column's width, and every line is stripped."""
    prof = state.profile
    if input_names is None:
        input_names = [f"x{j}" for j in range(prof.n_inputs)]
    if output_names is None:
        output_names = [f"f{o}" for o in range(prof.n_outputs)]
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
            ("X" if bit else ".").ljust(w) for bit, w in zip(state.and_plane[t], and_ws)
        )
        line += "| " + "".join(
            ("X" if row[t] else ".").ljust(w) for row, w in zip(state.or_plane, or_ws)
        )
        lines.append(line.rstrip())
    if prof.has_output_xor:
        line = "POL".ljust(left_w) + " " * sum(and_ws)
        line += "| " + "".join(bit.ljust(w) for bit, w in zip(map(str, state.polarity), or_ws))
        lines.append(line.rstrip())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The two grammars plakit.expr read equation bodies with before one loop
# read both: a recursive-descent parser to Expr trees, and a flat loop to
# the literal lists of a sum of products. Both read the tokens _tokenize
# makes of a whole body before either grammar starts, so a lexical error
# anywhere in the body outranks any error of the grammar.


_AND_CHARS = {"*", ".", "·"}  # '·' appears in printed POS equations
_NAME = "name"
_CONST = "const"
_PLUS = "+"
_STAR = "*"
_BANG = "!"
_PRIME = "'"
_LPAREN = "("
_RPAREN = ")"
_END = "end"


_PUNCT = {"+": _PLUS, "!": _BANG, "'": _PRIME, "(": _LPAREN, ")": _RPAREN,
          **dict.fromkeys(_AND_CHARS, _STAR)}


def _byte_offset(text, index):
    """The UTF-8 byte offset of character `index`, as a ParseError reports it."""
    return len(text[:index].encode("utf-8"))


def _tokenize(text, multi_letter):
    """(kind, text, index) triples; an index is a character position in `text`."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isalpha():
            j = i + 1
            if multi_letter:
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
            elif j < n and text[j].isdigit():
                # each letter is its own variable; a digit glued to it is an error
                raise ParseError(
                    f"digit adjacent to variable {ch!r}; constants must stand alone",
                    _byte_offset(text, i),
                )
            tokens.append((_NAME, text[i:j], i))
            i = j
        elif ch in "01":
            if not multi_letter and i + 1 < n and text[i + 1].isalpha():
                raise ParseError(
                    f"letter adjacent to constant {ch!r}; constants must stand alone",
                    _byte_offset(text, i),
                )
            tokens.append((_CONST, ch, i))
            i += 1
        elif ch in _PUNCT:
            tokens.append((_PUNCT[ch], ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", _byte_offset(text, i))
    tokens.append((_END, "", n))
    return tokens


class _NaiveParser:
    _FACTOR_START = (_NAME, _CONST, _LPAREN, _BANG)

    def __init__(self, text, multi_letter):
        self.text = text
        self.tokens = _tokenize(text, multi_letter)
        self.pos = 0
        self.multi_letter = multi_letter
        self.leaves = {}  # one Var per name

    def error(self, message, index):
        return ParseError(message, _byte_offset(self.text, index))

    def parse_or(self):
        terms = [self.parse_and()]
        while self.tokens[self.pos][0] == _PLUS:
            self.pos += 1
            terms.append(self.parse_and())
        return terms[0] if len(terms) == 1 else Or(*terms)

    def parse_and(self):
        factors = [self.parse_factor()]
        while True:
            kind, _, index = self.tokens[self.pos]
            if kind == _STAR:
                self.pos += 1
            elif kind not in self._FACTOR_START:
                break
            elif self.multi_letter:
                raise self.error(
                    "missing AND operator (multi-letter mode requires '*')", index
                )
            factors.append(self.parse_factor())
        return factors[0] if len(factors) == 1 else And(*factors)

    def parse_factor(self):
        if self.tokens[self.pos][0] == _BANG:
            self.pos += 1
            return _negate_naive(self.parse_factor())
        expr = self.parse_primary()
        while self.tokens[self.pos][0] == _PRIME:
            self.pos += 1
            expr = _negate_naive(expr)
        return expr

    def parse_primary(self):
        kind, text, index = self.tokens[self.pos]
        self.pos += 1
        if kind == _NAME:
            return self.leaves.setdefault(text, Var(text))
        if kind == _CONST:
            return Const(int(text))
        if kind == _LPAREN:
            expr = self.parse_or()
            kind, _, index = self.tokens[self.pos]
            if kind != _RPAREN:
                raise self.error("unbalanced parentheses: expected ')'", index)
            self.pos += 1
            return expr
        if kind == _RPAREN:
            raise self.error("unbalanced parentheses: unexpected ')'", index)
        if kind == _END:
            raise self.error("empty operand: unexpected end of expression", index)
        raise self.error(f"empty operand: unexpected {text!r}", index)


def _negate_naive(expr):
    return expr.child if isinstance(expr, Not) else Not(expr)


def parse_expression_naive(text, multi_letter=False):
    """plakit.expr.parse_expression by recursive descent, one call per '!'."""
    if not text.strip():
        raise ParseError("empty expression", 0)
    parser = _NaiveParser(text, multi_letter)
    expr = parser.parse_or()
    kind, tok, index = parser.tokens[parser.pos]
    if kind != _END:
        raise parser.error(f"unexpected trailing token {tok!r}", index)
    return expr


def parse_equations_naive(text, multi_letter=False):
    """plakit.expr.parse_equations with parse_expression_naive for each body."""
    equations = []
    for lineno, name, body in _equation_lines(text):
        try:
            expr = parse_expression_naive(body, multi_letter=multi_letter)
        except ParseError as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
        equations.append((name, expr))
    return equations


def read_sop_naive(text, multi_letter=False):
    """plakit.expr.read_sop by its own flat loop over each body's tokens."""
    equations = []
    try:
        for _, name, body in _equation_lines(text):
            products = _sop_products_naive(_tokenize(body, multi_letter), multi_letter)
            if products is None:
                return None
            equations.append((name, products))
    except FormatError:  # ParseError included
        return None
    if not equations:
        return None
    return equations, tuple(dict.fromkeys(
        v for _, products in equations for product in products for v, _ in product))


def _sop_products_naive(tokens, multi_letter):
    """Products joined by '+', each factors joined by '*' (or set side by
    side in single-letter mode), each factor '!'* NAME "'"*; None for any
    other token list. A literal's value is 1 for an even number of marks."""
    products, product = [], []
    i, kind = 0, tokens[0][0]
    while True:
        value = 1
        while kind == _BANG:
            value ^= 1
            i += 1
            kind = tokens[i][0]
        if kind != _NAME:
            return None
        name = tokens[i][1]
        i += 1
        kind = tokens[i][0]
        while kind == _PRIME:
            value ^= 1
            i += 1
            kind = tokens[i][0]
        product.append((name, value))
        if kind == _STAR or kind == _PLUS:
            if kind == _PLUS:
                products.append(product)
                product = []
            i += 1
            kind = tokens[i][0]
        elif kind == _END:
            products.append(product)
            return products
        elif multi_letter or kind != _NAME and kind != _BANG:
            return None
