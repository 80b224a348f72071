"""The benchmark's own reading of every artifact the program emits.

Nothing here imports plakit. Truth tables are Python ints whose bit r is
the value on input row r, rows numbered big-endian from the variable order
(the leftmost variable is the most significant bit), which is the
convention plakit documents for its fuse maps. The checker holds each
design to the reference facts its generator wrote down: truth tables,
don't-care sets and transition tables.

A check returns a list of problem strings; an empty list means the design
passed.
"""

import random


def full_mask(n):
    return (1 << (1 << n)) - 1


def var_masks(n):
    """One 2^n-bit mask per variable: bit r is that variable's value on row r."""
    rows = 1 << n
    masks = []
    for j in range(n):
        half = 1 << (n - 1 - j)
        period = 2 * half
        block = ((1 << half) - 1) << half  # zeros on the low half, ones above
        masks.append(block * (((1 << rows) - 1) // ((1 << period) - 1)))
    return masks


def cube_mask(cube, vmasks, full):
    """Rows covered by a cube over {0,1,-}."""
    mask = full
    for c, v in zip(cube, vmasks):
        if c == "1":
            mask &= v
        elif c == "0":
            mask &= full ^ v
    return mask


def bits_string(mask, n_rows):
    """Character r is bit r of the mask."""
    return format(mask, f"0{n_rows}b")[::-1]


# ---------------------------------------------------------------------------
# Fuse maps


class CheckError(Exception):
    """An artifact could not be read by the benchmark's own reader."""


def read_fusemap(text):
    """Parse PLAFUSE 1 text into a dict of header fields and plane rows."""
    lines = [line.strip() for line in text.split("\n") if line.strip()]
    try:
        if lines[0] != "PLAFUSE 1":
            raise CheckError(f"bad header {lines[0]!r}")
        _, tech, _, xor = lines[1].split()
        _, n, p, m = lines[2].split()
        n, p, m = int(n), int(p), int(m)
        fm = {"tech": tech, "xor": xor == "1", "n": n, "p": p, "m": m,
              "ilb": None, "ob": None}
        pos = 3
        if lines[pos].startswith("ILB"):
            fm["ilb"] = tuple(lines[pos].split()[1:])
            pos += 1
        if lines[pos].startswith("OB"):
            fm["ob"] = tuple(lines[pos].split()[1:])
            pos += 1
        if lines[pos] != "AND":
            raise CheckError("missing AND section")
        fm["and"] = lines[pos + 1 : pos + 1 + p]
        pos += 1 + p
        if lines[pos] != "OR":
            raise CheckError("missing OR section")
        fm["or"] = lines[pos + 1 : pos + 1 + m]
        pos += 1 + m
        fm["pol"] = "0" * m
        if lines[pos].startswith("POL"):
            fm["pol"] = lines[pos].split()[1]
            pos += 1
        if lines[pos:] != ["END"]:
            raise CheckError("missing END or content after it")
    except (IndexError, ValueError) as exc:
        raise CheckError(f"truncated or malformed fuse map: {exc}") from None
    for row in fm["and"]:
        if len(row) != 2 * n or set(row) - {"0", "1"}:
            raise CheckError(f"bad AND row {row!r}")
    for row in fm["or"]:
        if len(row) != p or set(row) - {"0", "1"}:
            raise CheckError(f"bad OR row {row!r}")
    return fm


def term_mask(and_row, vmasks, full):
    """Wired AND: every connected column must read 1; both polarities give 0."""
    mask = full
    for j, v in enumerate(vmasks):
        if and_row[2 * j] == "1":
            mask &= v
        if and_row[2 * j + 1] == "1":
            mask &= full ^ v
    return mask


def raw_outputs(or_rows, terms):
    """Wired OR of the connected terms, before the output XOR."""
    outs = []
    for row in or_rows:
        mask = 0
        for t, bit in enumerate(row):
            if bit == "1":
                mask |= terms[t]
        outs.append(mask)
    return outs


def device_outputs(fm, vmasks=None):
    """Every output of a fuse map over all rows, as masks.

    `vmasks` gives the value of each device input per row; by default the
    device's own 2^n rows. A shorter list drives the remaining inputs at 0.
    """
    if vmasks is None:
        vmasks = var_masks(fm["n"])
    full = full_mask(len(vmasks))
    padded = list(vmasks) + [0] * (fm["n"] - len(vmasks))
    terms = [term_mask(row, padded, full) for row in fm["and"]]
    return [
        raw ^ (full if pol == "1" else 0)
        for raw, pol in zip(raw_outputs(fm["or"], terms), fm["pol"])
    ]


def used_terms(fm):
    """AND rows that feed at least one output: the product terms a design uses."""
    return sum(1 for t in range(fm["p"]) if any(row[t] == "1" for row in fm["or"]))


def eval_vector(fm, bits):
    """Scalar evaluation of one input vector, plane by plane."""
    terms = []
    for row in fm["and"]:
        on = all(
            not (row[2 * j] == "1" and b == "0") and not (row[2 * j + 1] == "1" and b == "1")
            for j, b in enumerate(bits)
        )
        terms.append(on)
    out = []
    for row, pol in zip(fm["or"], fm["pol"]):
        raw = any(bit == "1" and terms[t] for t, bit in enumerate(row))
        out.append(str(int(raw) ^ int(pol)))
    return "".join(out)


def check_function(outs, want, dc=None, names=None):
    """Each device output must equal its reference table outside don't-cares."""
    problems = []
    for o, target in enumerate(want):
        care = ~dc[o] if dc else -1
        diff = (outs[o] ^ target) & care
        if diff:
            row = (diff & -diff).bit_length() - 1
            label = names[o] if names else o
            problems.append(f"output {label} wrong on row {row}")
    return problems


# ---------------------------------------------------------------------------
# Berkeley .pla (plain SOP subset)


def read_pla(text):
    """(output names, output count, [(cube, output bits)]) from .pla text."""
    n = m = ob = None
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == ".i":
            n = int(parts[1])
        elif parts[0] == ".o":
            m = int(parts[1])
        elif parts[0] == ".ob":
            ob = tuple(parts[1:])
        elif parts[0] in (".e", ".end"):
            break
        elif parts[0].startswith("."):
            continue
        else:
            if len(parts) != 2 or len(parts[0]) != n or len(parts[1]) != m:
                raise CheckError(f"bad .pla cube line {line!r}")
            rows.append((parts[0], parts[1]))
    if n is None or m is None:
        raise CheckError("missing .i/.o")
    return ob, m, rows


def pla_outputs(text, n):
    """(output labels, each output of a .pla cover as a mask over its 2^n rows)."""
    ob, m, rows = read_pla(text)
    vmasks = var_masks(n)
    full = full_mask(n)
    outs = [0] * m
    for cube, out_bits in rows:
        mask = cube_mask(cube, vmasks, full)
        for o, c in enumerate(out_bits):
            if c == "1":
                outs[o] |= mask
    return ob, outs


# ---------------------------------------------------------------------------
# CLI transcripts


def check_sim(stdout, outs, n):
    """`sim --vectors all`: one line per row in order, outputs as evaluated."""
    n_rows = 1 << n
    lines = stdout.splitlines()
    if len(lines) != n_rows:
        return [f"sim printed {len(lines)} lines, expected {n_rows}"]
    cols = [bits_string(mask, n_rows) for mask in outs]
    for r, line in enumerate(lines):
        want = format(r, f"0{n}b") + " " + "".join(col[r] for col in cols)
        if line != want:
            return [f"sim row {r}: got {line!r}, expected {want!r}"]
    return []


def check_diagram(stdout, fm):
    """`diagram`: one line per term, X where the crosspoint is connected."""
    lines = stdout.splitlines()
    if len(lines) != 1 + fm["p"]:
        return [f"diagram has {len(lines)} lines, expected {1 + fm['p']}"]
    for t, line in enumerate(lines[1:]):
        marks = "".join(tok for tok in line.split()[1:] if tok in ("X", "."))
        want = fm["and"][t] + "".join(row[t] for row in fm["or"])
        want = want.replace("1", "X").replace("0", ".")
        if marks != want:
            return [f"diagram term {t} reads {marks!r}, fuse map says {want!r}"]
    return []


def enumerate_faults(fm):
    """The single stuck-crosspoint fault list, AND plane first, in sweep order."""
    faults = []
    for row in range(fm["p"]):
        for col in range(2 * fm["n"]):
            for stuck in ("connected", "disconnected"):
                faults.append(("and", row, col, stuck))
    for row in range(fm["m"]):
        for col in range(fm["p"]):
            for stuck in ("connected", "disconnected"):
                faults.append(("or", row, col, stuck))
    return faults


def fault_diffs(fm):
    """Rows on which each single fault changes some output, one mask per fault.

    Incremental: a stuck AND crosspoint changes one term, a stuck OR
    crosspoint one output, so each fault costs one term or one OR instead
    of a whole re-evaluation.
    """
    n = fm["n"]
    vmasks = var_masks(n)
    full = full_mask(n)
    terms = [term_mask(row, vmasks, full) for row in fm["and"]]
    raws = raw_outputs(fm["or"], terms)
    # OR of each output's terms with one left out, from prefix/suffix ORs
    without = []
    for row in fm["or"]:
        p = len(row)
        prefix = [0] * (p + 1)
        for t in range(p):
            prefix[t + 1] = prefix[t] | (terms[t] if row[t] == "1" else 0)
        suffix = [0] * (p + 1)
        for t in range(p - 1, -1, -1):
            suffix[t] = suffix[t + 1] | (terms[t] if row[t] == "1" else 0)
        without.append([prefix[t] | suffix[t + 1] for t in range(p)])
    diffs = []
    for plane, r, c, stuck in enumerate_faults(fm):
        value = "1" if stuck == "connected" else "0"
        if plane == "and":
            row = fm["and"][r]
            if row[c] == value:
                diffs.append(0)
                continue
            new_term = term_mask(row[:c] + value + row[c + 1 :], vmasks, full)
            diff = 0
            for o, or_row in enumerate(fm["or"]):
                if or_row[r] == "1":
                    diff |= raws[o] ^ (without[o][r] | new_term)
            diffs.append(diff)
        else:
            if fm["or"][r][c] == value:
                diffs.append(0)
            elif value == "1":
                diffs.append(raws[r] ^ (raws[r] | terms[c]))
            else:
                diffs.append(raws[r] ^ without[r][c])
    return diffs


def inject(fm, fault):
    """A copy of the fuse map with one crosspoint forced, for direct re-evaluation."""
    plane, r, c, stuck = fault
    value = "1" if stuck == "connected" else "0"
    bad = dict(fm)
    rows = list(fm[plane])
    rows[r] = rows[r][:c] + value + rows[r][c + 1 :]
    bad[plane] = rows
    return bad


DIRECT_SAMPLES = 8  # undetectable verdicts per image re-derived from a rebuilt faulty image


def check_fault(stdout, fm, rng):
    """`fault --all`: every verdict, and a sample of undetectable ones re-derived.

    A reported vector must make the good and the faulty device differ; an
    `undetectable` verdict must leave every row unchanged. A seeded sample of
    undetectable verdicts is also checked by building the faulty image and
    evaluating it over all rows from scratch.
    """
    faults = enumerate_faults(fm)
    lines = stdout.splitlines()
    if len(lines) != len(faults) + 1:
        return [f"fault printed {len(lines)} lines, expected {len(faults) + 1}"]
    diffs = fault_diffs(fm)
    detected = 0
    undetectable = []
    for (plane, r, c, stuck), diff, line in zip(faults, diffs, lines):
        label = f"{plane}[{r},{c}] stuck-{stuck}"
        head, _, verdict = line.partition(": ")
        if head != label:
            return [f"fault line {line!r}, expected {label}"]
        if verdict == "undetectable":
            if diff:
                return [f"{label} reported undetectable but changes rows"]
            undetectable.append((plane, r, c, stuck))
            continue
        if len(verdict) != fm["n"] or set(verdict) - {"0", "1"}:
            return [f"{label}: bad vector {verdict!r}"]
        if not (diff >> int(verdict, 2)) & 1:
            return [f"{label}: vector {verdict} does not separate good and faulty"]
        detected += 1
    want = f"coverage: {detected}/{len(faults)} detected"
    if not lines[-1].startswith(want):
        return [f"coverage line {lines[-1]!r}, expected {want}"]
    good = device_outputs(fm)
    for fault in rng.sample(undetectable, min(DIRECT_SAMPLES, len(undetectable))):
        if device_outputs(inject(fm, fault)) != good:
            return [f"{fault} reported undetectable but the faulty image differs"]
    return []


# ---------------------------------------------------------------------------
# State machines


def read_encoding(text):
    """PLAENC 1 sidecar: (bits, inputs, outputs, {state name: code})."""
    lines = [line.strip() for line in text.split("\n") if line.strip()]
    if not lines or lines[0] != "PLAENC 1" or lines[-1] != "END":
        raise CheckError("bad PLAENC framing")
    try:
        bits, ins, outs = (int(lines[i].split()[1]) for i in (1, 2, 3))
        codes = {}
        for line in lines[4:-1]:
            _, name, code = line.split()
            codes[name] = int(code)
    except (IndexError, ValueError) as exc:
        raise CheckError(f"malformed PLAENC: {exc}") from None
    return bits, ins, outs, codes


def cube_matches(cube, bits):
    return all(c == "-" or c == b for c, b in zip(cube, bits))


def step(table, state, bits, n_outputs):
    """One clock of the machine: (next state, outputs); unmatched inputs hold."""
    for cube, nxt, outs in table[state]:
        if cube_matches(cube, bits):
            return nxt, outs
    return state, "0" * n_outputs


def check_controller(fuse_text, enc_text, trace_text, ref):
    """Fuse map against the transition table on every used code; trace against stepping."""
    fm = read_fusemap(fuse_text)
    bits, k, q, codes = read_encoding(enc_text)
    table, states, reset, stimulus = ref["table"], ref["states"], ref["reset"], ref["stimulus"]
    problems = []
    if (k, q) != (ref["inputs"], ref["outputs"]) or set(codes) != set(states):
        return ["encoding header or states disagree with the machine"]
    if codes[reset] != 0:
        return [f"reset state {reset} has code {codes[reset]}, expected 0"]
    if fm["n"] < bits + k or fm["m"] < bits + q:
        return ["device too small for the encoding"]
    width = bits + k
    outs = device_outputs(fm, var_masks(width))
    want = [0] * (bits + q)
    care = 0
    for state in states:
        code = codes[state]
        for value in range(1 << k):
            row = (code << k) | value
            care |= 1 << row
            nxt, out = step(table, state, format(value, f"0{k}b"), q)
            word = format(codes[nxt], f"0{bits}b") + out
            for o, c in enumerate(word):
                if c == "1":
                    want[o] |= 1 << row
    for o in range(bits + q):
        diff = (outs[o] ^ want[o]) & care
        if diff:
            row = (diff & -diff).bit_length() - 1
            problems.append(f"device output {o} wrong on row {row}")
    lines = trace_text.splitlines()
    if len(lines) != len(stimulus):
        return problems + [f"trace has {len(lines)} cycles, expected {len(stimulus)}"]
    state = reset
    for cycle, (vec, line) in enumerate(zip(stimulus, lines)):
        nxt, out = step(table, state, vec, q)
        expect = f"{codes[state]:0{bits}b} {out}"
        if line != expect:
            problems.append(f"cycle {cycle}: got {line!r}, expected {expect!r}")
            break
        state = nxt
    return problems


def sample_rng(seed, name):
    """Per-design generator for sampled checks, independent of run order."""
    return random.Random(f"{seed}:{name}")
