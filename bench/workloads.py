"""Seeded inputs for the benchmark's three workloads.

Each generator is a pure function of the seed: the same seed gives the same
designs, byte for byte. The mix of design shapes is a fixed schedule that
every seed shares; the seed only draws the contents. That keeps the
population, and so the medians and tails, comparable from seed to seed.

A design carries the text files the program reads, the parameters the
worker passes along (device profile, variable order), and the reference
facts the checker holds the results to. The reference stays in the parent
process; the worker never sees it. Nothing here imports plakit.
"""

import random
from dataclasses import dataclass, field

from checker import cube_mask, full_mask, var_masks

LETTERS = "ABCDEFGHIJKLMNOP"


@dataclass
class Design:
    name: str
    kind: str
    files: dict
    params: dict
    ref: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# eqn_minimize: the minimizer-heavy library flow


def _cycle(bounds, i):
    """The i-th size of a class: sizes cycle through the range, so every seed gets the same mix."""
    lo, hi = bounds
    return lo + i % (hi - lo + 1)


def _random_cube(rng, n, lits):
    cube = ["-"] * n
    for var in rng.sample(range(n), lits):
        cube[var] = rng.choice("01")
    return "".join(cube)


def _cube_text(cube):
    text = "".join(LETTERS[j] + ("'" if c == "0" else "") for j, c in enumerate(cube) if c != "-")
    return text or "1"


def _tables(equations, n):
    """Truth table of each SOP equation, given as lists of cubes."""
    vmasks, full = var_masks(n), full_mask(n)
    tables = []
    for cubes in equations:
        mask = 0
        for cube in cubes:
            mask |= cube_mask(cube, vmasks, full)
        tables.append(mask)
    return tables


def sop_design(rng, name, n, m, terms, lits):
    """Multi-output SOP equations with wide cubes, compiled with minimize=True."""
    equations = [
        [_random_cube(rng, n, rng.randint(*lits)) for _ in range(rng.randint(*terms))]
        for _ in range(m)
    ]
    names = [f"F{o}" for o in range(m)]
    text = "".join(
        f"{nm} = {' + '.join(_cube_text(c) for c in cubes)}\n"
        for nm, cubes in zip(names, equations)
    )
    # An exact cover never needs more terms than the equations' cubes, but
    # plakit's greedy cover can (20 against 18 cubes on one n=9 set), so the
    # device has room for twice as many. Cover size is measured by
    # product_terms; this benchmark times the minimizer, not the fit.
    bound = 2 * sum(len(cubes) for cubes in equations)
    return Design(
        name, "sop",
        files={"eqs.txt": text},
        params={"order": list(LETTERS[:n]), "profile": [n, bound, m]},
        ref={"n": n, "names": names, "tables": _tables(equations, n)},
    )


def _pla_text(n, names, rows):
    lines = [f".i {n}", f".o {len(names)}", ".ilb " + " ".join(LETTERS[:n]),
             ".ob " + " ".join(names), f".p {len(rows)}"]
    lines += [f"{format(r, f'0{n}b')} {bits}" for r, bits in rows]
    return "\n".join(lines + [".e"]) + "\n"


def isf_design(rng, name, n, m, on_p=0.3, dc_p=0.1):
    """Random incompletely specified functions: minimize, share, .pla round trip, fit."""
    on = [0] * m
    dc = [0] * m
    for r in range(1 << n):
        for o in range(m):
            x = rng.random()
            if x < on_p:
                on[o] |= 1 << r
            elif x < on_p + dc_p:
                dc[o] |= 1 << r
    names = [f"F{o}" for o in range(m)]

    def rows_of(masks):
        rows = []
        for r in range(1 << n):
            bits = "".join(str((mask >> r) & 1) for mask in masks)
            if "1" in bits:
                rows.append((r, bits))
        return rows

    bound = sum(bin(mask).count("1") for mask in on)  # a minterm per on-row always fits
    return Design(
        name, "isf",
        files={"on.pla": _pla_text(n, names, rows_of(on)),
               "dc.pla": _pla_text(n, names, rows_of(dc))},
        params={"profile": [n, bound, m]},
        ref={"n": n, "names": names, "tables": on, "dc": dc},
    )


# Shape schedule: (kind, count, n, outputs, per-output terms, literals per term).
# Each class has fixed shape parameters, so its designs cost about the same.
# Costs rise down the table; the median (designs 30 and 31 of 60) falls in the
# middle of the 22 n=9 random functions and the tail (the 50th) in the middle
# of the 11 n=9 SOP sets, never on the edge between classes.
EQN_SCHEDULE = (
    ("isf", 10, 8, (2, 2)),
    ("sop", 9, 8, (3, 3), (5, 5), (4, 4)),
    ("isf", 22, 9, (2, 2)),
    ("sop", 3, 10, (2, 2), (5, 5), (5, 5)),
    ("sop", 11, 9, (3, 3), (6, 6), (4, 4)),
    ("isf", 2, 10, (2, 2)),
    ("sop", 2, 11, (2, 2), (5, 5), (5, 5)),
    ("isf", 1, 11, (1, 1)),
)


def eqn_minimize(seed):
    rng = random.Random(f"eqn_minimize:{seed}")
    designs = []
    for kind, count, n, outs, *shape in EQN_SCHEDULE:
        for i in range(count):
            m = _cycle(outs, i)
            name = f"{kind}-n{n}m{m}-{i:02d}"
            if kind == "sop":
                designs.append(sop_design(rng, name, n, m, *shape))
            else:
                designs.append(isf_design(rng, name, n, m))
    rng.shuffle(designs)
    warmup = sop_design(rng, "warmup", 6, 2, (3, 4), (2, 3))
    return warmup, designs


# ---------------------------------------------------------------------------
# image_cli: device- and CLI-heavy flow


def image_design(rng, name, n, p, m, lits, negative):
    """A device-filling SOP image, compiled term for term and swept by the CLI."""
    pool = []
    while len(pool) < p:
        cube = _random_cube(rng, n, rng.randint(*lits))
        if cube not in pool:
            pool.append(cube)
    users = [[] for _ in range(m)]
    for t in range(p):
        for o in rng.sample(range(m), rng.randint(1, min(3, m))):
            users[o].append(t)
    for o in range(m):
        if not users[o]:
            users[o].append(rng.randrange(p))
            users[o].sort()
    equations = [[pool[t] for t in users[o]] for o in range(m)]
    names = [f"F{o}" for o in range(m)]

    def text_of(eqs):
        return "".join(
            f"{nm} = {' + '.join(_cube_text(c) for c in cubes)}\n"
            for nm, cubes in zip(names, eqs)
        )

    files = {"eqs.txt": text_of(equations)}
    ref = {"n": n, "names": names, "tables": _tables(equations, n)}
    if negative:
        # flip one literal of one product until the function really changes
        while True:
            o = rng.randrange(m)
            k = rng.randrange(len(equations[o]))
            cube = equations[o][k]
            j = rng.choice([j for j, c in enumerate(cube) if c != "-"])
            flipped = cube[:j] + ("0" if cube[j] == "1" else "1") + cube[j + 1 :]
            altered = [list(e) for e in equations]
            altered[o][k] = flipped
            neg_tables = _tables(altered, n)
            if neg_tables[o] != ref["tables"][o]:
                break
        files["neg.txt"] = text_of(altered)
        ref["neg_output"] = o
        ref["neg_tables"] = neg_tables
    return Design(
        name, "image",
        files=files,
        params={"profile": f"n{n}p{p}m{m}", "order": ",".join(LETTERS[:n]),
                "negative": negative},
        ref=ref,
    )


# Bimodal mix kept well away from 50/50: mostly narrow/deep images up to a
# 10x56x16 CPLD block, a minority of wide/shallow ones that make `sim` and
# the fault sweep work on 2^14..2^16-row masks. The median (designs 26 and
# 27 of 52) falls in the middle of the 24 full-size n=8 images, and the tail
# (the 42nd) in the middle of the 10 n=9 ones.
# (count, inputs, terms, outputs, literals per term)
IMAGE_SCHEDULE = (
    (12, (8, 8), (12, 16), (4, 6), (2, 5)),
    (24, (8, 8), (24, 28), (8, 9), (2, 5)),
    (10, (9, 9), (30, 36), (10, 12), (2, 5)),
    (2, (10, 10), (56, 56), (16, 16), (2, 6)),
    (2, (14, 15), (9, 11), (2, 4), (3, 7)),
    (2, (16, 16), (10, 10), (3, 3), (3, 7)),
)


def image_cli(seed):
    rng = random.Random(f"image_cli:{seed}")
    designs = []
    for count, ns, ps, ms, lits in IMAGE_SCHEDULE:
        for i in range(count):
            n, p, m = _cycle(ns, i), _cycle(ps, i), _cycle(ms, i // 2)
            name = f"img-n{n}p{p}m{m}-{len(designs):02d}"
            designs.append(image_design(rng, name, n, p, m, lits, rng.random() < 0.125))
    rng.shuffle(designs)
    warmup = image_design(rng, "warmup", 4, 4, 2, (1, 3), True)
    return warmup, designs


# ---------------------------------------------------------------------------
# fsm_controller: many small don't-care-heavy problems, scalar device evaluation


def _kiss_text(n_in, n_out, reset, rows):
    states = []
    for _, cur, nxt, _ in rows:
        for s in (cur, nxt):
            if s not in states:
                states.append(s)
    lines = [f".i {n_in}", f".o {n_out}", f".s {len(states)}", f".p {len(rows)}",
             f".r {reset}"]
    lines += [" ".join(row) for row in rows]
    return "\n".join(lines + [".e"]) + "\n", states


def counter_rows(k):
    """Mod-k counter: inputs (enable, clear); 00 is left unmatched and holds."""
    rows = []
    for i in range(k):
        zero = "1" if i == 0 else "0"
        carry = "1" if i == k - 1 else "0"
        rows.append(("10", f"C{i}", f"C{(i + 1) % k}", carry + zero))
        rows.append(("-1", f"C{i}", "C0", "0" + zero))
    return 2, 2, "C0", rows, (0.9, 0.04)


def detector_rows(rng, w):
    """Shift-register detector for a w-bit pattern: inputs (valid, data)."""
    pattern = format(rng.randrange(1 << w), f"0{w}b")
    rows = []
    for s in range(1 << (w - 1)):
        hist = format(s, f"0{w - 1}b")
        for d in "01":
            nxt = (hist + d)[1:]
            hit = "1" if hist + d == pattern else "0"
            rows.append(("1" + d, f"H{hist}", f"H{nxt}", hit))
    return 2, 1, "H" + "0" * (w - 1), rows, (0.9, 0.5)


def random_rows(rng, s, k, q):
    """Random deterministic machine; about a fifth of (state, input) pairs unmatched."""
    states = [f"Q{i}" for i in range(s)]
    rows = []
    for cur in states:
        mine = []
        for value in range(0, 1 << k, 2):
            pair = format(value, f"0{k}b")[:-1]
            if rng.random() < 0.25:
                mine.append(pair + "-")
                continue
            for last in "01":
                if rng.random() < 0.8:
                    mine.append(pair + last)
        if not mine:
            mine.append(format(rng.randrange(1 << k), f"0{k}b"))
        for cube in mine:
            outs = "".join(rng.choice("01") for _ in range(q))
            rows.append((cube, cur, rng.choice(states), outs))
    return k, q, states[0], rows, (0.5,) * k


# Registered parts the controller is fitted onto: (inputs, terms, outputs),
# a 32-term part, the 64-term size of a PAL16R8-class part, up to a 256-term array.
TINY, SMALL, MID, LARGE = (10, 32, 6), (12, 64, 8), (16, 128, 12), (20, 256, 16)


def _term_bound(states, rows):
    """Cubes feeding each next-state bit and output, summed: a minimized fit needs no more."""
    bits = max(1, (len(states) - 1).bit_length())
    code = {s: i for i, s in enumerate(states)}
    total = 0
    for cube, cur, nxt, outs in rows:
        total += format(code[nxt], f"0{bits}b").count("1") + outs.count("1")
    k = len(rows[0][0])
    for s in states:
        mine = [c for c, cur, _, _ in rows if cur == s]
        held = sum(
            1 for v in range(1 << k)
            if not any(all(c == "-" or c == b for c, b in zip(cube, format(v, f"0{k}b")))
                       for cube in mine)
        )
        total += held * format(code[s], f"0{bits}b").count("1")
    return bits, total


def fits(part, n_in, n_out, reset, rows):
    # parse_kiss2 orders states by first appearance; the reset state gets code 0
    _, states = _kiss_text(n_in, n_out, reset, rows)
    bits, bound = _term_bound([reset] + [s for s in states if s != reset], rows)
    return part[0] >= bits + n_in and part[2] >= bits + n_out and part[1] >= bound


def fsm_design(rng, name, part, n_in, n_out, reset, rows, ones, cycles):
    """A KISS2 machine on a registered part, and a stimulus drawn with P(1) per input."""
    text, states = _kiss_text(n_in, n_out, reset, rows)
    table = {s: [] for s in states}
    for cube, cur, nxt, outs in rows:
        table[cur].append((cube, nxt, outs))
    stimulus = [
        "".join("1" if rng.random() < p else "0" for p in ones) for _ in range(cycles)
    ]
    return Design(
        name, "fsm",
        files={"machine.kiss": text, "stimulus.txt": "\n".join(stimulus) + "\n"},
        params={"profile": list(part)},
        ref={"table": table, "states": states, "reset": reset,
             "inputs": n_in, "outputs": n_out, "stimulus": stimulus},
    )


def _machine(rng, family, size, i):
    if family == "ctr":
        return counter_rows(size)
    if family == "det":
        return detector_rows(rng, size)
    return random_rows(rng, size, _cycle((2, 3), i), _cycle((2, 3), i // 2))


# (family, count, size range, part). Each family is sized for its part, so
# per-design cost, which follows the part's term count, is stable by class.
# The median (designs 24 and 25 of 48) falls in the middle of the 18 64-term
# designs and the tail (the 38th) in the middle of the 14 128-term ones; the
# two 256-term designs sit above it.
FSM_SCHEDULE = (
    ("ctr", 7, (3, 4), TINY),
    ("det", 7, (3, 3), TINY),
    ("ctr", 9, (5, 8), SMALL),
    ("det", 9, (3, 4), SMALL),
    ("ctr", 6, (10, 16), MID),
    ("rnd", 8, (5, 7), MID),
    ("det", 1, (5, 5), LARGE),
    ("rnd", 1, (8, 10), LARGE),
)


def fsm_controller(seed):
    rng = random.Random(f"fsm_controller:{seed}")
    designs = []
    for family, count, size, part in FSM_SCHEDULE:
        for i in range(count):
            x = _cycle(size, i)
            spec = _machine(rng, family, x, i)
            while not fits(part, *spec[:4]):  # only random machines can miss
                spec = _machine(rng, family, x, i)
            name = f"{family}{x}-p{part[1]}-{i:02d}"
            designs.append(fsm_design(rng, name, part, *spec, cycles=1000))
    rng.shuffle(designs)
    warmup = fsm_design(rng, "warmup", SMALL, *counter_rows(3), cycles=50)
    return warmup, designs


WORKLOADS = {
    "eqn_minimize": eqn_minimize,
    "image_cli": image_cli,
    "fsm_controller": fsm_controller,
}
