"""Brute-force reference implementations the tests trust.

Everything here is deliberately naive -- enumerate, don't be clever -- so
the library's bit-parallel and tabulation code is checked against an
independent path.
"""

import random
from itertools import combinations, product

from plakit import Fsm, PlaProfile, PlaState, Transition, inject_fault, output_masks


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
    return PlaState(profile, and_plane, or_plane, polarity)


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


def random_input_sequence(rng, width, length):
    return [
        "".join(str(rng.randint(0, 1)) for _ in range(width)) for _ in range(length)
    ]


def seeded(seed):
    return random.Random(seed)
