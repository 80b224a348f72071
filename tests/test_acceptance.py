"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line when its criterion holds; a failed
assertion leaves the line unprinted and fails the test. Frozen expected
values come from independent brute-force oracles (tests/oracles.py) or
hand-checked datasheet-style tables, never from the code under test.
"""

import time

import pytest

from plakit import (
    And,
    CapacityError,
    MultiOutputCover,
    PlaProfile,
    blank_device,
    canonical_pos,
    compile_equations,
    emit_fusemap,
    enumerate_faults,
    eval_pla,
    find_test_vector,
    fit,
    inject_fault,
    minimize,
    MinimizeSpec,
    minimum_cover,
    output_masks,
    parse_equations,
    parse_expression,
    parse_fusemap,
    parse_kiss2,
    prime_implicants,
    read_berkeley_pla,
    set_polarity,
    share_terms,
    simulate_controller,
    simulate_fsm,
    synthesize_controller,
    table_from_expr,
    table_from_rows,
    TruthTable,
    canonical_sop,
    cover_eval,
    default_encoding,
    evaluate,
    fsm_to_covers,
    write_berkeley_pla,
)
from oracles import (
    brute_min_cover_size,
    cube_rows_naive,
    random_fsm,
    random_input_sequence,
    random_profile,
    random_state,
    seeded,
    state_from_planes,
)

MAJORITY_EQN = "A'BC + AB'C + ABC' + ABC"
MAJORITY_COLUMN = (0, 0, 0, 1, 0, 1, 1, 1)
F_EQN = "ABC + A'BC + AB'C'"
G4_EQN = "A'B + AB'CD + BC' + ABD + B'C'D'"
TOGGLE_KISS = ".i 1\n.o 1\n.r S0\n1 S0 S1 1\n1 S1 S0 0\n.e\n"


def _ok(num, text):
    print(f"PASS criterion {num}: {text}")


def _all_vectors(n):
    return [format(r, f"0{n}b") for r in range(1 << n)]


def test_criterion_1_majority_compiles_and_simulates():
    """The four-minterm majority equation programs a device that reproduces
    the full truth table within one second."""
    start = time.perf_counter()
    eqs = parse_equations(f"M = {MAJORITY_EQN}")
    state, report = compile_equations(eqs, PlaProfile(3, 4, 1))
    got = tuple(int(eval_pla(state, bits)) for bits in _all_vectors(3))
    elapsed = time.perf_counter() - start
    assert got == MAJORITY_COLUMN
    assert elapsed < 1.0, f"took {elapsed:.3f}s, limit 1s"
    _ok(1, f"majority device matches all 8 rows in {elapsed * 1000:.0f} ms")


def test_criterion_2_f_and_g_compile_verify_and_capacity():
    """F(A,B,C) and G(A,B,C,D) verify exhaustively against their equations;
    G needs exactly 5 product terms and a 4-term device refuses it."""
    f_state, f_report = compile_equations(
        parse_equations(f"F = {F_EQN}"), PlaProfile(3, 4, 1)
    )
    f_table = table_from_expr(parse_expression(F_EQN), ("A", "B", "C"))
    f_vectors = _all_vectors(3)
    f_mismatches = [
        v for v in f_vectors if int(eval_pla(f_state, v)) != f_table.value(int(v, 2))
    ]
    assert len(f_vectors) == 8 and f_mismatches == []

    g_state, g_report = compile_equations(
        parse_equations(f"G = {G4_EQN}"), PlaProfile(4, 8, 1)
    )
    assert g_report.terms_used == 5  # one AND row per written product term
    g_table = table_from_expr(parse_expression(G4_EQN), ("A", "B", "C", "D"))
    g_vectors = _all_vectors(4)
    g_mismatches = [
        v for v in g_vectors if int(eval_pla(g_state, v)) != g_table.value(int(v, 2))
    ]
    assert len(g_vectors) == 16 and g_mismatches == []

    with pytest.raises(CapacityError) as exc:
        compile_equations(parse_equations(f"G = {G4_EQN}"), PlaProfile(4, 4, 1))
    assert exc.value.needed == 5 and exc.value.axis == "terms"
    _ok(2, "F and G verify on 8 + 16 vectors; 5-term G rejected by a 4-term device")


def test_criterion_3_canonical_pos_and_polarity():
    """The three-zero table factors into the expected three-sum product, and
    a polarity bit complements the device output on every vector."""
    table = table_from_rows(("A", "B", "C"), [0, 1, 1, 0, 0, 1, 1, 1])
    pos = canonical_pos(table)
    assert isinstance(pos, And) and len(pos.children) == 3
    reference = parse_expression("(A + B + C)·(A' + B + C)·(A + B' + C')")
    for row in range(8):
        env = {
            "A": (row >> 2) & 1,
            "B": (row >> 1) & 1,
            "C": row & 1,
        }
        assert evaluate(pos, env) == evaluate(reference, env) == table.value(row)

    state, _ = compile_equations(
        parse_equations(f"M = {MAJORITY_EQN}"),
        PlaProfile(3, 4, 1, has_output_xor=True),
    )
    flipped = set_polarity(state, 0, 1)
    for bits in _all_vectors(3):
        assert eval_pla(flipped, bits) == str(1 - int(eval_pla(state, bits)))
    _ok(3, "three-factor product matches on all 8 assignments; polarity complements")


def test_criterion_4_minimization_oracle_suite():
    """500 random functions (n <= 6, don't-care sets up to 25% of rows):
    minimized covers are equivalent off the dc-set, every cube is prime,
    and for n <= 4 the cover size equals the brute-force optimum."""
    start = time.perf_counter()
    rng = seeded(20260826)
    exact_checked = 0
    for i in range(500):
        n = (i % 6) + 1
        size = 1 << n
        order = tuple(f"v{j}" for j in range(n))
        table = TruthTable(order, rng.getrandbits(size))
        on = set(table.on_set())
        dc_budget = rng.randint(0, size // 4)  # at most 25% of the rows
        candidates = [r for r in range(size) if r not in on]
        rng.shuffle(candidates)
        dc = set(candidates[:dc_budget])
        cover = minimize(table, dc=dc)

        care = on | dc
        covered = set()
        for cube in cover.cubes:
            rows = set(cube_rows_naive(cube))
            assert rows <= care, f"cube {cube} leaves the care set"
            covered |= rows
            for j, ch in enumerate(cube):  # literal-removal primality check
                if ch == "-":
                    continue
                widened = cube[:j] + "-" + cube[j + 1 :]
                assert not set(cube_rows_naive(widened)) <= care, (
                    f"cube {cube} is not prime: literal {j} is removable"
                )
        for row in range(size):
            if row in dc:
                continue
            want = 1 if row in on else 0
            assert cover_eval(cover, format(row, f"0{n}b")) == want

        if n <= 4:
            spec = MinimizeSpec(order, frozenset(on - dc), frozenset(dc))
            primes = prime_implicants(spec)
            assert len(cover.cubes) == brute_min_cover_size(primes, on - dc, n)
            exact_checked += 1

    maj = minimize(
        table_from_expr(parse_expression(MAJORITY_EQN), ("A", "B", "C"))
    )
    assert len(maj.cubes) == 3 and all(c.count("-") == 1 for c in maj.cubes)

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s, limit 60s"
    _ok(
        4,
        f"500 random minimizations ({exact_checked} against the brute-force "
        f"optimum) in {elapsed:.1f}s",
    )


def test_criterion_5_device_semantics():
    """Blank fuse devices output zero everywhere; empty and contradictory
    AND rows evaluate to 1 and 0; equal connectivity means equal behaviour
    across switch technologies."""
    blank = blank_device(PlaProfile(3, 4, 2))
    for bits in _all_vectors(3):
        assert eval_pla(blank, bits) == "00"

    prof = PlaProfile(2, 1, 1)
    empty_row = state_from_planes(prof, ((0, 0, 0, 0),), ((1,),), (0,))
    contradictory = state_from_planes(prof, ((1, 1, 0, 0),), ((1,),), (0,))
    assert eval_pla(empty_row, "00") == "1"
    assert eval_pla(empty_row, "11") == "1"
    assert eval_pla(contradictory, "00") == "0"
    assert eval_pla(contradictory, "11") == "0"

    rng = seeded(505)
    for _ in range(20):
        profile = random_profile(rng)
        fuse_state = random_state(rng, profile)
        anti_prof = PlaProfile(
            profile.n_inputs,
            profile.n_terms,
            profile.n_outputs,
            switch_tech="antifuse",
            has_output_xor=profile.has_output_xor,
        )
        anti_state = state_from_planes(
            anti_prof, fuse_state.and_plane, fuse_state.or_plane, fuse_state.polarity
        )
        for bits in _all_vectors(profile.n_inputs):
            assert eval_pla(fuse_state, bits) == eval_pla(anti_state, bits)
    _ok(5, "blank/empty-row/contradictory-row semantics and tech equivalence hold")


def test_criterion_6_format_round_trips():
    """Fuse maps re-emit byte-identically and Berkeley covers re-read with
    the same meaning, 200 random cases each; the majority .pla golden has
    the documented header and ON-set lines."""
    rng = seeded(606)
    for i in range(200):
        profile = random_profile(rng)
        state = random_state(rng, profile)
        if i % 2:
            names = (
                tuple(f"n{j}" for j in range(profile.n_inputs)),
                tuple(f"q{o}" for o in range(profile.n_outputs)),
            )
        else:
            names = (None, None)
        text = emit_fusemap(state, *names)
        fm = parse_fusemap(text)
        assert emit_fusemap(fm.state, fm.input_names, fm.output_names) == text
        assert fm.state == state

    for _ in range(200):
        n = rng.randint(1, 5)
        order = tuple(f"x{j}" for j in range(n))
        covers = []
        for k in range(rng.randint(1, 4)):
            bits = rng.getrandbits(1 << n)
            covers.append((f"f{k}", minimize(TruthTable(order, bits))))
        mcover = share_terms(covers)
        back = read_berkeley_pla(write_berkeley_pla(mcover))
        assert back.names == mcover.names
        for name, _ in covers:
            assert (
                back.cover_for(name).to_table() == mcover.cover_for(name).to_table()
            )

    maj_table = table_from_expr(parse_expression(MAJORITY_EQN), ("A", "B", "C"))
    pla = write_berkeley_pla(share_terms([("M", canonical_sop(maj_table))]))
    lines = pla.splitlines()
    assert lines[0] == ".i 3" and lines[1] == ".o 1" and lines[2] == ".p 4"
    assert [l for l in lines if not l.startswith(".")] == [
        "011 1",
        "101 1",
        "110 1",
        "111 1",
    ]
    _ok(6, "200 fuse-map and 200 .pla round trips plus the majority golden")


def test_criterion_7_fault_suite_on_majority():
    """Every stuck-crosspoint fault of the majority device is classified;
    detectable ones come with a verified test vector, undetectable ones are
    confirmed by exhaustive comparison, within five seconds."""
    start = time.perf_counter()
    state, _ = compile_equations(
        parse_equations(f"M = {MAJORITY_EQN}"), PlaProfile(3, 4, 1)
    )
    faults = enumerate_faults(state.profile)
    good_masks = output_masks(state)
    detected = undetected = 0
    for fault in faults:
        vector = find_test_vector(state, fault)
        faulty = inject_fault(state, fault)
        if vector is None:
            assert output_masks(faulty) == good_masks, (
                f"{fault} reported undetectable but behaviour differs"
            )
            undetected += 1
        else:
            assert eval_pla(state, vector) != eval_pla(faulty, vector), (
                f"{fault}: vector {vector} does not expose the fault"
            )
            detected += 1
    elapsed = time.perf_counter() - start
    assert detected + undetected == len(faults) > 0
    assert detected > 0 and undetected > 0
    assert elapsed < 5.0, f"took {elapsed:.2f}s, limit 5s"
    _ok(
        7,
        f"{len(faults)} faults classified ({detected} detectable) "
        f"in {elapsed * 1000:.0f} ms",
    )


def test_criterion_8_controller_soundness():
    """100 random machines, 10 random length-16 runs each: the programmed
    device traces match the symbolic interpreter, minimization preserves
    traces, and the toggle machine produces its textbook output."""
    rng = seeded(808)
    for _ in range(100):
        fsm = random_fsm(rng)  # <= 6 states, <= 2 inputs, <= 2 outputs
        enc = default_encoding(fsm)
        mcover, _ = fsm_to_covers(fsm, enc)
        plain_profile = PlaProfile(
            enc.bits + fsm.n_inputs,
            max(1, len(mcover.term_pool)),
            enc.bits + fsm.n_outputs,
        )
        # per-output minimization can lose sharing, but a minimum cover
        # never exceeds its on-set, so the summed on-sets bound the pool
        bound = max(
            1,
            sum(
                len(mcover.cover_for(name).to_table().on_set())
                for name in mcover.names
            ),
        )
        mini_profile = PlaProfile(
            enc.bits + fsm.n_inputs, bound, enc.bits + fsm.n_outputs
        )
        plain, _ = synthesize_controller(fsm, plain_profile)
        mini, _ = synthesize_controller(fsm, mini_profile, minimize=True)
        for _ in range(10):
            seq = random_input_sequence(rng, fsm.n_inputs, 16)
            symbolic = [
                (enc.code_str(name), outs) for name, outs in simulate_fsm(fsm, seq)
            ]
            assert simulate_controller(plain, seq) == symbolic
            assert simulate_controller(mini, seq) == symbolic

    toggle = parse_kiss2(TOGGLE_KISS)
    image, _ = synthesize_controller(toggle, PlaProfile(2, 4, 2))
    trace = simulate_controller(image, ["1", "1", "1"])
    assert [outs for _, outs in trace] == ["1", "0", "1"]
    _ok(8, "100 machines x 10 runs trace-equivalent; toggle gives 1,0,1")


def test_criterion_9_coolrunner_scale():
    """A random 16-output design with 56 distinct terms over 10 inputs fits
    a 56x16 device and verifies exhaustively; a 57th distinct term trips
    the terms axis."""
    rng = seeded(909)
    n = 10
    order = tuple(f"x{j}" for j in range(n))
    cubes = []
    seen = set()
    while len(cubes) < 57:
        cube = "".join(rng.choice("01-") for _ in range(n))
        if cube not in seen:
            seen.add(cube)
            cubes.append(cube)

    def outputs_over(pool_size):
        outs = []
        for o in range(16):
            sel = {t for t in range(pool_size) if t % 16 == o}
            sel.update(rng.sample(range(pool_size), 3))
            outs.append((f"f{o}", tuple(sorted(sel))))
        return tuple(outs)

    mcover = MultiOutputCover(order, tuple(cubes[:56]), outputs_over(56))
    profile = PlaProfile(n, 56, 16)
    state, report = fit(mcover, profile)
    assert report.terms_used == 56 and report.outputs_used == 16
    masks = output_masks(state)
    for o, name in enumerate(mcover.names):
        assert masks[o] == mcover.cover_for(name).to_table().bits, (
            f"output {name} differs from its cover"
        )

    too_big = MultiOutputCover(order, tuple(cubes), outputs_over(57))
    with pytest.raises(CapacityError) as exc:
        fit(too_big, profile)
    assert (exc.value.axis, exc.value.needed, exc.value.available) == (
        "terms",
        57,
        56,
    )
    _ok(9, "56-term/16-output design fits and verifies; 57 terms rejected")
