import time

import pytest

from plakit import (
    ControllerImage,
    FormatError,
    Fsm,
    PlaProfile,
    StateEncoding,
    Transition,
    default_encoding,
    emit_encoding,
    fsm_to_covers,
    parse_encoding,
    parse_kiss2,
    simulate_controller,
    simulate_fsm,
    set_crosspoint,
    synthesize_controller,
    write_kiss2,
)
from oracles import (
    all_cubes,
    cube_rows_naive,
    next_state_naive,
    random_cube_fsm,
    random_fsm,
    random_input_sequence,
    seeded,
    simulate_controller_naive,
)

TOGGLE_KISS = """\
.i 1
.o 1
.s 2
.p 2
.r S0
1 S0 S1 1
1 S1 S0 0
.e
"""


def toggle():
    return parse_kiss2(TOGGLE_KISS)


def profile_for(fsm, encoding=None, minimize_safe=False):
    enc = encoding or default_encoding(fsm)
    mcover, _ = fsm_to_covers(fsm, enc)
    b, k, q = enc.bits, fsm.n_inputs, fsm.n_outputs
    terms = len(mcover.term_pool)
    if minimize_safe:
        # per-output minimization can lose sharing; the summed on-sets
        # bound any minimum cover
        terms = max(
            terms,
            sum(len(mcover.cover_for(n).to_table().on_set()) for n in mcover.names),
        )
    return PlaProfile(b + k, max(1, terms), b + q)


def test_transition_line():
    t = Transition("1-", "S0", "S1", "01")
    assert t.line() == "1- S0 S1 01"


def test_fsm_validation():
    t = Transition("1", "S0", "S1", "1")
    with pytest.raises(ValueError, match="at least one input"):
        Fsm(0, 1, ("S0",), "S0", ())
    # lowering builds one 2^n_inputs-row mask per state
    with pytest.raises(ValueError, match="25 inputs exceeds the limit of 24"):
        Fsm(25, 1, ("S0",), "S0", ())
    Fsm(24, 1, ("S0",), "S0", (Transition("1" * 24, "S0", "S0", "1"),))
    with pytest.raises(ValueError, match="duplicate state"):
        Fsm(1, 1, ("S0", "S0"), "S0", ())
    with pytest.raises(ValueError, match="reset"):
        Fsm(1, 1, ("S0",), "S9", ())
    with pytest.raises(ValueError, match="undeclared state"):
        Fsm(1, 1, ("S0",), "S0", (t,))
    with pytest.raises(ValueError, match="input cube"):
        Fsm(2, 1, ("S0", "S1"), "S0", (t,))
    with pytest.raises(ValueError, match="outputs"):
        Fsm(1, 2, ("S0", "S1"), "S0", (t,))
    with pytest.raises(ValueError, match="duplicate transition"):
        Fsm(1, 1, ("S0", "S1"), "S0", (t, t))
    with pytest.raises(ValueError, match="overlapping input cubes"):
        Fsm(
            2,
            1,
            ("S0", "S1"),
            "S0",
            (Transition("1-", "S0", "S1", "1"), Transition("11", "S0", "S0", "0")),
        )


def test_overlap_check_matches_shared_rows():
    rng = seeded(89)
    pairs = [(a, b) for k in (1, 2, 3) for a in all_cubes(k) for b in all_cubes(k)]
    for _ in range(200):
        k = rng.randint(4, 10)
        pairs.append(tuple("".join(rng.choice("01--") for _ in range(k)) for _ in "ab"))
    for a, b in pairs:
        rows = (Transition(a, "S0", "S0", "0"), Transition(b, "S0", "S0", "1"))
        if set(cube_rows_naive(a)) & set(cube_rows_naive(b)):
            with pytest.raises(ValueError, match="overlapping input cubes"):
                Fsm(len(a), 1, ("S0",), "S0", rows)
        else:
            Fsm(len(a), 1, ("S0",), "S0", rows)


def test_parse_kiss2_toggle():
    fsm = toggle()
    assert (fsm.n_inputs, fsm.n_outputs) == (1, 1)
    assert fsm.states == ("S0", "S1")
    assert fsm.reset == "S0"
    assert fsm.transitions == (
        Transition("1", "S0", "S1", "1"),
        Transition("1", "S1", "S0", "0"),
    )


def test_parse_kiss2_defaults_and_order():
    text = ".i 1\n.o 1\n0 B A 1\n1 A B 0\n.e\n"
    fsm = parse_kiss2(text)
    assert fsm.states == ("B", "A")  # first appearance
    assert fsm.reset == "B"  # first transition's current state


def test_write_kiss2_round_trip():
    fsm = toggle()
    assert parse_kiss2(write_kiss2(fsm)) == fsm
    assert write_kiss2(fsm) == TOGGLE_KISS


@pytest.mark.parametrize(
    "text, message",
    [
        ("1 S0 S1 1\n", "before .i/.o"),
        (".i 1\n.o 1\n.s 3\n1 A B 1\n.e\n", "declared 3 states but file has 2"),
        (".i 1\n.o 1\n.p 9\n1 A B 1\n.e\n", "declared 9 transitions but file has 1"),
        (".i 1\n.o 1\n.r C\n1 A B 1\n.e\n", "unknown state 'C'"),
        (".i 1\n.o 1\n.e\n", "no transitions"),
        (".i 1\n.o 1\n.flags x\n.e\n", "unsupported directive"),
        (".i 1\n.o 1\n11 A B 1\n.e\n", "input cube"),
        (".i 1\n.o 1\n1 A B -\n.e\n", "don't-cares are not supported"),
        (".i 1\n.o 1\n1 A B\n.e\n", "expected"),
        (".i x\n.o 1\n1 A B 1\n.e\n", "bad count"),
        (".i 1\n.o 1\n1 A B 1\n1 A B 0\n.e\n", "overlapping"),
        (".i 0\n.o 1\n1 S0 S1 1\n.e\n", "line 1: .i must declare at least one"),
        (".i 1\n.o 0\n1 S0 S1\n.e\n", "line 2: .o must declare at least one"),
        (".i 25\n.o 1\n" + "1" * 25 + " A A 1\n.e\n",
         "line 1: .i 25 is more signals than the limit of 24"),
        (".i 1\n.o 1\n1 A B 1\n.o 2\n.e\n", "line 4: .o 2 after rows read with .o 1"),
        (".i 1\n.o 1\n1 A\n.e\n",
         "line 3: expected '<inputs> <current> <next> <outputs>', got '1 A'"),
    ],
)
def test_parse_kiss2_errors(text, message):
    with pytest.raises(FormatError, match=message):
        parse_kiss2(text)


def test_default_encoding_toggle():
    enc = default_encoding(toggle())
    assert enc.bits == 1
    assert enc.codes == (("S0", 0), ("S1", 1))
    assert enc.reset == "S0"
    assert enc.code_str("S1") == "1"


def test_default_encoding_reset_first():
    fsm = Fsm(
        1,
        1,
        ("A", "B", "C", "D", "E"),
        "C",
        (Transition("1", "A", "B", "1"),),
    )
    enc = default_encoding(fsm)
    assert enc.bits == 3  # five states
    assert enc.codes == (("C", 0), ("A", 1), ("B", 2), ("D", 3), ("E", 4))
    assert enc.name_of(5) is None
    assert enc.code_of("E") == 4
    with pytest.raises(KeyError):
        enc.code_of("Z")


def test_encoding_validation():
    with pytest.raises(ValueError, match="at least one state bit"):
        StateEncoding(0, 1, 1, (("S0", 0),))
    with pytest.raises(ValueError, match="ascending"):
        StateEncoding(1, 1, 1, (("S0", 1), ("S1", 0)))
    with pytest.raises(ValueError, match="reset"):
        StateEncoding(1, 1, 1, (("S0", 1),))
    with pytest.raises(ValueError, match="more than"):
        StateEncoding(1, 1, 1, (("S0", 0), ("S1", 2)))
    with pytest.raises(ValueError, match="duplicate state name"):
        StateEncoding(1, 1, 1, (("S0", 0), ("S0", 1)))
    with pytest.raises(ValueError, match="at least one input"):
        StateEncoding(1, 0, 1, (("S0", 0),))
    with pytest.raises(ValueError, match="at least one output"):
        StateEncoding(1, 1, -3, (("S0", 0),))


def test_encoding_sidecar_round_trip():
    enc = default_encoding(toggle())
    text = emit_encoding(enc)
    assert text == (
        "PLAENC 1\nBITS 1\nINPUTS 1\nOUTPUTS 1\n"
        "STATE S0 0\nSTATE S1 1\nEND\n"
    )
    assert parse_encoding(text) == enc
    # unsorted STATE lines are accepted and sorted by code
    shuffled = text.replace("STATE S0 0\nSTATE S1 1", "STATE S1 1\nSTATE S0 0")
    assert parse_encoding(shuffled) == enc


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda t: t.replace("PLAENC 1", "ENC 1"), "missing 'PLAENC 1'"),
        (lambda t: t.replace("BITS 1\n", ""), "expected 'BITS"),
        (lambda t: t.replace("BITS 1", "BITS x"), "bad BITS"),
        (lambda t: t.replace("STATE S0 0", "STATE S0"), "expected 'STATE"),
        (lambda t: t.replace("STATE S1 1", "STATE S1 y"), "bad state code"),
        (lambda t: t.replace("END\n", ""), "expected END"),
        (lambda t: t + "x\n", "content after END"),
        (lambda t: t.replace("STATE S0 0\n", ""), "code 0"),
        (lambda t: t[: t.index("INPUTS")], "truncated encoding: expected INPUTS"),
    ],
)
def test_parse_encoding_errors(mutate, message):
    text = emit_encoding(default_encoding(toggle()))
    with pytest.raises(FormatError, match=message):
        parse_encoding(mutate(text))


def test_fsm_to_covers_toggle():
    mcover, dc_rows = fsm_to_covers(toggle())
    assert mcover.order == ("s0", "i0")
    assert mcover.names == ("ns0", "o0")
    # S0 --1--> S1/1 gives cube 01; the hold term for (S1, input 0) gives 10.
    # S1 --1--> S0/0 sets nothing, so it contributes no cube.
    assert mcover.term_pool == ("01", "10")
    assert mcover.cover_for("ns0").cubes == ("01", "10")
    assert mcover.cover_for("o0").cubes == ("01",)
    assert dc_rows == []


def test_fsm_to_covers_unused_codes_are_dont_cares():
    fsm = Fsm(
        1,
        1,
        ("A", "B", "C"),
        "A",
        (
            Transition("1", "A", "B", "1"),
            Transition("1", "B", "C", "0"),
            Transition("1", "C", "A", "1"),
        ),
    )
    mcover, dc_rows = fsm_to_covers(fsm)
    assert mcover.order == ("s0", "s1", "i0")
    assert dc_rows == [6, 7]  # code 3 unused, k = 1


def test_fsm_to_covers_strict_rejects_unmatched():
    with pytest.raises(ValueError, match="unmatched") as exc:
        fsm_to_covers(toggle(), strict=True)
    assert "(S0, 0)" in str(exc.value)
    full = Fsm(
        1,
        1,
        ("A", "B"),
        "A",
        (
            Transition("-", "A", "B", "1"),
            Transition("0", "B", "B", "0"),
            Transition("1", "B", "A", "0"),
        ),
    )
    fsm_to_covers(full, strict=True)  # fully specified: no error


def test_strict_message_counts_every_pair_and_shows_the_first_five():
    # S0 leaves 2 input rows unmatched, S1 none, S2 3 and S3 6: the examples
    # run across states in declaration order, rows ascending within each
    machine = Fsm(3, 1, ("S0", "S1", "S2", "S3"), "S0", (
        Transition("1--", "S0", "S1", "1"),
        Transition("01-", "S0", "S2", "0"),
        Transition("---", "S1", "S2", "1"),
        Transition("--1", "S2", "S3", "0"),
        Transition("100", "S2", "S0", "1"),
        Transition("111", "S3", "S0", "1"),
        Transition("010", "S3", "S1", "0"),
    ))
    unmatched = [(state, bits) for state in machine.states
                 for bits in (format(v, "03b") for v in range(8))
                 if next_state_naive(machine, state, bits) is None]
    assert len(unmatched) == 11
    shown = ", ".join(f"({s}, {bits})" for s, bits in unmatched[:5])
    with pytest.raises(ValueError) as exc:
        fsm_to_covers(machine, strict=True)
    assert str(exc.value) == f"11 unmatched state/input combinations, e.g. {shown}"
    assert shown == "(S0, 000), (S0, 001), (S2, 000), (S2, 010), (S2, 110)"


def test_lowering_a_wide_one_state_machine_is_linear():
    # one state, 18 inputs: 2^17 unmatched rows, all at code 0 (no hold
    # terms); code 1 is unused, so its 2^18 rows are don't-cares
    machine = Fsm(18, 1, ("S0",), "S0", (Transition("1" + "-" * 17, "S0", "S0", "1"),))
    start = time.perf_counter()
    mcover, dc_rows = fsm_to_covers(machine)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s, limit 1s"
    assert mcover.term_pool == ("01" + "-" * 17,)
    assert dc_rows == list(range(1 << 18, 1 << 19))


def test_lowering_matches_brute_force_on_cube_machines():
    # every (state code, input) row of the covers gives the matching
    # transition's next code and outputs, or the hold code and zeros
    rng = seeded(79)
    for k in range(1, 11):
        machine = random_cube_fsm(rng, k)
        enc = default_encoding(machine)
        mcover, _ = fsm_to_covers(machine, enc)
        tables = [mcover.cover_for(name).to_table().bits for name in mcover.names]
        unmatched = 0
        for state in machine.states:
            for value in range(1 << k):
                t = next_state_naive(machine, state, format(value, f"0{k}b"))
                if t is None:
                    unmatched += 1
                    want = enc.code_str(state) + "0" * machine.n_outputs
                else:
                    want = enc.code_str(t.next_state) + t.outputs
                row = enc.code_of(state) << k | value
                assert "".join(str(bits >> row & 1) for bits in tables) == want
        with pytest.raises(ValueError, match=f"^{unmatched} unmatched"):
            fsm_to_covers(machine, enc, strict=True)


def test_minimized_wide_cube_controller_is_bounded_work():
    # 13 device inputs, transition cubes with up to 10 absent literals:
    # tabulating primes from minterms took about 15 s here
    machine = random_cube_fsm(seeded(1010), 10)
    enc = default_encoding(machine)
    profile = PlaProfile(enc.bits + machine.n_inputs, 256, enc.bits + machine.n_outputs)
    start = time.perf_counter()
    image, _ = synthesize_controller(machine, profile, minimize=True)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s, limit 5s"
    seq = random_input_sequence(seeded(1011), machine.n_inputs, 200)
    want = [(enc.code_str(s), o) for s, o in simulate_fsm(machine, seq)]
    assert simulate_controller(image, seq) == want


def test_synthesize_toggle_golden():
    fsm = toggle()
    image, report = synthesize_controller(fsm, PlaProfile(2, 4, 2))
    assert isinstance(image, ControllerImage)
    assert report.terms_used == 2
    trace = simulate_controller(image, ["1", "1", "1"])
    assert [outs for _, outs in trace] == ["1", "0", "1"]
    assert [code for code, _ in trace] == ["0", "1", "0"]
    # hold on the unmatched input: state keeps, output drops to 0
    trace2 = simulate_controller(image, ["1", "0", "1", "1"])
    assert trace2 == [("0", "1"), ("1", "0"), ("1", "0"), ("0", "1")]


def test_simulate_fsm_matches_controller_on_toggle():
    fsm = toggle()
    enc = default_encoding(fsm)
    image, _ = synthesize_controller(fsm, PlaProfile(2, 4, 2))
    seq = ["1", "0", "1", "1", "0", "1"]
    sym = simulate_fsm(fsm, seq)
    dev = simulate_controller(image, seq)
    assert [(enc.code_str(s), o) for s, o in sym] == dev


def test_simulate_fsm_hold_semantics():
    fsm = toggle()
    trace = simulate_fsm(fsm, ["0", "1", "0"])
    assert trace == [("S0", "0"), ("S0", "1"), ("S1", "0")]
    with pytest.raises(ValueError):
        simulate_fsm(fsm, ["10"])
    # list-of-ints vectors are accepted
    assert simulate_fsm(fsm, [[1], [1]]) == [("S0", "1"), ("S1", "0")]


def test_minimized_controller_equals_unminimized():
    rng = seeded(53)
    for _ in range(15):
        fsm = random_fsm(rng)
        prof = profile_for(fsm, minimize_safe=True)
        plain, _ = synthesize_controller(fsm, prof)
        mini, rep = synthesize_controller(fsm, prof, minimize=True)
        assert rep.terms_used <= prof.n_terms
        for _ in range(3):
            seq = random_input_sequence(rng, fsm.n_inputs, 16)
            assert simulate_controller(plain, seq) == simulate_controller(mini, seq)


def test_controller_matches_symbolic_interpreter():
    rng = seeded(59)
    for _ in range(20):
        fsm = random_fsm(rng)
        enc = default_encoding(fsm)
        image, _ = synthesize_controller(fsm, profile_for(fsm))
        for _ in range(3):
            seq = random_input_sequence(rng, fsm.n_inputs, 16)
            sym = simulate_fsm(fsm, seq)
            dev = simulate_controller(image, seq)
            assert [(enc.code_str(s), o) for s, o in sym] == dev


def test_controller_matches_symbolic_on_a_three_slice_part():
    # 3 state bits and 12 inputs on a 20-input part sit at input-word bits
    # 5..19, across all three 8-bit slices the evaluator reads
    rng = seeded(73)
    k, q = 12, 4
    states = [f"Q{i}" for i in range(6)]
    transitions = []
    for state in states:
        split = rng.sample(range(k), 3)
        for value in range(8):
            cube = ["-"] * k
            for pos, bit in zip(split, format(value, "03b")):
                cube[pos] = bit
            outputs = "".join(rng.choice("01") for _ in range(q))
            transitions.append(
                Transition("".join(cube), state, rng.choice(states), outputs)
            )
    fsm = Fsm(k, q, tuple(states), states[0], tuple(transitions))
    image, _ = synthesize_controller(fsm, PlaProfile(20, 256, 8))
    enc = image.encoding
    seq = random_input_sequence(rng, k, 300)
    sym = simulate_fsm(fsm, seq)
    assert [(enc.code_str(s), o) for s, o in sym] == simulate_controller(image, seq)


def test_encoding_permutation_leaves_traces_invariant():
    fsm = Fsm(
        1,
        2,
        ("A", "B", "C"),
        "A",
        (
            Transition("1", "A", "B", "10"),
            Transition("0", "B", "C", "01"),
            Transition("1", "C", "A", "11"),
        ),
    )
    default = default_encoding(fsm)
    swapped = StateEncoding(2, 1, 2, (("A", 0), ("C", 1), ("B", 2)))
    rng = seeded(61)
    img1, _ = synthesize_controller(fsm, profile_for(fsm, default), encoding=default)
    img2, _ = synthesize_controller(fsm, profile_for(fsm, swapped), encoding=swapped)
    for _ in range(10):
        seq = random_input_sequence(rng, 1, 16)
        t1 = simulate_controller(img1, seq)
        t2 = simulate_controller(img2, seq)
        assert [o for _, o in t1] == [o for _, o in t2]
        names1 = [default.name_of(int(c, 2)) for c, _ in t1]
        names2 = [swapped.name_of(int(c, 2)) for c, _ in t2]
        assert names1 == names2


def test_controller_pads_wide_devices():
    fsm = toggle()
    image, _ = synthesize_controller(fsm, PlaProfile(4, 6, 3))
    trace = simulate_controller(image, ["1", "1", "1"])
    assert [o for _, o in trace] == ["1", "0", "1"]


def test_simulate_controller_rejects_bad_width():
    image, _ = synthesize_controller(toggle(), PlaProfile(2, 4, 2))
    with pytest.raises(ValueError):
        simulate_controller(image, ["11"])


def test_controller_image_must_fit_its_device():
    image, _ = synthesize_controller(toggle(), PlaProfile(2, 4, 2))
    codes = image.encoding.codes
    for enc, need in ((StateEncoding(1, 1, 2, codes), "2 inputs / 3 outputs"),
                      (StateEncoding(1, 2, 1, codes), "3 inputs / 2 outputs")):
        with pytest.raises(ValueError, match=f"encoding wants {need}"):
            simulate_controller(ControllerImage(image.state, enc), ["1", "1", "1"])


def _repeating_stimulus(rng, k, length):
    """A long stimulus drawn from a handful of vectors, so (state, input)
    pairs recur many times."""
    pool = random_input_sequence(rng, k, rng.randint(1, 4))
    return [rng.choice(pool) for _ in range(length)]


def test_step_table_matches_per_cycle_oracle():
    rng = seeded(83)
    for _ in range(12):
        machine = random_fsm(rng, max_inputs=3)
        enc = default_encoding(machine)
        for minimize in (False, True):
            image, _ = synthesize_controller(
                machine, profile_for(machine, minimize_safe=True), minimize=minimize
            )
            for seq in (_repeating_stimulus(rng, machine.n_inputs, 2000),
                        random_input_sequence(rng, machine.n_inputs, 500)):
                got = simulate_controller(image, seq)
                assert got == simulate_controller_naive(image, seq)
                assert got == [(enc.code_str(s), o) for s, o in simulate_fsm(machine, seq)]


def test_step_table_on_a_wide_machine_with_few_repeats():
    machine = random_cube_fsm(seeded(89), 14)
    image, _ = synthesize_controller(machine, profile_for(machine))
    seq = random_input_sequence(seeded(97), machine.n_inputs, 400)
    assert len(set(seq)) > 390
    assert simulate_controller(image, seq) == simulate_controller_naive(image, seq)


def test_step_table_takes_vectors_as_lists():
    rng = seeded(101)
    machine = random_fsm(rng, max_inputs=3)
    image, _ = synthesize_controller(machine, profile_for(machine))
    seq = _repeating_stimulus(rng, machine.n_inputs, 300)
    as_lists = [[int(c) for c in bits] for bits in seq]
    mixed = [bits if i % 3 else tuple(map(int, bits)) for i, bits in enumerate(seq)]
    want = simulate_controller_naive(image, seq)
    assert simulate_controller(image, as_lists) == want
    assert simulate_controller(image, mixed) == want


@pytest.mark.parametrize("bad", ["x", "11", "", " 1", [2], [1, 1], "1\n"])
def test_step_table_checks_a_vector_after_many_repeats(bad):
    image, _ = synthesize_controller(toggle(), PlaProfile(2, 4, 2))
    good = ["1"] * 500 + [[1], [0], "0"] * 50
    simulate_controller(image, good)
    with pytest.raises(ValueError):
        simulate_controller(image, good + [bad])


def test_step_table_of_an_edited_image_is_its_own():
    rng = seeded(103)
    machine = random_fsm(rng, max_states=4, max_inputs=2)
    image, _ = synthesize_controller(machine, profile_for(machine))
    seq = _repeating_stimulus(rng, machine.n_inputs, 600)
    before = simulate_controller(image, seq)
    prof = image.state.profile
    edits = 0
    for plane, rows, cols in (("and", prof.n_terms, 2 * prof.n_inputs),
                              ("or", prof.n_outputs, prof.n_terms)):
        for row in range(rows):
            for col in range(cols):
                for value in (0, 1):
                    state = set_crosspoint(image.state, plane, row, col, value)
                    edited = ControllerImage(state, image.encoding)
                    want = simulate_controller_naive(edited, seq)
                    assert simulate_controller(edited, seq) == want
                    edits += want != before
    assert edits > 0
    assert simulate_controller(image, seq) == before
