import time
from dataclasses import replace

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
    set_polarity,
    synthesize_controller,
    write_kiss2,
)
from plakit.fsm import _CYCLES_PER_ROW
from plakit.logic import check_bits
from oracles import (
    all_cubes,
    cube_rows_naive,
    next_state_naive,
    random_cube_fsm,
    random_fsm,
    random_input_sequence,
    random_state,
    seeded,
    simulate_controller_naive,
    state_from_planes,
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
    with pytest.raises(ValueError, match="at least one output"):
        Fsm(1, 0, ("S0",), "S0", ())
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


def _first_row_error(n_in, n_out, states, transitions):
    """The error the per-row checks meet first, in transition order: cube,
    outputs, undeclared state, duplicate."""
    seen = set()
    for t in transitions:
        if len(t.input_cube) != n_in or set(t.input_cube) - set("01-"):
            return f"input cube {t.input_cube!r} is not {n_in} chars of 0/1/-"
        if len(t.outputs) != n_out or set(t.outputs) - set("01"):
            return f"outputs {t.outputs!r} is not {n_out} chars of 0/1"
        for s in (t.current, t.next_state):
            if s not in states:
                return f"transition uses undeclared state {s!r}"
        if t in seen:
            return "duplicate transition"
        seen.add(t)
    return None


def test_fsm_row_errors_keep_their_order():
    good = [Transition(c, "S0", "S1", "10") for c in ("00", "01", "1-")]
    faults = [
        Transition("0", "S0", "S0", "10"), Transition("0x", "S0", "S0", "10"),
        Transition("00-", "S1", "S0", "10"), Transition("11", "S1", "S0", "1"),
        Transition("11", "S1", "S0", "1-"), Transition("1x", "S1", "S0", "102"),
        Transition("11", "S1", "S9", "10"), Transition("00", "S0", "S1", "10"),
    ]
    rng = seeded(97)
    for _ in range(300):
        rows = good + rng.sample(faults, rng.randint(1, 3))
        rng.shuffle(rows)
        want = _first_row_error(2, 2, ("S0", "S1"), rows)
        if want is None:
            continue
        with pytest.raises(ValueError) as info:
            Fsm(2, 2, ("S0", "S1"), "S0", tuple(rows))
        assert str(info.value).startswith(want)


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
    with pytest.raises(ValueError, match="25 state bits exceeds the limit of 24"):
        StateEncoding(25, 1, 1, (("S0", 0),))
    with pytest.raises(ValueError, match="code -1 for 'S1' needs more than 24 bits"):
        StateEncoding(24, 1, 1, (("S1", -1), ("S0", 0)))
    with pytest.raises(ValueError, match="code 16777216 for 'S1' needs more than 24 bits"):
        StateEncoding(24, 1, 1, (("S0", 0), ("S1", 1 << 24)))
    assert StateEncoding(24, 1, 1, (("S0", 0), ("S1", (1 << 24) - 1))).bits == 24


def _renamed(fsm, old, new):
    swap = {old: new}.get
    return Fsm(fsm.n_inputs, fsm.n_outputs, tuple(swap(s, s) for s in fsm.states),
               swap(fsm.reset, fsm.reset),
               tuple(Transition(t.input_cube, swap(t.current, t.current),
                                swap(t.next_state, t.next_state), t.outputs)
                     for t in fsm.transitions))


def test_write_kiss2_refuses_state_names_its_reader_would_change():
    fsm = _renamed(toggle(), "S1", "S.1")
    assert parse_kiss2(write_kiss2(fsm)) == fsm
    for name in ("S 0", "S#0", "", "S\n0"):
        with pytest.raises(ValueError, match="would not read back"):
            write_kiss2(_renamed(toggle(), "S0", name))


def test_emit_encoding_refuses_state_names_its_reader_would_change():
    enc = default_encoding(_renamed(toggle(), "S1", "S#1"))  # PLAENC keeps '#'
    assert parse_encoding(emit_encoding(enc)) == enc
    for name in ("S 0", "", "S\t0"):
        with pytest.raises(ValueError, match="would not read back"):
            emit_encoding(default_encoding(_renamed(toggle(), "S0", name)))


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
        (lambda t: t.replace("BITS 1", "BITS 100000000000"),
         "100000000000 state bits exceeds the limit of 24"),
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


def test_simulate_controller_reads_lists_tuples_and_strings_alike():
    machine = random_cube_fsm(seeded(1021), 3)
    image, _ = synthesize_controller(machine, PlaProfile(8, 64, 8), minimize=True)
    seq = random_input_sequence(seeded(1022), machine.n_inputs, 600)
    want = simulate_controller(image, seq)
    assert want == simulate_controller_naive(image, seq)
    lists = [[int(c) for c in bits] for bits in seq]
    assert simulate_controller(image, lists) == want
    assert simulate_controller(image, map(tuple, lists)) == want
    assert simulate_controller(image, [(bits[:2], int(bits[2])) for bits in seq]) == want
    assert simulate_controller(image, [bits if i % 2 else lists[i] for i, bits in
                                       enumerate(seq)]) == want
    # a bad vector raises check_bits' error, read before or after good ones,
    # on the per-pair path and on the mask path
    assert _CYCLES_PER_ROW << (image.encoding.bits + 3) <= len(seq)
    for bad in ([0, 2, 1], (1, 0), [1, 0, 1, 1], "0x1", [1.0, 0, 1], [True, False, True]):
        with pytest.raises(ValueError) as want_exc:
            check_bits(bad, 3)
        for stimulus in ([bad], [*lists[:5], bad], [*seq[:5], bad],
                         [bad, *seq], [*seq[:300], bad, *lists[300:]], [*lists, bad]):
            with pytest.raises(ValueError) as exc:
                simulate_controller(image, stimulus)
            assert str(exc.value) == str(want_exc.value)


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
    # 5..19, so the evaluator's per-input keep words (PlaState._keep) for
    # the used inputs and for the 5 unused low ones all take part
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


TWO_INPUT_KISS = """\
.i 2
.o 1
1- A B 1
0- A A 0
-1 B A 1
-0 B B 1
.e
"""


def test_lowering_refuses_an_encoding_for_another_machine():
    machine = parse_kiss2(TWO_INPUT_KISS)
    for enc, message in (
        (StateEncoding(1, 1, 1, (("A", 0), ("B", 1))),
         "encoding is for 1 inputs / 1 outputs but the machine has 2 / 1"),
        (StateEncoding(1, 2, 2, (("A", 0), ("B", 1))),
         "encoding is for 2 inputs / 2 outputs but the machine has 2 / 1"),
        (StateEncoding(1, 2, 1, (("A", 0), ("C", 1))), "encoding has no code for state 'B'"),
    ):
        with pytest.raises(ValueError, match=message):
            fsm_to_covers(machine, enc)
        with pytest.raises(ValueError, match=message):
            synthesize_controller(machine, PlaProfile(3, 8, 2), encoding=enc)
    image, _ = synthesize_controller(machine, PlaProfile(3, 8, 2),
                                     encoding=StateEncoding(1, 2, 1, (("A", 0), ("B", 1))))
    seq = ["00", "10", "01", "01"]
    assert ([o for _, o in simulate_controller(image, seq)]
            == [o for _, o in simulate_fsm(machine, seq)] == ["0", "1", "1", "0"])


def test_lowering_refuses_an_encoding_whose_code_0_is_not_the_reset():
    # the register starts at code 0: run from S1, the toggle machine would
    # give 0 1 0 on 1 1 1 where the machine gives 1 0 1
    machine = toggle()
    enc = StateEncoding(1, 1, 1, (("S1", 0), ("S0", 1)))
    message = "encoding gives code 0 to 'S1', but the machine resets to 'S0'"
    with pytest.raises(ValueError, match=message):
        fsm_to_covers(machine, enc)
    with pytest.raises(ValueError, match=message):
        synthesize_controller(machine, PlaProfile(2, 4, 2), encoding=enc)
    assert [o for _, o in simulate_fsm(machine, ["1", "1", "1"])] == ["1", "0", "1"]


def test_controller_image_checks_its_labels():
    image, _ = synthesize_controller(toggle(), PlaProfile(3, 4, 3))
    assert image.input_names == ("s0", "i0", "x2")
    assert image.output_names == ("ns0", "o0", "f2")
    ControllerImage(image.state, image.encoding)  # unlabeled: sizes only
    ControllerImage(image.state, image.encoding, image.input_names, image.output_names)
    with pytest.raises(ValueError, match="device inputs A B are not the controller's s0 i0"):
        ControllerImage(image.state, image.encoding, ("A", "B", "C"))
    with pytest.raises(ValueError, match="device outputs o0 ns0 are not the controller's ns0 o0"):
        ControllerImage(image.state, image.encoding, (), ("o0", "ns0", "f2"))


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


def test_step_tables_match_the_per_cycle_oracle_over_long_runs():
    # one machine of each kind, 10,000 cycles as strings and as 0/1 lists
    rng = seeded(107)
    for machine in (random_fsm(rng, max_inputs=3), random_cube_fsm(rng, 5)):
        image, _ = synthesize_controller(machine, profile_for(machine, minimize_safe=True),
                                         minimize=True)
        seq = _repeating_stimulus(rng, machine.n_inputs, 5000)
        seq += random_input_sequence(rng, machine.n_inputs, 5000)
        want = simulate_controller_naive(image, seq)
        assert simulate_controller(image, seq) == want
        assert simulate_controller(image, [[int(c) for c in bits] for bits in seq]) == want


def test_step_tables_follow_codes_the_encoding_does_not_name():
    # a hand-drawn image on 2 state bits whose encoding names codes 0 and 1
    # only: the next code is the input vector, so codes 2 and 3 are reached
    enc = StateEncoding(2, 2, 1, (("A", 0), ("B", 1)))
    profile = PlaProfile(5, 6, 4)  # inputs s0 s1 i0 i1 x, outputs ns0 ns1 o0 f
    and_plane = [  # columns: s0 s0' s1 s1' i0 i0' i1 i1' x x'
        (0, 0, 0, 0, 1, 0, 0, 0, 0, 0),  # i0
        (0, 0, 0, 0, 0, 0, 1, 0, 0, 0),  # i1
        (1, 0, 0, 0, 0, 0, 0, 1, 0, 0),  # s0 i1'
        (0, 0, 1, 0, 1, 0, 0, 0, 0, 0),  # s1 i0
    ] + [(0,) * 10] * 2
    or_plane = [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0), (0, 0, 0, 1, 0, 0)]
    image = ControllerImage(state_from_planes(profile, and_plane, or_plane, (0,) * 4), enc)
    seq = random_input_sequence(seeded(109), 2, 10000)
    want = simulate_controller_naive(image, seq)
    assert {code for code, _ in want} == {"00", "01", "10", "11"}
    assert {out for _, out in want} == {"0", "1"}
    assert simulate_controller(image, seq) == want
    assert simulate_controller(image, [[int(c) for c in bits] for bits in seq]) == want


def _drawn_controllers():
    """(feature, ControllerImage) pairs over random images, each drawn to
    carry one thing the step tables must read right."""
    rng = seeded(1201)

    def drawn(b, k, q, extra_in=0, extra_out=0, tech="fuse", xor=False, codes=None):
        profile = PlaProfile(b + k + extra_in, 12, b + q + extra_out, tech, xor)
        codes = codes or tuple((f"S{c}", c) for c in range(1 << b))
        return random_state(rng, profile, 0.2), StateEncoding(b, k, q, codes)

    state, enc = drawn(2, 2, 2, xor=True)
    yield "polarity", ControllerImage(set_polarity(set_polarity(state, 0, 1), 2, 1), enc)
    yield "antifuse", ControllerImage(*drawn(2, 3, 2, tech="antifuse"))
    # inputs 4 and 5 of 6 are unused and read 0: term 0 needs input 4 at 1,
    # so it is dead; term 1 needs input 5 at 0 and state bit 0 at 1
    state, enc = drawn(2, 2, 2, extra_in=2)
    words = ((0b000010, 0), (0b100000, 0b000001), *state.and_words[2:])
    ors = tuple(w | 0b11 if o in (0, 2) else w for o, w in enumerate(state.or_words))
    yield "unused inputs", ControllerImage(replace(state, and_words=words, or_words=ors), enc)
    state, enc = drawn(2, 2, 2)
    words = ((0b1000, 0b1000), (0b0110, 0b0110), *state.and_words[2:])  # s0 s0'; s1 s1' i0 i0'
    ors = tuple(w | 0b11 for w in state.or_words)
    yield "contradictory", ControllerImage(replace(state, and_words=words, or_words=ors), enc)
    state, enc = drawn(2, 2, 2)
    ors = tuple(w | 1 if o == 3 else w & ~1 for o, w in enumerate(state.or_words))
    state = replace(state, and_words=((0, 0), *state.and_words[1:]), or_words=ors)
    yield "unconnected", ControllerImage(state, enc)  # o1 reads the constant-1 term
    yield "more outputs", ControllerImage(*drawn(2, 2, 1, extra_out=3, xor=True))
    yield "unnamed codes", ControllerImage(*drawn(2, 2, 2, codes=(("A", 0), ("B", 1))))


def test_both_step_table_paths_match_the_per_cycle_oracle():
    # a run of _CYCLES_PER_ROW cycles per (state code, input) row fills the
    # tables from the output masks and never builds the per-pair evaluator's
    # keep words; one cycle fewer evaluates each pair when first reached
    rng = seeded(1203)
    for feature, image in _drawn_controllers():
        enc = image.encoding
        rows = _CYCLES_PER_ROW << (enc.bits + enc.n_inputs)
        seq = random_input_sequence(rng, enc.n_inputs, rows)
        got = simulate_controller(image, map(list, seq))
        assert "_keep" not in image.state.__dict__, feature
        want = simulate_controller_naive(image, seq)
        assert got == want, feature
        short = random_input_sequence(rng, enc.n_inputs, rows - 1)
        assert simulate_controller(image, short) == simulate_controller_naive(image, short), feature
        if feature == "unnamed codes":
            assert {code for code, _ in want} - {enc.code_str(n) for n, _ in enc.codes}


def test_a_wide_controller_stays_on_the_per_pair_path():
    # 2 state bits and 20 inputs: the mask path would read 4,194,304
    # (state code, input) rows for a 1000-cycle run
    rng = seeded(1207)
    enc = StateEncoding(2, 20, 6, (("A", 0), ("B", 1), ("C", 2)))
    image = ControllerImage(random_state(rng, PlaProfile(22, 64, 8), 0.05), enc)
    seq = random_input_sequence(rng, 20, 1000)
    start = time.perf_counter()
    got = simulate_controller(image, seq)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s, limit 1s"
    assert got == simulate_controller_naive(image, seq)
