import re
from dataclasses import replace

import pytest

from plakit import (
    Fault,
    PlaProfile,
    PlaState,
    blank_device,
    enumerate_faults,
    eval_pla,
    find_test_vector,
    inject_fault,
    output_masks,
    render_crosspoint_diagram,
    set_crosspoint,
    set_polarity,
)
from plakit.device import fault_sweep
from plakit.logic import _product_mask
from oracles import (
    eval_pla_naive, random_profile, random_state, render_crosspoint_diagram_naive, seeded,
    state_from_planes,
)


def majority_device():
    # BC + AC + AB on a 3x3x1 device
    return state_from_planes(
        PlaProfile(3, 3, 1),
        ((0, 0, 1, 0, 1, 0), (1, 0, 0, 0, 1, 0), (1, 0, 1, 0, 0, 0)),
        ((1, 1, 1),),
        (0,),
    )


def all_inputs(n):
    return [format(r, f"0{n}b") for r in range(1 << n)]


def test_profile_validation():
    with pytest.raises(ValueError):
        PlaProfile(0, 1, 1)
    with pytest.raises(ValueError):
        PlaProfile(1, 1, 1, switch_tech="eeprom")
    with pytest.raises(ValueError):
        PlaProfile(25, 1, 1)
    prof = PlaProfile(2, 3, 1)
    assert prof.switch_tech == "fuse" and not prof.has_output_xor


def test_state_validation():
    prof = PlaProfile(2, 1, 1)
    with pytest.raises(ValueError, match="and_plane"):
        PlaState(prof, ((0b100, 0),), (0,), 0)  # a literal on a third input
    with pytest.raises(ValueError, match="and_plane"):
        PlaState(prof, ((0, 0), (0, 0)), (0,), 0)  # two rows for one term
    with pytest.raises(ValueError, match="and_plane"):
        PlaState(prof, ((0,),), (0,), 0)
    # words are checked once each, and the first bad one in row order is named
    with pytest.raises(ValueError, match="and_plane holds 8, not a 2-bit word"):
        PlaState(PlaProfile(2, 4, 1), ((0, 0), (0, 8), (0, 0), (4, 8)), (0,), 0)
    # a word or a row of the wrong type is refused as a bad word or a bad pair
    for words, message in ((([1], 0), "and_plane holds [1], not a 2-bit word"),
                           ((0, 0.0), "and_plane holds 0.0, not a 2-bit word"),
                           (("1", 0), "and_plane holds '1', not a 2-bit word"),
                           (1, "and_plane needs 1 (req1, req0) word pairs")):
        with pytest.raises(ValueError, match=re.escape(message)):
            PlaState(prof, [words], [1])
    assert PlaState(prof, ((True, False),), (True,)).and_words == ((1, 0),)  # bools are words
    with pytest.raises(ValueError, match="or_plane"):
        PlaState(prof, ((0, 0),), (0b10,), 0)  # a second term column
    with pytest.raises(ValueError, match="or_plane"):
        PlaState(prof, ((0, 0),), (0, 0), 0)
    for plane in (5, None):  # a plane that is not a sequence
        with pytest.raises(ValueError, match=re.escape("or_plane needs 1 words")):
            PlaState(prof, [(0, 0)], plane)
    with pytest.raises(ValueError, match="polarity"):
        PlaState(prof, ((0, 0),), (0,), 0b10)  # a second output
    with pytest.raises(ValueError, match="polarity"):
        PlaState(prof, ((0, 0),), (0,), -1)
    with pytest.raises(ValueError, match="XOR"):
        PlaState(prof, ((0, 0),), (0,), 1)


@pytest.mark.parametrize("words, bad", [([(1, 0), (1.0, 0)], 1.0), ([(1.0, 0), (1, 0)], 1.0),
                                        ([(0, 0), (0, 0.0)], 0.0)])
def test_a_float_word_equal_to_an_int_word_is_refused(words, bad):
    """(1.0, 0) == (1, 0), so a type test over the distinct pairs alone would keep a float."""
    with pytest.raises(ValueError, match=re.escape(f"and_plane holds {bad!r}, not a 2-bit word")):
        PlaState(PlaProfile(2, 2, 1), words, [1])


def test_blank_fuse_device_outputs_zero_everywhere():
    state = blank_device(PlaProfile(3, 4, 2))
    assert all(all(bit == 1 for bit in row) for row in state.and_plane)
    for bits in all_inputs(3):
        assert eval_pla(state, bits) == "00"


def test_blank_antifuse_device_outputs_zero_everywhere():
    state = blank_device(PlaProfile(3, 4, 2, switch_tech="antifuse"))
    assert all(all(bit == 0 for bit in row) for row in state.and_plane)
    for bits in all_inputs(3):
        assert eval_pla(state, bits) == "00"


def test_empty_and_row_is_constant_one():
    prof = PlaProfile(2, 1, 1)
    state = state_from_planes(prof, ((0, 0, 0, 0),), ((1,),), (0,))
    for bits in all_inputs(2):
        assert eval_pla(state, bits) == "1"


def test_contradictory_and_row_is_constant_zero():
    prof = PlaProfile(2, 1, 1)
    state = state_from_planes(prof, ((1, 1, 0, 0),), ((1,),), (0,))
    for bits in all_inputs(2):
        assert eval_pla(state, bits) == "0"


def test_unconnected_or_row_is_constant_zero():
    prof = PlaProfile(2, 1, 1)
    state = state_from_planes(prof, ((0, 0, 0, 0),), ((0,),), (0,))
    for bits in all_inputs(2):
        assert eval_pla(state, bits) == "0"


def test_padding_rows_share_one_term_mask():
    # each distinct AND pair's rows are built once: the unused (0, 0) rows
    # hold one 2^12-row mask object, and every row holds its own product's rows
    pairs = [(0b101, 0b010), (0, 0), (0b101, 0b010), (0, 0), (1, 1), (0, 0)]
    state = PlaState(PlaProfile(12, 6, 1), pairs, (0b101,))
    terms = state._terms
    assert terms[1] is terms[3] is terms[5] and terms[0] is terms[2]
    assert terms == tuple(_product_mask(12, *pair) for pair in pairs)


def test_single_literal_rows():
    prof = PlaProfile(2, 2, 2)
    # term 0 = x0, term 1 = x1'; f0 = x0, f1 = x1'
    state = state_from_planes(prof, ((1, 0, 0, 0), (0, 0, 0, 1)), ((1, 0), (0, 1)), (0, 0))
    assert eval_pla(state, "00") == "01"
    assert eval_pla(state, "01") == "00"
    assert eval_pla(state, "10") == "11"
    assert eval_pla(state, "11") == "10"


def test_majority_device_reproduces_truth_table():
    state = majority_device()
    want = "00010111"  # rows 000..111
    got = "".join(eval_pla(state, bits) for bits in all_inputs(3))
    assert got == want


def test_eval_pla_input_validation():
    state = majority_device()
    with pytest.raises(ValueError):
        eval_pla(state, "01")
    with pytest.raises(ValueError):
        eval_pla(state, "01x")


def test_eval_matches_naive_oracle_on_random_devices():
    rng = seeded(37)
    for _ in range(60):
        prof = random_profile(rng)
        state = random_state(rng, prof)
        masks = output_masks(state)
        for row, bits in enumerate(all_inputs(prof.n_inputs)):
            want = eval_pla_naive(state, bits)
            assert eval_pla(state, bits) == want
            got_masked = "".join(str((m >> row) & 1) for m in masks)
            assert got_masked == want


def test_masks_over_the_first_inputs_match_the_naive_oracle():
    # the first v inputs vary, the other n - v read 0; v = n is output_masks
    rng = seeded(39)
    for _ in range(60):
        prof = random_profile(rng, max_inputs=6, max_terms=8, max_outputs=4)
        state = random_state(rng, prof, rng.choice((0.1, 0.25, 0.4)))
        n = prof.n_inputs
        assert tuple(state._masks_over(n)) == output_masks(state)
        for v in range(1, n):
            masks = state._masks_over(v)
            for row, bits in enumerate(all_inputs(v)):
                want = eval_pla_naive(state, bits + "0" * (n - v))
                assert "".join(str(m >> row & 1) for m in masks) == want


def test_eval_matches_naive_oracle_across_slice_boundaries():
    # eval ANDs one keep word per input bit (PlaState._keep, the terms off
    # that input's true or complement column): widths run from 1 to 24
    # inputs, and term counts pass 64, so keep words span several machine words
    rng = seeded(71)
    for n in (1, 7, 8, 9, 16, 17, 24):
        for n_terms in (2, 9, 65, 80):
            tech = rng.choice(("fuse", "antifuse"))
            state = random_state(rng, PlaProfile(n, n_terms, 3, tech, True),
                                 rng.choice((0.05, 0.15)))
            j = rng.randrange(n)
            contradictory = tuple(int(c in (2 * j, 2 * j + 1)) for c in range(2 * n))
            and_plane = ((0,) * 2 * n,) + state.and_plane[1:-1] + (contradictory,)
            # output 0 reads the constant-1 row, output 1 the constant-0 row,
            # output 2 nothing
            or_plane = ((1,) + state.or_plane[0][1:],
                        state.or_plane[1][:-1] + (1,), (0,) * n_terms)
            state = state_from_planes(state.profile, and_plane, or_plane, state.polarity)
            if n <= 9:
                vectors = list(all_inputs(n))
            else:
                vectors = ["0" * n, "1" * n]
                vectors += [format(rng.getrandbits(n), f"0{n}b") for _ in range(40)]
                for row in and_plane:  # a vector each live term accepts
                    bits = [rng.choice("01") for _ in range(n)]
                    for i in range(n):
                        if row[2 * i] != row[2 * i + 1]:
                            bits[i] = "01"[row[2 * i]]
                    vectors.append("".join(bits))
            for bits in vectors:
                assert eval_pla(state, bits) == eval_pla_naive(state, bits)


def test_set_crosspoint_is_persistent_style():
    state = majority_device()
    new = set_crosspoint(state, "and", 0, 0, 1)
    assert state.and_plane[0][0] == 0  # original untouched
    assert new.and_plane[0][0] == 1
    assert new.and_plane[1:] == state.and_plane[1:]
    back = set_crosspoint(new, "and", 0, 0, 0)
    assert back == state
    orr = set_crosspoint(state, "or", 0, 2, 0)
    assert orr.or_plane[0] == (1, 1, 0)


def test_set_crosspoint_validation():
    state = majority_device()
    with pytest.raises(ValueError):
        set_crosspoint(state, "nor", 0, 0, 1)
    with pytest.raises(ValueError):
        set_crosspoint(state, "and", 3, 0, 1)
    with pytest.raises(ValueError):
        set_crosspoint(state, "or", 0, 9, 1)
    with pytest.raises(ValueError):
        set_crosspoint(state, "and", 0, 0, 2)


def test_polarity_complements_every_vector():
    prof = PlaProfile(3, 3, 1, has_output_xor=True)
    base = majority_device()
    state = state_from_planes(prof, base.and_plane, base.or_plane, (0,))
    flipped = set_polarity(state, 0, 1)
    for bits in all_inputs(3):
        good = eval_pla(state, bits)
        assert eval_pla(flipped, bits) == str(1 - int(good))
    assert set_polarity(flipped, 0, 0) == state


def test_polarity_requires_xor_feature():
    state = majority_device()
    with pytest.raises(ValueError, match="XOR"):
        set_polarity(state, 0, 1)
    prof = PlaProfile(3, 3, 1, has_output_xor=True)
    ok = state_from_planes(prof, state.and_plane, state.or_plane, (0,))
    with pytest.raises(ValueError):
        set_polarity(ok, 1, 1)
    with pytest.raises(ValueError):
        set_polarity(ok, 0, 2)


def test_fuse_and_antifuse_agree_with_equal_connectivity():
    base = majority_device()
    anti_prof = PlaProfile(3, 3, 1, switch_tech="antifuse")
    anti = state_from_planes(anti_prof, base.and_plane, base.or_plane, base.polarity)
    assert output_masks(anti) == output_masks(base)
    for bits in all_inputs(3):
        assert eval_pla(anti, bits) == eval_pla(base, bits)


def test_fault_formatting_and_validation():
    f = Fault("and", 2, 3, "connected")
    assert str(f) == "and[2,3] stuck-connected"
    assert str(Fault("or", 0, 1, "disconnected")) == "or[0,1] stuck-disconnected"
    with pytest.raises(ValueError):
        Fault("buf", 0, 0, "connected")
    with pytest.raises(ValueError):
        Fault("and", 0, 0, "high")


def test_enumerate_faults_covers_both_planes():
    prof = PlaProfile(2, 3, 2)
    faults = enumerate_faults(prof)
    assert len(faults) == 2 * (3 * 4) + 2 * (2 * 3)
    assert faults[0] == Fault("and", 0, 0, "connected")
    assert faults[1] == Fault("and", 0, 0, "disconnected")
    and_part = [f for f in faults if f.plane == "and"]
    assert faults[: len(and_part)] == and_part  # AND plane first
    assert len(set(faults)) == len(faults)


def test_inject_fault_forces_the_bit():
    state = majority_device()
    stuck1 = inject_fault(state, Fault("and", 0, 0, "connected"))
    assert stuck1.and_plane[0][0] == 1
    stuck0 = inject_fault(state, Fault("or", 0, 1, "disconnected"))
    assert stuck0.or_plane[0][1] == 0
    # stuck at the programmed value changes nothing
    same = inject_fault(state, Fault("and", 0, 2, "connected"))
    assert same == state


def test_inject_then_restore_round_trip():
    rng = seeded(41)
    for _ in range(20):
        prof = random_profile(rng)
        state = random_state(rng, prof)
        for fault in rng.sample(enumerate_faults(prof), 5):
            matrix = state.and_plane if fault.plane == "and" else state.or_plane
            original = matrix[fault.row][fault.col]
            faulted = inject_fault(state, fault)
            restored = set_crosspoint(
                faulted, fault.plane, fault.row, fault.col, original
            )
            assert restored == state


def test_find_test_vector_majority():
    state = majority_device()
    # dropping the BC term loses only row 011 (others still covered)
    vec = find_test_vector(state, Fault("or", 0, 0, "disconnected"))
    assert vec == "011"
    faulted = inject_fault(state, Fault("or", 0, 0, "disconnected"))
    assert eval_pla(state, vec) != eval_pla(faulted, vec)
    # stuck at the programmed value is undetectable
    assert find_test_vector(state, Fault("or", 0, 0, "connected")) is None
    # adding the A literal to the BC row: term becomes ABC, row 011 lost
    assert find_test_vector(state, Fault("and", 0, 0, "connected")) == "011"


def test_find_test_vector_reports_lowest_row():
    prof = PlaProfile(2, 1, 1)
    state = state_from_planes(prof, ((0, 0, 0, 0),), ((1,),), (0,))
    # killing the constant-1 term changes every row; lowest is 00
    assert find_test_vector(state, Fault("or", 0, 0, "disconnected")) == "00"


def _check_faults_against_exhaustive_difference(state):
    # oracle: the lowest row where the good and faulty images' full truth
    # tables differ, each built from scratch
    n = state.profile.n_inputs
    for bits in all_inputs(n):
        assert eval_pla(state, bits) == eval_pla_naive(state, bits)
    good = output_masks(state)
    faults, wants = enumerate_faults(state.profile), []
    for fault in faults:
        bad = output_masks(inject_fault(state, fault))
        diff = 0
        for g, b in zip(good, bad):
            diff |= g ^ b
        rows = [r for r in range(1 << n) if diff >> r & 1]
        wants.append(format(rows[0], f"0{n}b") if rows else None)
        assert find_test_vector(state, fault) == wants[-1], fault
    lines, detected = fault_sweep(state)
    assert len(lines) == len(faults) // 2
    assert "".join(lines) == "".join(
        f"{fault}: {want or 'undetectable'}\n" for fault, want in zip(faults, wants))
    assert detected == len(wants) - wants.count(None)


# (profile, AND rows, OR rows), one image for each way a fault's row is derived
HAND_IMAGES = (
    # term 1 (x2) feeds no output
    (PlaProfile(3, 2, 1), ((1, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0)), ((1, 0),)),
    # term 0 holds both literals of x0 and x1 besides: two disconnections, no kill
    (PlaProfile(3, 2, 2), ((1, 1, 1, 0, 0, 0), (0, 0, 0, 0, 1, 0)), ((1, 1), (1, 0))),
    # term 0 is empty, the constant-1 product
    (PlaProfile(2, 2, 1), ((0, 0, 0, 0), (1, 0, 0, 0)), ((1, 1),)),
    # two equal terms on one output: every kill is hidden by the other
    (PlaProfile(3, 2, 1), ((1, 0, 0, 1, 0, 0), (1, 0, 0, 1, 0, 0)), ((1, 1),)),
    # one input
    (PlaProfile(1, 2, 2), ((1, 0), (0, 1)), ((1, 0), (1, 1))),
)


def test_fault_sweep_matches_exhaustive_difference():
    for profile, and_plane, or_plane in HAND_IMAGES:
        _check_faults_against_exhaustive_difference(
            state_from_planes(profile, and_plane, or_plane, (0,) * profile.n_outputs))
    for tech in ("fuse", "antifuse"):
        _check_faults_against_exhaustive_difference(blank_device(PlaProfile(2, 3, 2, tech)))
    rng = seeded(43)
    for tech in ("fuse", "antifuse"):
        for xor in (False, True):
            for density in (0.1, 0.3, 0.6):
                for _ in range(4):
                    prof = PlaProfile(rng.randint(1, 5), rng.randint(1, 6),
                                      rng.randint(1, 3), tech, xor)
                    _check_faults_against_exhaustive_difference(
                        random_state(rng, prof, density))


def test_edited_image_evaluates_its_own_planes():
    # the views are cached on the image outside its fields: building them
    # all leaves it equal to a fresh image of the same words, and every
    # edit is a new image that builds its own
    rng = seeded(47)
    for _ in range(20):
        prof = random_profile(rng)
        prof = PlaProfile(prof.n_inputs, prof.n_terms, prof.n_outputs,
                          prof.switch_tech, has_output_xor=True)
        n, p = prof.n_inputs, prof.n_terms
        state = random_state(rng, prof)
        masks = output_masks(state)  # fill the parent's cache first
        eval_pla(state, "0" * n)
        sweep = fault_sweep(state)
        fresh = PlaState(prof, state.and_words, state.or_words, state.pol_word)
        assert state == fresh and hash(state) == hash(fresh)
        assert output_masks(fresh) == masks and fault_sweep(fresh) == sweep
        t, c, o = rng.randrange(p), rng.randrange(2 * n), rng.randrange(prof.n_outputs)
        edits = [set_polarity(state, 0, 1 - state.polarity[0]),
                 set_crosspoint(state, "and", t, c, 1 - state.and_plane[t][c]),
                 set_crosspoint(state, "or", o, t, 1 - state.or_plane[o][t]),
                 replace(state, and_words=state.and_words[1:] + state.and_words[:1]),
                 replace(state, or_words=state.or_words[::-1], pol_word=0)]
        for fault in rng.sample(enumerate_faults(prof), 4):
            edits.append(inject_fault(state, fault))
        for new in edits:
            fresh = state_from_planes(prof, new.and_plane, new.or_plane, new.polarity)
            assert new == fresh and hash(new) == hash(fresh)
            assert output_masks(new) == output_masks(fresh)
            assert fault_sweep(new) == fault_sweep(fresh)
            for bits in all_inputs(n):
                assert eval_pla(new, bits) == eval_pla_naive(new, bits)


def test_diagram_golden_majority():
    want = (
        "     A A' B B' C C' | M\n"
        "T0   . .  X .  X .  | X\n"
        "T1   X .  . .  X .  | X\n"
        "T2   X .  X .  . .  | X\n"
    )
    assert render_crosspoint_diagram(majority_device(), ["A", "B", "C"], ["M"]) == want


def test_diagram_golden_default_names_and_pol():
    state = state_from_planes(
        PlaProfile(2, 2, 1, has_output_xor=True),
        ((1, 0, 0, 1), (0, 0, 1, 0)),
        ((1, 0),),
        (1,),
    )
    want = (
        "     x0 x0' x1 x1' | f0\n"
        "T0   X  .   .  X   | X\n"
        "T1   .  .   X  .   | .\n"
        "POL                | 1\n"
    )
    assert render_crosspoint_diagram(state) == want


def test_diagram_name_count_validation():
    with pytest.raises(ValueError):
        render_crosspoint_diagram(majority_device(), ["A"], ["M"])
    with pytest.raises(ValueError):
        render_crosspoint_diagram(majority_device(), ["A", "B", "C"], [])
    # names a fuse map could not carry: a header that reads as four inputs,
    # two identical column pairs, a header split over two lines
    state = state_from_planes(PlaProfile(2, 1, 1), ((1, 0, 0, 1),), ((1,),), (0,))
    for names, outs, message in ((["A B", "C"], ["F"], "label 'A B' would not"),
                                 (["A", "A"], ["F"], "labels repeat a name: A A"),
                                 (["A", "B"], ["F\nG"], "label 'F\\nG' would not")):
        with pytest.raises(ValueError, match=re.escape(message)):
            render_crosspoint_diagram(state, names, outs)


def _diagram_names(kind, count, prefix, rng):
    if kind == "default":
        return None
    if kind == "long":
        return [f"{prefix}_{'w' * rng.randint(0, 12)}_{k}" for k in range(count)]
    return [f"{'äσ输'[k % 3]}{prefix}{k}" for k in range(count)]  # non-ASCII


def test_diagram_matches_the_naive_renderer():
    """Seeded images across the widths where a term label grows a digit,
    with and without the XOR, under default, long and non-ASCII names, and
    with planes all open and all connected."""
    rng = seeded(22)
    kinds = ("default", "long", "non-ascii")
    cases = [(n, p, m, xor) for n in (1, 2, 9, 24) for p in (1, 9, 10, 11, 99, 100, 101)
             for m in (1, 3, 17) for xor in (False, True)]
    for i, (n, p, m, xor) in enumerate(cases):
        # i % 12 walks every (xor, technology, fill) triple
        prof = PlaProfile(n, p, m, ("fuse", "antifuse")[i // 2 % 2], xor)
        if i % 3 == 0:
            state = random_state(rng, prof, rng.choice((0.1, 0.5, 0.9)))
        else:  # a blank image: all connected (fuse) or all open (antifuse)
            state = blank_device(prof)
            if xor:
                state = replace(state, pol_word=rng.getrandbits(m))
        names = (_diagram_names(kinds[i // 4 % 3], n, "in", rng),
                 _diagram_names(kinds[i // 12 % 3], m, "out", rng))
        got = render_crosspoint_diagram(state, *names)
        assert got == render_crosspoint_diagram_naive(state, *names), (n, p, m, xor)
