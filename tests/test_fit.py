import importlib

import pytest

from plakit import (
    CapacityError,
    Cover,
    FormatError,
    MultiOutputCover,
    PlaProfile,
    canonical_sop,
    compile_equations,
    cover_eval,
    emit_fusemap,
    eval_pla,
    fit,
    output_masks,
    pad_input_names,
    parse_equations,
    parse_expression,
    parse_fusemap,
    read_berkeley_pla,
    share_terms,
    table_from_expr,
    write_berkeley_pla,
)
from oracles import random_profile, random_state, seeded

fit_mod = importlib.import_module("plakit.fit")

MAJ_FUSEMAP = (
    "PLAFUSE 1\n"
    "TECH fuse XOR 0\n"
    "DIM 3 4 1\n"
    "ILB A B C\n"
    "OB M\n"
    "AND\n"
    "001010\n"
    "100010\n"
    "101000\n"
    "000000\n"
    "OR\n"
    "1110\n"
    "END\n"
)


def majority_mcover():
    t = table_from_expr(parse_expression("A'BC + AB'C + ABC' + ABC"), ("A", "B", "C"))
    return share_terms([("M", fit_mod.mn.minimize(t))])


def test_fit_majority_pinned():
    state, report = fit(majority_mcover(), PlaProfile(3, 4, 1))
    assert state.and_plane == (
        (0, 0, 1, 0, 1, 0),
        (1, 0, 0, 0, 1, 0),
        (1, 0, 1, 0, 0, 0),
        (0, 0, 0, 0, 0, 0),
    )
    assert state.or_plane == ((1, 1, 1, 0),)
    assert report.terms_used == 3 and report.terms_available == 4
    assert report.inputs_used == 3 and report.outputs_used == 1
    assert report.assignments == (("M", (0, 1, 2)),)
    assert report.shared_terms == ()
    assert report.input_names == ("A", "B", "C")
    assert report.output_names == ("M",)
    got = "".join(eval_pla(state, format(r, "03b")) for r in range(8))
    assert got == "00010111"


def test_fit_pads_unused_outputs():
    mc = MultiOutputCover(("A",), ("1",), (("f", (0,)),))
    state, report = fit(mc, PlaProfile(2, 2, 3))
    assert state.or_plane == ((1, 0), (0, 0), (0, 0))
    assert report.output_names == ("f", "f1", "f2")
    assert report.input_names == ("A", "x1")
    assert eval_pla(state, "10") == "100"
    assert eval_pla(state, "11") == "100"
    # padded input does not affect the function
    assert eval_pla(state, "10") == eval_pla(state, "11")


def test_fit_capacity_errors_exact():
    mc = majority_mcover()  # 3 inputs, 3 terms, 1 output
    with pytest.raises(CapacityError) as exc:
        fit(mc, PlaProfile(3, 2, 1))
    err = exc.value
    assert (err.axis, err.needed, err.available) == ("terms", 3, 2)
    assert str(err) == "design needs 3 terms but device provides 2"

    with pytest.raises(CapacityError) as exc:
        fit(mc, PlaProfile(2, 8, 1))
    assert exc.value.axis == "inputs"

    two_out = share_terms([("f", Cover(("A",), ("1",))), ("g", Cover(("A",), ("0",)))])
    with pytest.raises(CapacityError) as exc:
        fit(two_out, PlaProfile(1, 4, 1))
    assert (exc.value.axis, exc.value.needed, exc.value.available) == ("outputs", 2, 1)


def test_fit_checks_inputs_before_terms():
    mc = majority_mcover()
    with pytest.raises(CapacityError) as exc:
        fit(mc, PlaProfile(1, 1, 1))  # violates inputs, outputs ok, terms too small
    assert exc.value.axis == "inputs"


def test_fit_reports_shared_terms():
    order = ("A", "B", "C", "D")
    mc = share_terms(
        [
            ("F1", Cover(order, ("11--", "--1-"))),
            ("F2", Cover(order, ("11--", "---1"))),
        ]
    )
    state, report = fit(mc, PlaProfile(4, 4, 2))
    assert report.shared_terms == (0,)
    assert "shared: T0" in report.summary()
    assert state.or_plane == ((1, 1, 0, 0), (1, 0, 1, 0))


def test_pad_input_names():
    assert pad_input_names(("A", "B"), 4) == ("A", "B", "x2", "x3")
    assert pad_input_names(("x2", "B"), 3) == ("x2", "B", "_x2")
    assert pad_input_names(("A",), 1) == ("A",)


def test_emit_fusemap_golden():
    state, report = fit(majority_mcover(), PlaProfile(3, 4, 1))
    assert emit_fusemap(state, report.input_names, report.output_names) == MAJ_FUSEMAP


def test_emit_fusemap_name_validation():
    state, _ = fit(majority_mcover(), PlaProfile(3, 4, 1))
    with pytest.raises(ValueError):
        emit_fusemap(state, ("A",), None)
    with pytest.raises(ValueError):
        emit_fusemap(state, None, ("M", "N"))


def test_parse_fusemap_golden():
    fm = parse_fusemap(MAJ_FUSEMAP)
    assert fm.input_names == ("A", "B", "C")
    assert fm.output_names == ("M",)
    prof = fm.state.profile
    assert (prof.n_inputs, prof.n_terms, prof.n_outputs) == (3, 4, 1)
    assert prof.switch_tech == "fuse" and not prof.has_output_xor
    assert emit_fusemap(fm.state, fm.input_names, fm.output_names) == MAJ_FUSEMAP


def test_parse_fusemap_tolerates_crlf_and_blank_lines():
    messy = MAJ_FUSEMAP.replace("\n", "\r\n").replace("AND\r\n", "AND\r\n\r\n")
    fm = parse_fusemap(messy)
    assert emit_fusemap(fm.state, fm.input_names, fm.output_names) == MAJ_FUSEMAP


def test_parse_fusemap_optional_labels():
    bare = "PLAFUSE 1\nTECH antifuse XOR 0\nDIM 1 1 1\nAND\n10\nOR\n1\nEND\n"
    fm = parse_fusemap(bare)
    assert fm.input_names is None and fm.output_names is None
    assert fm.state.profile.switch_tech == "antifuse"
    assert eval_pla(fm.state, "1") == "1"


def test_parse_fusemap_polarity_section():
    text = (
        "PLAFUSE 1\nTECH fuse XOR 1\nDIM 1 1 2\n"
        "AND\n10\nOR\n1\n0\nPOL 01\nEND\n"
    )
    fm = parse_fusemap(text)
    assert fm.state.polarity == (0, 1)
    assert eval_pla(fm.state, "1") == "11"
    assert eval_pla(fm.state, "0") == "01"
    assert emit_fusemap(fm.state) == text


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda t: t.replace("PLAFUSE 1", "FUSEMAP 1"), "missing PLAFUSE"),
        (lambda t: t.replace("PLAFUSE 1", "PLAFUSE 2"), "unsupported fuse map version"),
        (lambda t: t.replace("TECH fuse XOR 0", "TECH fuse"), "malformed TECH"),
        (lambda t: t.replace("TECH fuse", "TECH eprom"), "unknown switch technology"),
        (lambda t: t.replace("XOR 0", "XOR 2"), "XOR flag"),
        (lambda t: t.replace("DIM 3 4 1", "DIM 3 4"), "malformed DIM"),
        (lambda t: t.replace("DIM 3 4 1", "DIM 3 x 1"), "non-numeric DIM"),
        (lambda t: t.replace("DIM 3 4 1", "DIM 3 0 1"), "positive"),
        (lambda t: t.replace("ILB A B C", "ILB A B"), "ILB lists 2"),
        (lambda t: t.replace("OB M", "OB M N"), "OB lists 2"),
        (lambda t: t.replace("ILB A B C", "ILB A A C"), "ILB repeats a name: A A C"),
        (
            lambda t: t.replace("DIM 3 4 1", "DIM 3 4 2").replace("OB M", "OB M M"),
            "OB repeats a name: M M",
        ),
        (lambda t: t.replace("AND\n", "XAND\n"), "expected AND"),
        (lambda t: t.replace("001010", "00101"), "AND row 0 has 5 columns"),
        (lambda t: t.replace("001010", "00102-"), "illegal characters"),
        # int(row, 2) would read these: the character check must come first
        (lambda t: t.replace("001010", "0_1010"), "AND row 0 has illegal characters"),
        (lambda t: t.replace("001010", "+01010"), "AND row 0 has illegal characters"),
        (lambda t: t.replace("1110\n", "1_10\n"), "OR row 0 has illegal characters"),
        (lambda t: t.replace("1110\n", "+110\n"), "OR row 0 has illegal characters"),
        (lambda t: t.replace("XOR 0", "XOR 1").replace("END", "POL +\nEND"),
         "POL has illegal characters"),
        (lambda t: t.replace("1110\n", "111\n"), "OR row 0 has 3"),
        (lambda t: t.replace("OR\n1110\nEND\n", "OR\n"), "truncated"),
        (lambda t: t.replace("END", "POL 0\nEND"), "without output XOR"),
        (lambda t: t + "junk\n", "content after END"),
        (lambda t: t.replace("END\n", ""), "truncated"),
    ],
)
def test_parse_fusemap_errors(mutate, message):
    with pytest.raises(FormatError, match=message):
        parse_fusemap(mutate(MAJ_FUSEMAP))


POL_FUSEMAP = "PLAFUSE 1\nTECH fuse XOR 1\nDIM 1 1 2\nAND\n10\nOR\n1\n0\nPOL 01\nEND\n"


@pytest.mark.parametrize("pol", ["+1", "-1", "_1", "0_"])
def test_parse_fusemap_pol_needs_bit_characters(pol):
    # int(pol, 2) would read the first two
    with pytest.raises(FormatError, match="POL has illegal characters"):
        parse_fusemap(POL_FUSEMAP.replace("POL 01", "POL " + pol))


def test_parse_fusemap_xor_requires_pol():
    text = "PLAFUSE 1\nTECH fuse XOR 1\nDIM 1 1 1\nAND\n10\nOR\n1\nEND\n"
    with pytest.raises(FormatError, match="no POL line"):
        parse_fusemap(text)


def test_fusemap_round_trip_random_devices():
    rng = seeded(43)
    for _ in range(50):
        prof = random_profile(rng)
        state = random_state(rng, prof)
        names = (
            tuple(f"in{j}" for j in range(prof.n_inputs)),
            tuple(f"out{o}" for o in range(prof.n_outputs)),
        )
        for ilb, ob in ((None, None), names):
            text = emit_fusemap(state, ilb, ob)
            fm = parse_fusemap(text)
            assert fm.state == state
            assert emit_fusemap(fm.state, fm.input_names, fm.output_names) == text


MAJ_PLA = ".i 3\n.o 1\n.p 4\n.ilb A B C\n.ob M\n011 1\n101 1\n110 1\n111 1\n.e\n"


def test_write_berkeley_pla_golden():
    t = table_from_expr(parse_expression("A'BC + AB'C + ABC' + ABC"), ("A", "B", "C"))
    mc = share_terms([("M", canonical_sop(t))])
    assert write_berkeley_pla(mc) == MAJ_PLA


def test_read_berkeley_pla_golden():
    mc = read_berkeley_pla(MAJ_PLA)
    assert mc.order == ("A", "B", "C")
    assert mc.term_pool == ("011", "101", "110", "111")
    assert mc.outputs == (("M", (0, 1, 2, 3)),)
    assert write_berkeley_pla(mc) == MAJ_PLA


def test_read_berkeley_defaults_and_comments():
    text = "# two-bit and\n.i 2\n.o 1\n11 1  # the only on-row\n.e\n"
    mc = read_berkeley_pla(text)
    assert mc.order == ("x0", "x1")
    assert mc.names == ("f0",)
    assert mc.term_pool == ("11",)


def test_read_berkeley_folds_duplicate_cubes():
    text = ".i 2\n.o 2\n1- 10\n1- 01\n01 01\n.e\n"
    mc = read_berkeley_pla(text)
    assert mc.term_pool == ("1-", "01")
    assert mc.outputs == (("f0", (0,)), ("f1", (0, 1)))


def test_read_berkeley_p_mismatch_warns_or_raises():
    text = ".i 1\n.o 1\n.p 3\n1 1\n.e\n"
    with pytest.warns(UserWarning, match="3 terms but 1"):
        mc = read_berkeley_pla(text)
    assert mc.term_pool == ("1",)
    with pytest.raises(FormatError, match="3 terms but 1"):
        read_berkeley_pla(text, strict=True)


def test_read_berkeley_ignores_content_after_e():
    text = ".i 1\n.o 1\n1 1\n.e\ngarbage here\n"
    assert read_berkeley_pla(text).term_pool == ("1",)


@pytest.mark.parametrize(
    "text, message",
    [
        ("1 1\n.e\n", "cube before"),
        (".i 1\n1 1\n.e\n", "cube before"),
        (".o 1\n.e\n", "missing .i/.o"),
        (".i 1\n.o 1\n.q 2\n.e\n", "unsupported directive"),
        (".i 1\n.o 1\n.type fd\n.e\n", "only '.type f'"),
        (".i 1\n.o 1\n11 1\n.e\n", "not 1 chars"),
        (".i 1\n.o 1\n1 -\n.e\n", "output don't-cares are not supported"),
        (".i 1\n.o 1\n1 1 1\n.e\n", "expected"),
        (".i x\n.o 1\n.e\n", "bad count"),
        (".i 1 2\n.o 1\n.e\n", "one numeric argument"),
        (".i 1\n.o 1\n.ilb a b\n1 1\n.e\n", ".ilb lists 2"),
        (".i 1\n.o 1\n.ob\n1 1\n.e\n", ".ob lists 0"),
        (".i 2\n.o 1\n.ilb a a\n11 1\n.e\n", "line 3: .ilb repeats a name: a a"),
        (".i 1\n.o 2\n.ob f f\n1 11\n.e\n", "line 3: .ob repeats a name: f f"),
        (".i 0\n.o 1\n.e\n", "line 1: .i must declare at least one"),
        (".i 2\n.o 0\n.e\n", "line 2: .o must declare at least one"),
        (".i 2\n.o 99999999\n", ".o 99999999 is more signals than the file describes"),
        (".i 99999999\n.o 1\n.e\n", ".i 99999999 is more signals"),
        (".i 25\n.o 1\n" + "1" * 25 + " 1\n.e\n",
         "line 1: .i 25 is more signals than the limit of 24"),
        (".i 1\n.o 1\n1 1\n.i 2\n.e\n", "line 4: .i 2 after rows read with .i 1"),
        (".i 1\n.o 1\n1 1\n.o 2\n.e\n", "line 4: .o 2 after rows read with .o 1"),
    ],
)
def test_read_berkeley_errors(text, message):
    with pytest.raises(FormatError, match=message):
        read_berkeley_pla(text)


def test_read_berkeley_accepts_redeclared_counts():
    # any count before the first row, and the same count after it
    text = ".i 2\n.o 3\n.i 1\n.o 1\n1 1\n.i 1\n.o 1\n0 1\n.e\n"
    assert read_berkeley_pla(text).term_pool == ("1", "0")


def test_berkeley_round_trip_preserves_semantics():
    rng = seeded(47)
    from plakit import TruthTable, minimize

    for _ in range(40):
        n = rng.randint(1, 4)
        order = tuple("ABCD"[:n])
        covers = []
        for k in range(rng.randint(1, 3)):
            covers.append((f"g{k}", minimize(TruthTable(order, rng.getrandbits(1 << n)))))
        mc = share_terms(covers)
        back = read_berkeley_pla(write_berkeley_pla(mc))
        assert back.order == mc.order and back.names == mc.names
        for name, _ in covers:
            assert back.cover_for(name).to_table() == mc.cover_for(name).to_table()
        # writing the reread cover is byte-stable
        assert write_berkeley_pla(back) == write_berkeley_pla(mc)


G4 = "A'B + AB'CD + BC' + ABD + B'C'D'"


def test_compile_preserves_written_terms():
    eqs = parse_equations(f"G = {G4}")
    state, report = compile_equations(eqs, PlaProfile(4, 8, 1))
    assert report.terms_used == 5  # one AND row per written product term
    assert state.and_plane[0] == (0, 1, 1, 0, 0, 0, 0, 0)  # A'B
    t = table_from_expr(parse_expression(G4), ("A", "B", "C", "D"))
    masks = output_masks(state)
    assert masks[0] == t.bits


def test_compile_minimize_shrinks_f():
    eqs = parse_equations("F = ABC + A'BC + AB'C'")
    state, report = compile_equations(eqs, PlaProfile(3, 4, 1))
    assert report.terms_used == 3
    state2, report2 = compile_equations(eqs, PlaProfile(3, 4, 1), minimize=True)
    assert report2.terms_used == 2
    assert output_masks(state) == output_masks(state2)


def test_compile_non_sop_falls_back_to_canonical():
    eqs = parse_equations("H = (A + B)C")
    state, report = compile_equations(eqs, PlaProfile(3, 4, 1))
    t = table_from_expr(parse_expression("(A + B)C"), ("A", "B", "C"))
    assert output_masks(state)[0] == t.bits
    assert report.terms_used == len(t.on_set())


def test_compile_capacity_exact_for_g4():
    eqs = parse_equations(f"G = {G4}")
    with pytest.raises(CapacityError) as exc:
        compile_equations(eqs, PlaProfile(4, 4, 1))
    assert (exc.value.axis, exc.value.needed, exc.value.available) == ("terms", 5, 4)


def test_compile_polarity_keeps_pin_function():
    eqs = parse_equations("G = AB + C'")
    prof = PlaProfile(3, 8, 1, has_output_xor=True)
    plain, _ = compile_equations(eqs, prof)
    flipped, _ = compile_equations(eqs, prof, polarity={"G": 1})
    assert flipped.polarity == (1,)
    assert output_masks(plain) == output_masks(flipped)
    # sequence form
    flipped2, _ = compile_equations(eqs, prof, polarity=[1])
    assert flipped2 == flipped
    # minimized complement still matches
    flipped3, _ = compile_equations(eqs, prof, polarity=[1], minimize=True)
    assert output_masks(flipped3) == output_masks(plain)


def test_compile_polarity_validation():
    eqs = parse_equations("G = A")
    with pytest.raises(ValueError, match="no output XOR"):
        compile_equations(eqs, PlaProfile(1, 2, 1), polarity=[1])
    prof = PlaProfile(1, 2, 1, has_output_xor=True)
    with pytest.raises(ValueError, match="not among outputs"):
        compile_equations(eqs, prof, polarity={"H": 1})
    with pytest.raises(ValueError, match="1 bits for"):
        compile_equations(
            parse_equations("G = A\nH = A'"),
            PlaProfile(1, 4, 2, has_output_xor=True),
            polarity=[1],
        )


def test_compile_order_handling():
    eqs = parse_equations("F = B")
    state, report = compile_equations(eqs, PlaProfile(3, 2, 1), order=("A", "B", "C"))
    assert report.input_names == ("A", "B", "C")
    assert eval_pla(state, "010") == "1"
    assert eval_pla(state, "101") == "0"
    with pytest.raises(ValueError, match="not in order"):
        compile_equations(eqs, PlaProfile(2, 2, 1), order=("A", "C"))


def test_compile_trivial_cases():
    with pytest.raises(ValueError, match="no equations"):
        compile_equations([], PlaProfile(1, 1, 1))
    state, report = compile_equations(
        parse_equations("Z = 0\nU = 1"), PlaProfile(2, 2, 2)
    )
    assert report.input_names[0] == "x0"
    assert eval_pla(state, "00") == "01"
    assert eval_pla(state, "11") == "01"


def test_compile_shares_terms_across_outputs():
    eqs = parse_equations("F1 = AB + C\nF2 = AB + D")
    state, report = compile_equations(eqs, PlaProfile(4, 4, 2))
    assert report.terms_used == 3
    assert report.shared_terms == (0,)
    f1 = table_from_expr(parse_expression("AB + C"), ("A", "B", "C", "D"))
    f2 = table_from_expr(parse_expression("AB + D"), ("A", "B", "C", "D"))
    assert output_masks(state) == (f1.bits, f2.bits)
