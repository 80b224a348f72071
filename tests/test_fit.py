import importlib
import time

import pytest

from plakit import (
    CapacityError,
    Cover,
    FormatError,
    MultiOutputCover,
    PlaProfile,
    PlaState,
    canonical_sop,
    compile_equations,
    cover_eval,
    cover_from_expr,
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
from plakit.logic import cube_string, cube_words
from oracles import (
    all_cubes, and_row_naive, pooled_naive, random_profile, random_state, seeded,
    state_from_planes, write_berkeley_pla_per_term,
)

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


def test_emit_fusemap_refuses_labels_its_reader_would_change():
    state, _ = fit(majority_mcover(), PlaProfile(3, 4, 1))
    labels = ("A", "B#", "C")  # the fuse-map reader keeps '#'
    assert parse_fusemap(emit_fusemap(state, labels, ("M",))).input_names == labels
    state, report = compile_equations(
        parse_equations("F = A B"), PlaProfile(3, 2, 1), order=("A", "B", "my var")
    )
    for names in (report.input_names, ("A", "B", ""), ("A", "B", "C\tD")):
        with pytest.raises(ValueError, match="would not read back"):
            emit_fusemap(state, names, report.output_names)
    with pytest.raises(ValueError, match="'F G'"):
        emit_fusemap(state, ("A", "B", "C"), ("F G",))
    # the reader refuses a repeated ILB name, so the writer does too
    with pytest.raises(ValueError, match="labels repeat a name: A B A"):
        emit_fusemap(state, ("A", "B", "A"), ("F",))


def test_emit_fusemap_and_rows_match_the_per_column_oracle():
    rng = seeded(79)
    for n in range(1, 25):
        full = (1 << n) - 1
        # the all-free pair, every literal true, every literal complemented,
        # contradictory pairs, and a repeated row
        pairs = [(0, 0), (full, 0), (0, full), (full, full), (full, 0)]
        pairs += [(rng.getrandbits(n), rng.getrandbits(n)) for _ in range(20)]
        state = PlaState(PlaProfile(n, len(pairs), 1), pairs, [1])
        lines = emit_fusemap(state).splitlines()
        rows = lines[lines.index("AND") + 1 : lines.index("OR")]
        assert rows == [and_row_naive(n, req1, req0) for req1, req0 in pairs]
        assert parse_fusemap("\n".join(lines)).state == state


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


def test_fusemap_round_trip_with_repeated_rows():
    # a fitted part's unused rows repeat one padding row; here a few
    # distinct rows each recur many times, in random order
    rng = seeded(47)
    for _ in range(40):
        prof = random_profile(rng, max_inputs=8, max_terms=96, max_outputs=4)
        rows = random_state(rng, PlaProfile(prof.n_inputs, rng.randint(1, 4), 1)).and_plane
        and_plane = [rng.choice(rows) for _ in range(prof.n_terms)]
        state = random_state(rng, prof)
        state = state_from_planes(prof, and_plane, state.or_plane, state.polarity)
        assert len(set(state.and_words)) <= 4
        assert parse_fusemap(emit_fusemap(state)).state == state


_FUSE_HEAD = "PLAFUSE 1\nTECH fuse XOR 0\nDIM 2 64 2\nAND\n"
_FUSE_OR = "OR\n" + "1" * 64 + "\n" + "0" * 64 + "\nEND\n"


@pytest.mark.parametrize("text, message", [
    # a bad row wins over the truncation after it
    (_FUSE_HEAD + "1000\n" * 3 + "10x0\n" + "1000\n" * 2,
     "AND row 3 has illegal characters ['x']"),
    # a short plane reads the OR keyword as its next row
    (_FUSE_HEAD + "1000\n" * 5 + _FUSE_OR, "AND row 5 has 2 columns, expected 4"),
    (_FUSE_HEAD + "1000\n" * 60 + "0000\n" * 2 + "00 0\n" + "0000\n" + _FUSE_OR,
     "AND row 62 has illegal characters [' ']"),
    (_FUSE_HEAD + "1000\n" * 60 + "0000\n" * 2 + "0020\n" + "0000\n" + _FUSE_OR,
     "AND row 62 has illegal characters ['2']"),
    (_FUSE_HEAD + "1000\n" * 61 + "000\n" + "0000\n" * 2 + _FUSE_OR,
     "AND row 61 has 3 columns, expected 4"),
    (_FUSE_HEAD + "1000\n" * 64, "truncated fuse map: expected OR"),
    (_FUSE_HEAD + "1000\n" * 64 + "OR\n" + "1" * 64 + "\n",
     "truncated fuse map: expected OR row 1"),
    (_FUSE_HEAD + "1000\n" * 64 + "OR\n" + "1" * 63 + "\n",
     "OR row 0 has 63 columns, expected 64"),
])
def test_parse_fusemap_names_the_first_fault_of_a_plane(text, message):
    with pytest.raises(FormatError) as exc:
        parse_fusemap(text)
    assert str(exc.value) == message


MAJ_PLA =".i 3\n.o 1\n.p 4\n.ilb A B C\n.ob M\n011 1\n101 1\n110 1\n111 1\n.e\n"


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
    # a header-only file at the widest .i reads as a constant-0 cover
    mc = read_berkeley_pla(".i 24\n.o 1\n.e\n")
    assert mc.order == tuple(f"x{j}" for j in range(24))
    assert mc.term_pool == () and mc.outputs == (("f0", ()),)


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


def test_read_berkeley_refuses_a_file_cut_short_between_rows():
    """An interrupted write leaves fewer cube lines than .p and no .e: every
    prefix of a synthesized .pla that ends after its .p line and before its
    last row is refused, strict or not; the prefix holding every row reads
    as the whole cover."""
    text = ".i 2\n.o 1\n.p 3\n11 1\n01 1\n"
    with pytest.raises(FormatError, match="3 terms but 2 cube lines present and no .e"):
        read_berkeley_pla(text)
    pla = write_berkeley_pla(share_terms([
        ("F", cover_from_expr(parse_expression("AB + A'C + BC'D"), "ABCD")),
        ("G", cover_from_expr(parse_expression("A'C + B'D'"), "ABCD"))]))
    lines = pla.splitlines(keepends=True)
    start, last = lines.index(".p 4\n") + 1, lines.index(".e\n") - 1
    for cut in range(start, last):
        for strict in (False, True):
            with pytest.raises(FormatError, match="cut short"):
                read_berkeley_pla("".join(lines[:cut]), strict=strict)
    whole = read_berkeley_pla("".join(lines[:last + 1]), strict=True)
    assert whole == read_berkeley_pla(pla, strict=True)
    # with its .e (or .end) a short file only warns, as before
    for end in (".e\n", ".end\n"):
        with pytest.warns(UserWarning, match="4 terms but 1"):
            read_berkeley_pla("".join(lines[:start + 3]) + end)


def test_minimized_compile_refuses_as_before():
    """One prime walk serves every output; the width check comes once,
    before any table is built, with the message each output's own minimizer
    call gave, and a name outside the order still wins over it."""
    names = [chr(ord("a") + j) for j in range(17)]
    wide = " ".join(names)
    profile = PlaProfile(17, 64, 3)
    for text, err in ((f"F = {wide}\nG = a b' + q\n",
                       "17 variables exceeds the minimizer limit of 16"),
                      (f"F = {wide}\nG = a z\n",
                       "equation 'G' uses variables not in order: ['z']")):
        with pytest.raises(ValueError) as exc:
            compile_equations(parse_equations(text), profile, minimize=True, order=names)
        assert str(exc.value) == err
    with pytest.raises(ValueError) as exc:
        compile_equations(parse_equations("F = a b + c\nG = a z + b\n"),
                          PlaProfile(3, 8, 2), minimize=True, order="abc")
    assert str(exc.value) == "equation 'G' uses variables not in order: ['z']"


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
        # the first bad row is named, whatever comes after it
        (".i 2\n.o 1\n11 1\n1x 1\n.e\n", "line 4: input cube '1x' is not 2 chars of 0/1/-"),
        (".i 2\n.o 1\n11 1\n1_ 1\n.e\n", "line 4: input cube '1_' is not 2 chars"),
        (".i 2\n.o 1\n11 1\n1-1 1\n.e\n", "line 4: input cube '1-1' is not 2 chars"),
        (".i 2\n.o 1\n11 1\n1- 2\n1x 1\n.e\n", "line 4: outputs '2' is not 1 chars of 0/1"),
        (".i 2\n.o 1\n11 1\n1- 11\n.e\n", "line 4: outputs '11' is not 1 chars"),
        (".i 2\n.o 1\n1 -\n.e\n", "line 3: input cube '1' is not 2 chars"),  # cube first
        (".i 2\n.o 1\n11 1\n1x 1\n.q\n.e\n", "line 4: input cube '1x'"),
        (".i 2\n.o 1\n11 1\n.q\n1x 1\n.e\n", "line 4: unsupported directive '.q'"),
    ],
)
def test_read_berkeley_errors(text, message):
    with pytest.raises(FormatError, match=message):
        read_berkeley_pla(text)


def test_large_minterm_pla_reads_tables_and_emits_in_bounded_time():
    # 16 inputs, two outputs, about 49k on-set minterm rows
    rng = seeded(83)
    outs = [rng.getrandbits(2) for _ in range(1 << 16)]
    text = ".i 16\n.o 2\n" + "".join(
        f"{row:016b} {bits:02b}\n" for row, bits in enumerate(outs) if bits) + ".e\n"
    start = time.perf_counter()
    mc = read_berkeley_pla(text)
    tables = [mc.cover_for(name).to_table() for name in mc.names]
    state, report = fit(mc, PlaProfile(16, len(mc.term_pool), 2))
    fuse = emit_fusemap(state, report.input_names, report.output_names)
    elapsed = time.perf_counter() - start
    assert len(mc.term_pool) == sum(1 for bits in outs if bits) > 48000
    for o, table in enumerate(tables):  # row 0 is the last digit
        assert table.bits == int("".join(str(bits >> (1 - o) & 1) for bits in outs[::-1]), 2)
    assert fuse.count("\n") == len(mc.term_pool) + 10
    assert elapsed < 2.0, f"{elapsed:.2f} s"


def test_pla_round_trip_of_a_large_pool_runs_in_linear_time():
    # the same ~49k minterm rows as above, pooled from covers, written,
    # read back and fitted: a conversion quadratic in the pool fails this
    rng = seeded(83)
    outs = [rng.getrandbits(2) for _ in range(1 << 16)]
    order = tuple(f"x{j}" for j in range(16))
    covers = [(f"f{o}", Cover(order, tuple(f"{row:016b}" for row, bits in enumerate(outs)
                                           if bits >> (1 - o) & 1))) for o in range(2)]
    start = time.perf_counter()
    mc = share_terms(covers)
    text = write_berkeley_pla(mc)
    back = read_berkeley_pla(text)
    state, report = fit(back, PlaProfile(16, len(back.term_pool), 2))
    elapsed = time.perf_counter() - start
    assert back.term_pool == mc.term_pool  # each output's terms come back in pool order
    assert [sorted(sel) for _, sel in back.outputs] == [sorted(sel) for _, sel in mc.outputs]
    assert len(mc.term_pool) == sum(1 for bits in outs if bits) > 48000
    assert report.terms_used == len(mc.term_pool) and text.count("\n") == len(mc.term_pool) + 6
    assert state.and_words[-1] == cube_words(mc.term_pool[-1])
    assert elapsed < 2.0, f"{elapsed:.2f} s"


def test_every_pool_builder_matches_the_naive_pool():
    # pooled (.pla rows), share_terms (covers) and _fit_words (words) pool
    # alike, and the writer's columns match a term-by-term writer
    rng = seeded(211)
    for _ in range(400):
        n, m = rng.randint(1, 5), rng.randint(1, 4)
        order, names = tuple(f"v{j}" for j in range(n)), tuple(f"f{o}" for o in range(m))
        cubes = rng.sample(all_cubes(n), min(3 ** n, rng.randint(1, 6)))  # few: they repeat
        covers = [(name, Cover(order, tuple(rng.choice(cubes) for _ in range(
            rng.choice((0, 1, 3, 6)))))) for name in names]  # some outputs have no terms
        hot = [(cube, "".join("01"[p == o] for p in range(m)))
               for o, (_, cover) in enumerate(covers) for cube in cover.cubes]
        shared = share_terms(covers)
        assert shared == pooled_naive(order, names, hot)
        rows = hot + [(rng.choice(cubes), rng.choice(("0" * m, "".join(
            rng.choice("001") for _ in range(m))))) for _ in range(rng.randint(0, 4))]
        rng.shuffle(rows)  # all-zero rows and rows feeding several outputs, anywhere
        mc = MultiOutputCover.pooled(order, names, rows)
        assert mc == pooled_naive(order, names, rows), rows
        state, report = fit_mod._fit_words(
            names, order, [list(map(cube_words, cover.cubes)) for _, cover in covers],
            PlaProfile(n, max(1, len(shared.term_pool)), m))
        pool = state.and_words[:len(shared.term_pool)]
        assert tuple(cube_string(n, *w) for w in pool) == shared.term_pool
        assert report.assignments == shared.outputs
        for cover in (shared, mc):
            assert write_berkeley_pla(cover) == write_berkeley_pla_per_term(cover)


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


def test_write_berkeley_pla_refuses_labels_its_reader_would_change():
    mc = share_terms([("F_1", Cover(("A", "B_2"), ("1-",)))])
    assert read_berkeley_pla(write_berkeley_pla(mc)).names == ("F_1",)
    for order, name in ((("A", "B#"), "F"), (("A", "B"), "F#1"), (("A", "B"), "F 1"),
                        (("A", ""), "F")):
        mc = share_terms([(name, Cover(order, ("1-",)))])
        with pytest.raises(ValueError, match="would not read back"):
            write_berkeley_pla(mc)


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


def _random_equation(rng, names):
    """An SOP equation, some of its products minterms, or an AND of two
    sums, which compiles through its table."""
    def product():
        return "".join(v + rng.choice(("", "'")) for v in names if rng.random() < 0.6) or "1"

    def sop():
        return " + ".join(product() for _ in range(rng.randint(1, 3)))

    return sop() if rng.random() < 0.5 else f"({sop()})({sop()})"


def _pool_size(equations, order, pol):
    """The pool the compile path builds, counted from its cube strings."""
    covers = []
    for (name, e), p in zip(equations, pol):
        if p:
            cover = canonical_sop(table_from_expr(e, order).complement())
        else:
            try:
                cover = cover_from_expr(e, order)
            except ValueError:
                cover = canonical_sop(table_from_expr(e, order))
        covers.append((name, cover))
    return len(share_terms(covers).term_pool)


def test_compile_counts_the_pool_before_writing_minterm_cubes(monkeypatch):
    rng = seeded(131)
    order = ("A", "B", "C", "D")

    def no_pool(*_):
        raise AssertionError("the pool was built")

    for _ in range(60):
        m = rng.randint(1, 3)
        text = "".join(f"F{o} = {_random_equation(rng, order)}\n" for o in range(m))
        eqs = parse_equations(text)
        pol = [rng.randint(0, 1) for _ in range(m)]
        needed = _pool_size(eqs, order, pol)
        prof = PlaProfile(4, max(1, needed), m, has_output_xor=True)
        _, report = compile_equations(eqs, prof, polarity=pol, order=order)
        assert report.terms_used == needed, text
        if needed >= 2:
            with monkeypatch.context() as patch:
                patch.setattr(fit_mod.mn, "share_terms", no_pool)
                # no table row is listed as a minterm word before the refusal
                patch.setattr(fit_mod.logic, "mask_rows", lambda m: no_pool() if m else [])
                with pytest.raises(CapacityError) as exc:
                    compile_equations(eqs, PlaProfile(4, needed - 1, m, has_output_xor=True),
                                      polarity=pol, order=order)
            assert (exc.value.axis, exc.value.needed) == ("terms", needed), text


def test_compile_refuses_a_wide_minterm_design_in_bounded_time():
    order = [f"v{j}" for j in range(20)]
    eqs = parse_equations("F = (v0 + v1) * (v2 + v3)\n", multi_letter=True)
    for polarity in (None, [1]):
        prof = PlaProfile(20, 64, 1, has_output_xor=polarity is not None)
        start = time.perf_counter()
        with pytest.raises(CapacityError) as exc:
            compile_equations(eqs, prof, polarity=polarity, order=order)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.5, f"took {elapsed:.2f}s, limit 0.5s"
        needed = 9 << 16 if polarity is None else 7 << 16  # 9 or 7 of each 16 rows
        assert (exc.value.axis, exc.value.needed, exc.value.available) == ("terms", needed, 64)
    # inputs and outputs are checked before terms, as fit checks them
    with pytest.raises(CapacityError, match="needs 20 inputs but device provides 19"):
        compile_equations(eqs, PlaProfile(19, 64, 1), order=order)
