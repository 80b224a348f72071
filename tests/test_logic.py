import time

import pytest

from plakit import (
    And,
    Const,
    Cover,
    Not,
    Or,
    PlaProfile,
    TruthTable,
    Var,
    canonical_pos,
    canonical_sop,
    compile_equations,
    counterexample,
    cover_eval,
    cover_from_expr,
    cube_contains,
    equivalent,
    evaluate,
    format_expression,
    minterm_cube,
    parse_expression,
    table_from_expr,
    table_from_rows,
)
from plakit.logic import (
    MAX_VARS, _product_mask, check_cube, check_cubes, cube_mask, cube_string, cube_words,
    mask_rows,
)
from oracles import all_cubes, cube_of_words, cube_rows_naive, seeded

MAJORITY = "A'BC + AB'C + ABC' + ABC"
MAJORITY_COLUMN = [0, 0, 0, 1, 0, 1, 1, 1]  # rows 000..111
F_EQN = "ABC + A'BC + AB'C'"
G4_EQN = "A'B + AB'CD + BC' + ABD + B'C'D'"


def test_majority_table_matches_known_column():
    t = table_from_expr(parse_expression(MAJORITY), ("A", "B", "C"))
    assert [v for _, v in t.rows()] == MAJORITY_COLUMN


def test_row_decoding_is_big_endian():
    # row 6 = 110 means A=1, B=1, C=0
    t = table_from_expr(parse_expression("AB'"), ("A", "B", "C"))
    assert t.value(0b100) == 1
    assert t.value(0b101) == 1
    assert t.value(0b110) == 0
    rows = dict(t.rows())
    assert rows["100"] == 1 and rows["110"] == 0


def test_contradiction_gives_all_zero_table():
    t = table_from_expr(parse_expression("AA'"), ("A",))
    assert t.bits == 0


def test_table_from_expr_against_per_row_eval():
    rng = seeded(7)
    exprs = [MAJORITY, F_EQN, G4_EQN, "(A+B)(C+D)'", "A + B'C + 0", "(AB + CD)'"]
    for text in exprs:
        e = parse_expression(text)
        order = ("A", "B", "C", "D")
        t = table_from_expr(e, order)
        for bits, value in t.rows():
            env = {name: int(b) for name, b in zip(order, bits)}
            assert evaluate(e, env) == value, (text, bits)
    # and on random assignments of random tables
    for _ in range(50):
        bits = rng.getrandbits(8)
        t = TruthTable(("A", "B", "C"), bits)
        assert [v for _, v in t.rows()] == [(bits >> i) & 1 for i in range(8)]


def random_body(rng, names, depth):
    """Equation-body text: a sum of products of literals (now and then X X'),
    constants and groups, each factor marked with '!'s and "'"s at random,
    groups nested up to `depth` deep."""
    products = []
    for _ in range(rng.randint(1, 3)):
        factors = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.random()
            if kind < 0.15:
                factor = rng.choice("01")
            elif kind < 0.45 and depth:
                factor = f"({random_body(rng, names, depth - 1)})"
            elif kind < 0.55:
                name = rng.choice(names)
                factor = f"{name}*{name}'"
            else:
                factor = rng.choice(names)
            marks = rng.choice(("", "", "!", "!!")), rng.choice(("", "", "'", "''"))
            factors.append(marks[0] + factor + marks[1])
        products.append("*".join(factors))
    return " + ".join(products)


def _assert_table_is_evaluate(e, order):
    table = table_from_expr(e, order)
    for bits, value in table.rows():
        assert value == evaluate(e, dict(zip(order, map(int, bits)))), (e, bits)


def test_table_from_expr_is_the_interpreter_row_by_row():
    """The one evaluator of bodies, read from products, against expr.evaluate
    on seeded trees: parsed ones with constants, negated groups and X X'
    products, library-built ones holding Not(Not(x)), and groups nested to
    the parser's 100-paren limit."""
    from test_expr import random_expr

    rng = seeded(29)
    names = "ABCDE"
    for _ in range(150):
        order = tuple(rng.sample(names, rng.randint(3, 5)))
        _assert_table_is_evaluate(parse_expression(random_body(rng, order, 3)), order)
        _assert_table_is_evaluate(random_expr(rng, order, rng.randint(1, 6)), order)
    a, b = Var("A"), Var("B")
    for e in (Not(Not(a)), Not(Not(Or(a, Not(b)))), And(Not(Not(Const(1))), Or(a, b)),
              Or(Not(Const(1)), And(a, Not(Not(b))))):
        _assert_table_is_evaluate(e, ("A", "B"))
    for text in ("!(A + B" * 100 + ")" * 100, "(A'B + C" * 100 + ")" * 100,
                 "(" * 100 + "A" + ")'" * 100):
        _assert_table_is_evaluate(parse_expression(text), ("A", "B", "C"))


def test_table_guards():
    with pytest.raises(ValueError):
        table_from_expr(parse_expression("AB"), ("A",))  # missing B
    with pytest.raises(ValueError):
        TruthTable(tuple("abcdefghijklmnopqrstuvwxy"), 0)  # 25 > 24 variables
    with pytest.raises(ValueError):
        TruthTable(("A", "A"), 0)
    with pytest.raises(ValueError):
        table_from_rows(("A",), [0, 1, 1])
    with pytest.raises(ValueError, match="row 1: output must be 0 or 1, got 2"):
        table_from_rows(("A",), [0, 2])
    with pytest.raises(ValueError, match="variable order must not be empty"):
        TruthTable((), 0)
    for bits in (-1, 4):
        with pytest.raises(ValueError, match="table bits out of range"):
            TruthTable(("A",), bits)
    with pytest.raises(ValueError, match="row 2 out of range"):
        TruthTable(("A",), 1).value(2)
    with pytest.raises(ValueError, match="no variables; pass an explicit order"):
        table_from_expr(Const(1))
    assert table_from_expr(Const(1), ("A",)).bits == 0b11
    with pytest.raises(TypeError, match="not an Expr: 'AB'"):
        table_from_expr("AB", ("A", "B"))
    # a (name, value) pair is how a product holds a literal, not an Expr
    for read in (table_from_expr, cover_from_expr,
                 lambda e, order: compile_equations([("F", e)], PlaProfile(1, 2, 1), order=order)):
        with pytest.raises(TypeError, match=r"not an Expr: \('A', 1\)"):
            read(("A", 1), ("A",))


def test_table_from_expr_names_every_missing_variable():
    # the table walk stops at the first name outside the order; the message
    # still lists every missing name, sorted
    for text, order, names in (
        ("D + AB' + !C", ("A",), ["B", "C", "D"]),
        ("A + (B + D)'", ("A", "B"), ["D"]),  # under a Not
        ("A + (BCD)", ("A", "C"), ["B", "D"]),  # inside a parenthesized And
    ):
        with pytest.raises(ValueError) as info:
            table_from_expr(parse_expression(text), order)
        assert str(info.value) == f"order is missing variables: {names}"


def _wide_table(n):
    """A table over n variables whose rows differ from chunk to chunk."""
    order = tuple(f"x{j}" for j in range(n))
    text = " * ".join(order[:3]) + " + " + " * ".join(f"!{v}" for v in order[-4:])
    return table_from_expr(parse_expression(text, multi_letter=True), order)


def test_rows_at_twenty_variables_is_linear():
    t = _wide_table(20)
    start = time.perf_counter()
    ones = sum(value for _, value in t.rows())
    elapsed = time.perf_counter() - start
    assert elapsed < 3.0, f"took {elapsed:.2f}s, limit 3s"
    assert ones == t.bits.bit_count()
    rows = t.rows()
    assert [next(rows) for _ in range(2)] == [("0" * 20, 1), ("0" * 19 + "1", 0)]


def test_table_from_rows_at_twenty_variables_is_linear():
    t = _wide_table(20)
    outputs = [0] * (1 << 20)
    for row in t.on_set():
        outputs[row] = 1
    start = time.perf_counter()
    built = table_from_rows(t.order, outputs)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s, limit 1s"
    assert built == t
    assert table_from_rows(("A", "B"), [True, False, False, True]).bits == 0b1001
    with pytest.raises(ValueError, match="row 2: output must be 0 or 1, got 2"):
        table_from_rows(("A", "B"), [0, 1, 2, 1])


def test_complement_flips_every_row():
    t = table_from_expr(parse_expression(MAJORITY), ("A", "B", "C"))
    c = t.complement()
    assert [v for _, v in c.rows()] == [1 - v for v in MAJORITY_COLUMN]
    assert c.complement() == t


def test_canonical_sop_of_majority():
    t = table_from_expr(parse_expression(MAJORITY), ("A", "B", "C"))
    cover = canonical_sop(t)
    assert cover.cubes == ("011", "101", "110", "111")
    assert format_expression(cover.to_expr()) == "A'BC + AB'C + ABC' + ABC"


def test_canonical_sop_edge_tables():
    zero = TruthTable(("A", "B"), 0b0000)
    assert canonical_sop(zero).cubes == ()
    ones = TruthTable(("A", "B"), 0b1111)
    assert canonical_sop(ones).cubes == ("00", "01", "10", "11")


def test_canonical_pos_single_zero_row():
    t = table_from_rows(("A", "B", "C"), [0, 1, 1, 1, 1, 1, 1, 1])
    e = canonical_pos(t)
    assert format_expression(e) == "A + B + C"


def test_canonical_pos_of_g3():
    # G is 0 exactly on rows 000, 011, 100
    t = table_from_rows(("A", "B", "C"), [0, 1, 1, 0, 0, 1, 1, 1])
    e = canonical_pos(t)
    reference = parse_expression("(A+B+C)·(A'+B+C)·(A+B'+C')")
    assert equivalent(e, reference)
    assert equivalent(table_from_expr(e, t.order), t)
    assert len(e.children) == 3


def test_canonical_pos_constants():
    assert canonical_pos(TruthTable(("A",), 0b11)) == Const(1)
    assert canonical_pos(TruthTable(("A",), 0b00)) == Const(0)


def test_pos_sop_duality():
    # canonical_pos(t) == NOT(canonical_sop(complement(t))) by De Morgan
    rng = seeded(11)
    order = ("A", "B", "C", "D")
    for _ in range(40):
        t = TruthTable(order, rng.getrandbits(16))
        pos = canonical_pos(t)
        dual = Not(canonical_sop(t.complement()).to_expr())
        assert equivalent(table_from_expr(pos, order), table_from_expr(dual, order))


def test_cube_mask_against_oracle():
    for n in range(1, 5):
        for cube in all_cubes(n):
            mask = cube_mask(cube)
            assert [i for i in range(1 << n) if mask >> i & 1] == cube_rows_naive(cube)


def test_product_mask_against_oracle():
    # random literal words, with contradictory pairs (a variable required at
    # both 1 and 0) and the all-free word among them
    rng = seeded(37)
    for n in range(1, 13):
        pairs = [(0, 0)]
        for _ in range(15):
            req1, req0 = rng.getrandbits(n), rng.getrandbits(n)
            pairs += [(req1, req0), (req1, req0 & ~req1)]
        for req1, req0 in pairs:
            if req1 & req0:
                want = 0
            else:
                cube = "".join("1" if req1 >> k & 1 else "0" if req0 >> k & 1 else "-"
                               for k in range(n - 1, -1, -1))
                want = sum(1 << r for r in cube_rows_naive(cube))
            assert _product_mask(n, req1, req0) == want


def test_mask_rows_lists_set_bits():
    rng = seeded(41)
    assert mask_rows(0) == []
    for n in range(1, 12):
        bits = rng.getrandbits(1 << n)
        assert mask_rows(bits) == [r for r in range(1 << n) if bits >> r & 1]


def test_cube_words_round_trip():
    for n in range(1, 5):
        for cube in all_cubes(n):
            req1, req0 = cube_words(cube)
            assert not req1 & req0
            assert cube_string(n, req1, req0) == cube


def test_cube_string_matches_the_per_variable_oracle():
    for n in range(1, 7):
        for cube in all_cubes(n):
            req1, req0 = cube_words(cube)
            assert cube_string(n, req1, req0) == cube_of_words(n, req1, req0) == cube
    rng = seeded(61)
    for n in range(1, MAX_VARS + 1):
        full = (1 << n) - 1
        pairs = [(0, 0), (full, 0), (0, full), (full, full)]  # contradictions too
        pairs += [(rng.getrandbits(n), rng.getrandbits(n)) for _ in range(40)]
        for req1, req0 in pairs:
            assert cube_string(n, req1, req0) == cube_of_words(n, req1, req0)


def _first_cube_error(cubes, n):
    for cube in cubes:
        try:
            check_cube(cube, n)
        except ValueError as exc:
            return str(exc)
    return None


@pytest.mark.parametrize("bad", ["10", "1-01", "1x0", "1 0", "1_0", "", "10-\n"])
@pytest.mark.parametrize("where", [0, 2, 4])
def test_check_cubes_names_the_first_bad_cube_as_check_cube_does(bad, where):
    cubes = ["1-0", "011", "---", "100", "0-1"]
    cubes[where] = bad
    cubes.append("1y0")  # a later bad cube is never the one reported
    with pytest.raises(ValueError) as info:
        check_cubes(cubes, 3)
    assert str(info.value) == _first_cube_error(cubes, 3)
    with pytest.raises(ValueError) as info:
        Cover(("A", "B", "C"), cubes)
    assert str(info.value) == _first_cube_error(cubes, 3)


def test_check_cubes_passes_good_lists():
    assert check_cubes([], 3) == ()
    assert check_cubes(iter(["1-0", "011"]), 3) == ("1-0", "011")
    for n in (1, 5, MAX_VARS):
        cubes = tuple(all_cubes(n)) if n < 6 else ("-" * n, "1" * n, "0" * n)
        assert check_cubes(cubes, n) == cubes


def test_cover_to_table_mixes_minterms_and_wide_cubes():
    rng = seeded(71)
    for n in range(1, 10):
        order = tuple(f"x{j}" for j in range(n))
        for _ in range(8):
            cubes = [
                "".join(rng.choice("01-" if wide else "01") for _ in range(n))
                for wide in (rng.random() < 0.4 for _ in range(rng.randrange(12)))
            ]
            want = sum(1 << r for r in {r for c in cubes for r in cube_rows_naive(c)})
            assert Cover(order, cubes).to_table().bits == want


def test_cube_contains():
    assert cube_contains("0-1", "001")
    assert cube_contains("0-1", "011")
    assert not cube_contains("0-1", "100")
    assert cube_contains("---", "101")


def test_minterm_cube():
    assert minterm_cube(5, 3) == "101"
    assert minterm_cube(0, 4) == "0000"
    with pytest.raises(ValueError):
        minterm_cube(8, 3)


def test_cover_eval():
    order = ("A", "B")
    assert cover_eval(Cover(order, ()), "01") == 0  # empty cover is constant 0
    ab = Cover(order, ("10",))
    assert cover_eval(ab, "10") == 1
    assert cover_eval(ab, "11") == 0
    assert cover_eval(ab, [1, 0]) == 1
    with pytest.raises(ValueError):
        cover_eval(ab, "1")


def test_cover_from_expr_g4_five_terms():
    e = parse_expression(G4_EQN)
    cover = cover_from_expr(e, ("A", "B", "C", "D"))
    assert cover.cubes == ("01--", "1011", "-10-", "11-1", "-000")
    # spot checks: 0100 fires A'B, 1011 fires AB'CD
    assert cover_eval(cover, "0100") == 1
    assert cover_eval(cover, "1011") == 1
    # and the full on-set
    assert cover.to_table().on_set() == [0, 4, 5, 6, 7, 8, 11, 12, 13, 15]


def test_cover_from_expr_special_terms():
    order = ("A", "B")
    # repeated literal collapses; contradiction drops the term
    assert cover_from_expr(parse_expression("AA"), order).cubes == ("1-",)
    assert cover_from_expr(parse_expression("AA' + B"), order).cubes == ("-1",)
    assert cover_from_expr(Const(1), order).cubes == ("--",)
    assert cover_from_expr(Const(0), order).cubes == ()
    assert cover_from_expr(parse_expression("A*1 + B*0"), order).cubes == ("1-",)


def test_cover_from_expr_rejects_non_sop():
    with pytest.raises(ValueError):
        cover_from_expr(parse_expression("(A+B)C"), ("A", "B", "C"))
    with pytest.raises(ValueError):
        cover_from_expr(parse_expression("(AB)'"), ("A", "B"))
    with pytest.raises(ValueError):
        cover_from_expr(parse_expression("AB"), ("A",))


def test_canonical_sop_round_trips_random_tables():
    rng = seeded(13)
    for n in (1, 2, 3, 4, 5, 6):
        order = tuple("ABCDEF"[:n])
        for _ in range(10):
            t = TruthTable(order, rng.getrandbits(1 << n))
            cover = canonical_sop(t)
            assert cover.to_table() == t
            pos = canonical_pos(t)
            assert equivalent(table_from_expr(pos, order), t)


def test_equivalent_and_counterexample():
    f = parse_expression(F_EQN)
    t = table_from_expr(f, ("A", "B", "C"))
    assert equivalent(f, canonical_sop(t))
    assert equivalent(parse_expression(MAJORITY), parse_expression("AB + AC + BC"))
    assert not equivalent(parse_expression("A"), parse_expression("A'"))
    assert counterexample(parse_expression("A"), parse_expression("A'")) == "0"
    # lowest differing row: x XOR at row 2 (binary 10)
    a = TruthTable(("A", "B"), 0b0100)
    b = TruthTable(("A", "B"), 0b1100)
    assert counterexample(a, b) == "11"
    assert counterexample(a, a) is None


def test_equivalent_order_mismatch():
    a = TruthTable(("A", "B"), 0)
    b = TruthTable(("B", "A"), 0)
    with pytest.raises(ValueError, match="orders differ"):
        equivalent(a, b)
    with pytest.raises(TypeError, match="expected TruthTable, Cover, or Expr, got 'AB'"):
        counterexample(a, "AB")


def test_cover_to_expr_of_constant_covers():
    order = ("A", "B")
    assert Cover(order, ()).to_expr() == Const(0)
    assert Cover(order, ("--",)).to_expr() == Const(1)
    assert Cover(order, ("1-", "--")).to_expr() == Or(Var("A"), Const(1))


def test_cover_validation():
    with pytest.raises(ValueError):
        Cover(("A", "B"), ("1",))  # wrong width
    with pytest.raises(ValueError):
        Cover(("A",), ("2",))  # bad character
    # duplicates are allowed as input
    c = Cover(("A",), ("1", "1"))
    assert len(c) == 2
