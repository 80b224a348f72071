from itertools import product

import pytest

from plakit import (
    And,
    Const,
    FormatError,
    Not,
    Or,
    ParseError,
    Var,
    evaluate,
    format_expression,
    parse_equations,
    parse_expression,
    variables,
)


def assign(names, bits):
    return dict(zip(names, bits))


def test_parse_f_equation():
    e = parse_expression("ABC + A'BC + AB'C'")
    assert isinstance(e, Or)
    assert len(e.children) == 3
    first = e.children[0]
    assert first == And(Var("A"), Var("B"), Var("C"))
    second = e.children[1]
    assert second == And(Not(Var("A")), Var("B"), Var("C"))
    third = e.children[2]
    assert third == And(Var("A"), Not(Var("B")), Not(Var("C")))


def test_parse_pos_product_of_sums():
    e = parse_expression("(A+B+C)(A'+B+C)(A+B'+C')")
    assert isinstance(e, And)
    assert len(e.children) == 3
    assert all(isinstance(c, Or) for c in e.children)
    assert e.children[1].children[0] == Not(Var("A"))


def test_double_negation_removed_at_parse():
    assert parse_expression("A''") == Var("A")
    assert parse_expression("A'''") == Not(Var("A"))
    assert parse_expression("!!B") == Var("B")
    assert parse_expression("!(A')") == Var("A")


def test_not_binds_to_preceding_group():
    e = parse_expression("(A + B)'")
    assert e == Not(Or(Var("A"), Var("B")))
    # apostrophe applies to B only, not the product
    e = parse_expression("AB'")
    assert e == And(Var("A"), Not(Var("B")))


def test_and_synonyms():
    for text in ("A*B", "A.B", "A·B", "AB", "A B"):
        assert parse_expression(text) == And(Var("A"), Var("B")), text


def test_precedence_not_and_or():
    a = parse_expression("A + BC")
    b = parse_expression("A + (B·C)")
    for bits in product([0, 1], repeat=3):
        env = assign("ABC", bits)
        assert evaluate(a, env) == evaluate(b, env)
    # NOT binds tighter than AND: AB' is A AND (B')
    e = parse_expression("AB'")
    assert evaluate(e, {"A": 1, "B": 0}) == 1
    assert evaluate(e, {"A": 1, "B": 1}) == 0


def test_de_morgan_by_evaluation():
    a = parse_expression("(AB)'")
    b = parse_expression("A' + B'")
    for bits in product([0, 1], repeat=2):
        env = assign("AB", bits)
        assert evaluate(a, env) == evaluate(b, env)


def test_constants():
    assert parse_expression("1") == Const(1)
    assert parse_expression("A + 0") == Or(Var("A"), Const(0))
    assert evaluate(parse_expression("A*1"), {"A": 0}) == 0
    assert evaluate(parse_expression("A + 1"), {"A": 0}) == 1


def test_constant_adjacent_to_letter_rejected():
    with pytest.raises(ParseError):
        parse_expression("A1")
    with pytest.raises(ParseError):
        parse_expression("1A")


def test_multi_letter_mode():
    e = parse_expression("foo*bar' + baz", multi_letter=True)
    assert e == Or(And(Var("foo"), Not(Var("bar"))), Var("baz"))
    # juxtaposition is ambiguous with long names, so it is an error
    with pytest.raises(ParseError):
        parse_expression("foo bar", multi_letter=True)
    # and A1 is a name, not a syntax error
    assert parse_expression("A1", multi_letter=True) == Var("A1")


def test_eval_basic_gates():
    assert evaluate(And(Const(0), Const(1)), {}) == 0
    assert evaluate(Or(Const(0), Const(1)), {}) == 1
    assert evaluate(Not(Const(1)), {}) == 0


def test_eval_majority_row_110():
    e = parse_expression("A'BC + AB'C + ABC' + ABC")
    assert evaluate(e, {"A": 1, "B": 1, "C": 0}) == 1
    assert evaluate(e, {"A": 0, "B": 0, "C": 1}) == 0


def test_eval_contradiction_always_zero():
    e = parse_expression("AA'")
    for a in (0, 1):
        assert evaluate(e, {"A": a}) == 0


def test_eval_unbound_variable():
    with pytest.raises(ValueError, match="unbound"):
        evaluate(Var("Z"), {"A": 1})


def test_variables_first_appearance():
    assert variables(parse_expression("ABC + A'BC")) == ("A", "B", "C")
    assert variables(parse_expression("BA + AB")) == ("B", "A")
    assert variables(Const(1)) == ()


def test_format_examples():
    assert format_expression(Var("A")) == "A"
    assert format_expression(Not(Or(Var("A"), Var("B")))) == "(A + B)'"
    e = Or(And(Var("A"), Not(Var("B")), Not(Var("C"))), Var("D"))
    assert format_expression(e) == "AB'C' + D"


def test_format_parse_round_trip_structure():
    texts = [
        "ABC + A'BC + AB'C'",
        "(A+B+C)(A'+B+C)(A+B'+C')",
        "A + B'",
        "(AB + C)'D",
        "A'B + AB'CD + BC' + ABD + B'C'D'",
    ]
    for text in texts:
        e = parse_expression(text)
        assert parse_expression(format_expression(e)) == e, text


def test_format_multi_letter_round_trip():
    e = parse_expression("foo*bar' + foo'*baz", multi_letter=True)
    assert parse_expression(format_expression(e), multi_letter=True) == e


def test_format_inserts_star_near_constants():
    e = And(Var("A"), Const(1))
    text = format_expression(e)
    assert parse_expression(text) == e


def random_expr(rng, names, depth):
    kind = rng.randrange(6) if depth > 0 else rng.randrange(2)
    if kind == 0:
        return Var(rng.choice(names))
    if kind == 1:
        return Const(rng.randint(0, 1))
    if kind == 2:
        return Not(random_expr(rng, names, depth - 1))
    children = [random_expr(rng, names, depth - 1) for _ in range(rng.randint(2, 3))]
    if kind in (3, 4):
        return And(*children)
    return Or(*children)


def test_random_round_trip_evaluates_identically():
    import random

    rng = random.Random(20260826)
    names = list("ABCDEF")
    for _ in range(300):
        e = random_expr(rng, names, rng.randint(1, 8))
        text = format_expression(e)
        e2 = parse_expression(text)
        used = variables(e)
        for _ in range(16):
            env = {name: rng.randint(0, 1) for name in names}
            assert evaluate(e, env) == evaluate(e2, env), text


def test_parse_errors_carry_byte_offsets():
    with pytest.raises(ParseError) as info:
        parse_expression("AB + + C")
    assert info.value.offset == 5
    with pytest.raises(ParseError) as info:
        parse_expression("(A + B")
    assert info.value.offset == 6
    with pytest.raises(ParseError) as info:
        parse_expression("A)")
    assert info.value.offset == 1
    with pytest.raises(ParseError):
        parse_expression("")
    with pytest.raises(ParseError):
        parse_expression("A $ B")


def test_offset_counts_bytes_not_chars():
    # each '·' is two bytes in UTF-8, so the end of input is byte 6, not 4
    with pytest.raises(ParseError) as info:
        parse_expression("A·B·")
    assert info.value.offset == 6


def test_and_or_need_two_children():
    with pytest.raises(ValueError):
        And(Var("A"))
    with pytest.raises(ValueError):
        Or(Var("A"))


def test_nodes_and_walkers_refuse_non_expr():
    with pytest.raises(ValueError, match="constant must be 0 or 1, got 2"):
        Const(2)
    with pytest.raises(TypeError, match="Not child must be an Expr"):
        Not("A")
    with pytest.raises(TypeError, match="And operand must be an Expr, got 'B'"):
        And(Var("A"), "B")
    with pytest.raises(TypeError, match="not an Expr: 'A'"):
        evaluate("A", {"A": 1})
    with pytest.raises(TypeError, match="not an Expr: 'A'"):
        format_expression("A")


def test_nested_same_kind_flattens():
    assert And(And(Var("A"), Var("B")), Var("C")) == And(Var("A"), Var("B"), Var("C"))
    assert Or(Var("A"), Or(Var("B"), Var("C"))) == Or(Var("A"), Var("B"), Var("C"))


def test_var_name_validation():
    with pytest.raises(ValueError):
        Var("")
    with pytest.raises(ValueError):
        Var("1A")
    with pytest.raises(ValueError):
        Var("A B")
    assert Var("state_0").name == "state_0"


def test_parse_equations_file():
    text = """
# majority and friends
F = A'BC + AB'C + ABC' + ABC
G = AB + C   # trailing comment

"""
    eqs = parse_equations(text)
    assert [name for name, _ in eqs] == ["F", "G"]
    assert eqs[1][1] == Or(And(Var("A"), Var("B")), Var("C"))


def test_parse_equations_errors():
    with pytest.raises(FormatError, match="line 1"):
        parse_equations("F is AB")
    with pytest.raises(FormatError, match="duplicate"):
        parse_equations("F = A\nF = B")
    with pytest.raises(FormatError, match="line 2"):
        parse_equations("F = A\nG = A +")
    with pytest.raises(FormatError, match="bad equation name"):
        parse_equations("2F = A")
