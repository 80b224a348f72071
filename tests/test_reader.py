"""The one-pass reader of equation bodies, in both identifier modes: which
error wins, unusual characters, the nesting limit, trees at that limit,
and a linear-time gate. Wherever the oracle's tokenize-then-parse reading
answers, the reader must give the same answer."""

import random
import time

import pytest

from plakit import (
    And, Const, FormatError, Not, Or, Var, parse_equations, parse_expression,
)
from plakit.expr import read_equations
from oracles import parse_equations_naive, parse_expression_naive

MODES = (False, True)


def _outcome(parse, text, multi_letter):
    """parse's result, or its error's message and byte offset."""
    try:
        return parse(text, multi_letter)
    except FormatError as exc:  # ParseError included
        return str(exc), getattr(exc, "offset", None)


def _error(message, offset):
    return f"{message} (byte {offset})", offset


# (body, single-letter outcome, multi-letter outcome): each body has a
# parse error before its first lexical error, if it has one
PRECEDENCE = [
    ("A + + B $", _error("unexpected character '$'", 8), None),
    ("·+ é $", _error("unexpected character '$'", 7), None),  # '·' and 'é': 2 bytes
    ("a b 2", _error("unexpected character '2'", 4), None),
    ("(" * 101 + "A" + ")" * 101 + " 2", _error("unexpected character '2'", 204), None),
    ("+ A0", _error("digit adjacent to variable 'A'; constants must stand alone", 2),
     _error("empty operand: unexpected '+'", 0)),
    ("A) 1B", _error("letter adjacent to constant '1'; constants must stand alone", 3),
     _error("unexpected trailing token ')'", 1)),
    ("A B2", _error("digit adjacent to variable 'B'; constants must stand alone", 2),
     _error("missing AND operator (multi-letter mode requires '*')", 2)),
]


@pytest.mark.parametrize("multi_letter", MODES)
def test_a_lexical_error_anywhere_outranks_an_earlier_parse_error(multi_letter):
    for body, single, multi in PRECEDENCE:
        want = multi if multi_letter and multi else single
        assert _outcome(parse_expression, body, multi_letter) == want, body
        if not body.startswith("(("):  # the oracle has no nesting limit
            assert _outcome(parse_expression_naive, body, multi_letter) == want, body
        with pytest.raises(FormatError) as info:
            read_equations(f"F = A\nG ={body}\n", multi_letter)  # the body from its first byte
        assert str(info.value) == f"line 2: {want[0]}", body
        assert info.value.__cause__.offset == want[1]


X = "é"  # a letter outside ASCII
UNUSUAL = [  # (body, single-letter outcome, multi-letter outcome)
    (f"{X}\tB ·C", And(Var(X), Var("B"), Var("C")),
     _error("missing AND operator (multi-letter mode requires '*')", 3)),
    ("ab *\tcd", And(Var("a"), Var("b"), Var("c"), Var("d")), And(Var("ab"), Var("cd"))),
    ("!!!A'''", Var("A"), Var("A")),
    ("!!A'", Not(Var("A")), Not(Var("A"))),
    ("!" * 51 + "A" + "'" * 8, Not(Var("A")), Not(Var("A"))),
    ("!'A", _error("empty operand: unexpected \"'\"", 1), None),
    ("A 0", And(Var("A"), Const(0)), _error("missing AND operator (multi-letter mode requires '*')", 2)),
    ("0 A", And(Const(0), Var("A")), _error("missing AND operator (multi-letter mode requires '*')", 2)),
    ("A'0", And(Not(Var("A")), Const(0)),
     _error("missing AND operator (multi-letter mode requires '*')", 2)),
    ("1'A", And(Not(Const(1)), Var("A")),
     _error("missing AND operator (multi-letter mode requires '*')", 2)),
    ("A0", _error("digit adjacent to variable 'A'; constants must stand alone", 0), Var("A0")),
    ("0A", _error("letter adjacent to constant '0'; constants must stand alone", 0),
     _error("missing AND operator (multi-letter mode requires '*')", 1)),
    ("A٣", _error("digit adjacent to variable 'A'; constants must stand alone", 0),
     Var("A٣")),  # a digit outside ASCII
    ("A2 + b_9", _error("digit adjacent to variable 'A'; constants must stand alone", 0),
     Or(Var("A2"), Var("b_9"))),
    ("x_1 * y2_b' + z_", _error("unexpected character '_'", 1),
     Or(And(Var("x_1"), Not(Var("y2_b"))), Var("z_"))),
    ("_z", _error("unexpected character '_'", 0), None),
]


@pytest.mark.parametrize("multi_letter", MODES)
def test_unusual_characters_read_as_the_tokenizer_read_them(multi_letter):
    for body, single, multi in UNUSUAL:
        want = multi if multi_letter and multi is not None else single
        assert _outcome(parse_expression, body, multi_letter) == want, body
        assert _outcome(parse_expression_naive, body, multi_letter) == want, body
        text = f"F = {body}\nG = {body} + A\n"
        assert _outcome(parse_equations, text, multi_letter) == _outcome(
            parse_equations_naive, text, multi_letter), body


def _nested(depth):
    """'!(a + b' nested `depth` deep, each group ANDed to the last name of
    the one around it, and the tree it reads to."""
    a, b = Var("a"), Var("b")
    tree = Not(Or(a, b))
    for _ in range(depth - 1):
        tree = Not(Or(a, And(b, tree)))
    return "*".join(["!(a + b"] * depth) + ")" * depth, tree


@pytest.mark.parametrize("multi_letter", MODES)
def test_groups_nest_100_deep_and_no_deeper(multi_letter):
    assert parse_expression("(" * 100 + "A" + ")" * 100, multi_letter) == Var("A")
    assert _outcome(parse_expression, "(" * 101 + "A" + ")" * 101, multi_letter) == _error(
        "parentheses nested more than 100 deep", 100)
    body, _ = _nested(101)
    assert _outcome(parse_expression, body, multi_letter) == _error(
        "parentheses nested more than 100 deep", 801)


@pytest.mark.parametrize("multi_letter", MODES)
def test_trees_at_the_nesting_limit_compare_and_print(multi_letter):
    """== , != and repr walk a tree some 300 nodes deep without overflowing
    the stack, and give what the dataclass methods give on a small tree."""
    assert repr(Not(And(Var("A"), Or(Const(0), Var("B"))))) == (
        "Not(child=And(children=(Var(name='A'), Or(children=(Const(value=0), Var(name='B'))))))")
    body, tree = _nested(100)
    got = parse_expression(body, multi_letter)
    assert got is not tree
    assert got == tree and not got != tree
    assert hash(got) == hash(tree)
    other = Not(Or(Var("a"), Var("c")))  # the innermost group differs
    for _ in range(99):
        other = Not(Or(Var("a"), And(Var("b"), other)))
    assert got != other and not got == other
    want = "Not(child=Or(children=(Var(name='a'), Var(name='b'))))"
    for _ in range(99):
        want = f"Not(child=Or(children=(Var(name='a'), And(children=(Var(name='b'), {want})))))"
    assert repr(got) == want
    assert (got == "x", got != "x") == (False, True)


def _body(size):
    """A seeded single-letter sum of products of about `size` characters."""
    rng = random.Random(31)
    products, length = [], 0
    while length < size:
        products.append("".join(rng.choice("ABCDEFGH") + "'" * rng.randint(0, 1)
                                for _ in range(rng.randint(1, 5))))
        length += len(products[-1]) + 3
    return " + ".join(products)


def _seconds(read, text):
    """read(text)'s result and its best time of three runs."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        result = read(text)
        best = min(best, time.perf_counter() - start)
    return result, best


def test_reading_is_linear_in_the_body():
    """A body of about 200,000 characters, the same body behind a parse
    error at its first byte and a lexical error at its last, and a file of
    5,000 equations each read in under 1.5 s (0.05-0.25 s on a 2 vCPU
    Xeon). Read as products and on the error path, the body also takes
    under 8 times as long as a quarter of it (about 4 times): slicing the
    rest of the body at each literal, or finding a byte offset at each
    character of the error check, took 12 and 39 times as long there."""
    body, quarter = _body(200_000), _body(50_000)
    products = body.split(" + ")
    n = len(products)
    file = "".join(f"F{k} = {' + '.join(products[k:k + 4])}\n" for k in range(5000))
    reads = [  # (read, its text, check of its result, is its time compared to a quarter's)
        (parse_expression, body, lambda e: len(e.children) == n, False),
        (lambda text: read_equations(f"F = {text}\n"), body, lambda eqs: len(eqs[0][1]) == n,
         True),
        (lambda text: _outcome(parse_expression, f"+{text} $", False), body,
         lambda got: got == _error("unexpected character '$'", len(body) + 2), True),
        (read_equations, file, lambda eqs: len(eqs) == 5000, False),
    ]
    for read, text, check, scaled in reads:
        result, seconds = _seconds(read, text)
        assert check(result)
        assert seconds < 1.5, f"took {seconds:.2f}s, limit 1.5s"
        if scaled:
            _, quarter_seconds = _seconds(read, quarter)
            assert seconds < 8 * quarter_seconds, (seconds, quarter_seconds)
