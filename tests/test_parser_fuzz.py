"""Seeded mutation fuzz of the five text parsers.

Every mutant of a valid equations file, fuse map, Berkeley .pla, KISS2
machine or PLAENC sidecar must either parse or raise a PlakitError, so the
CLI reports it as a malformed artifact (exit 4) and never as a traceback.
The .pla and KISS2 readers, which check rows in blocks, must also give the
result, or the exception and message, of the line-by-line reader in
tests/oracles.py.
"""

import random

import pytest

from plakit import (
    Cover,
    Fsm,
    PlaProfile,
    PlakitError,
    Transition,
    compile_equations,
    default_encoding,
    emit_encoding,
    emit_fusemap,
    parse_encoding,
    parse_equations,
    parse_expression,
    parse_fusemap,
    parse_kiss2,
    read_berkeley_pla,
    share_terms,
    synthesize_controller,
    write_berkeley_pla,
    write_kiss2,
)
from plakit.expr import _equation_lines, _flat, _tree, read_equations
from oracles import (
    parse_equations_naive, parse_expression_naive, read_outcome, read_sop_naive,
)

EQUATIONS = "# majority and friends\nM = AB + AC + BC\nG = (A + B')C * D\nH = !(A . !B)' + 0\n"
MACHINE = Fsm(2, 1, ("S0", "S1", "S2"), "S0", (
    Transition("1-", "S0", "S1", "0"),
    Transition("01", "S1", "S2", "1"),
    Transition("--", "S2", "S0", "1"),
))


def _corpus():
    state, report = compile_equations(
        parse_equations(EQUATIONS), PlaProfile(4, 8, 3, "antifuse", True), minimize=True,
        polarity={"G": 1},
    )
    covers = [("F", Cover(tuple("ABC"), ("1-0", "011"))), ("G", Cover(tuple("ABC"), ("--1",)))]
    image, _ = synthesize_controller(MACHINE, PlaProfile(4, 6, 3))
    return {
        "equations": [EQUATIONS, "F = A'B + C\n"],
        "equations_multi": ["long_1 = alpha * beta' + gamma.d2\nx = !(y + z)\n"],
        "fusemap": [emit_fusemap(state, report.input_names, report.output_names),
                    emit_fusemap(image.state)],
        "pla": [write_berkeley_pla(share_terms(covers)),
                ".i 2\n.o 1\n.type f\n.p 2\n1- 1\n00 0\n.e\n"],
        "kiss2": [write_kiss2(MACHINE), ".i 1\n.o 1\n.r S0\n1 S0 S1 1\n1 S1 S0 0\n.e\n"],
        "plaenc": [emit_encoding(default_encoding(MACHINE))],
    }


CORPUS = _corpus()
PARSERS = {
    "equations": parse_equations,
    "equations_multi": lambda text: parse_equations(text, multi_letter=True),
    "fusemap": parse_fusemap,
    "pla": read_berkeley_pla,
    "kiss2": parse_kiss2,
    "plaenc": parse_encoding,
}
ALPHABET = "01-x2 \t\n\r.#=+'()*&|!~^ABSZabz_:,;\u00b7\u00e9\u0663\x00"
NUMBERS = ("0", "-1", "+2", "1", "3", "007", "9", "25", "99", "99999999", "1e3", "x")


def mutate(rng, text):
    """One to three random edits: a character, a line, a number or the tail."""
    for _ in range(rng.randint(1, 3)):
        lines = text.split("\n")
        pos = rng.randrange(len(text) + 1)
        op = rng.randrange(7)
        if op == 0:  # replace a character
            text = text[:pos] + rng.choice(ALPHABET) + text[pos + 1 :]
        elif op == 1:  # insert one
            text = text[:pos] + rng.choice(ALPHABET) + text[pos:]
        elif op == 2:  # delete one
            text = text[:pos] + text[pos + 1 :]
        elif op == 3:  # repeat a line elsewhere
            lines.insert(rng.randrange(len(lines)), rng.choice(lines))
            text = "\n".join(lines)
        elif op == 4:  # drop a line
            del lines[rng.randrange(len(lines))]
            text = "\n".join(lines)
        elif op == 5:  # change a count
            words = text.split(" ")
            counts = [i for i, w in enumerate(words) if w.strip().isdigit()]
            if counts:
                words[rng.choice(counts)] = rng.choice(NUMBERS)
            text = " ".join(words)
        else:  # cut the tail
            text = text[:pos]
    return text


@pytest.mark.filterwarnings("ignore:.p declares")
def test_mutants_raise_only_plakit_errors():
    for name, texts in CORPUS.items():  # every seed is a valid artifact
        for text in texts:
            PARSERS[name](text)
    rng = random.Random(20261017)
    for i in range(40000):
        name = sorted(PARSERS)[i % len(PARSERS)]
        text = mutate(rng, rng.choice(CORPUS[name]))
        try:
            PARSERS[name](text)
        except PlakitError:
            pass
        except Exception as exc:  # noqa: BLE001 - any other exception is the finding
            raise AssertionError(f"{name} raised {exc!r} on {text!r}") from exc


# Texts that reach every branch of the row scan: comments, blank and
# whitespace-only lines, tabs, CRLF, directives between row blocks, a row
# block right after the counts change, and lines after .e.
SCAN_TEXTS = {
    "pla": CORPUS["pla"] + [
        "# two outputs\n.i 3\n.o 2\n\n1-0 10 # a row\n.ilb a b c\n011\t01\r\n  \n"
        "--1 11\n.ob f g\n1-0 01\n.p 4\n.e\nnot a row\n",
        ".i 1\n.o 1\n1 1\n.i 1\n.o 1\n0 0\n.type f\n- 1\n.end\n",
    ],
    "kiss2": CORPUS["kiss2"] + [
        "# a counter\n.i 1\n.o 1\n.s 2\n\n1 A B 1 # count\n0 A A 0\n.r A\n1\tB A 0\r\n"
        "0 B B 1\n.p 4\n.e\nx\n",
    ],
}
SCAN_READERS = {"pla": read_berkeley_pla, "kiss2": parse_kiss2}


def test_block_scan_matches_the_per_line_reader():
    pinned = {  # a bad row before a bad directive, a repeated .i, a wide row
        ".i 2\n.o 1\n11 1\n1x 1\n.bogus\n": "line 4: input cube '1x' is not 2 chars of 0/1/-",
        ".i 2\n.o 1\n11 1\n.bogus\n1x 1\n": "line 4: unsupported directive '.bogus'",
        ".i 2\n.o 1\n11 1\n.i 3\n1x 1\n": "line 4: .i 3 after rows read with .i 2",
        ".i 2\n.o 1\n\n  11  1 1 # c\n": "line 4: expected '<inputs> <outputs>', got '11  1 1'",
        "11 1\n.bogus\n": "line 1: cube before .i/.o declarations",
        ".i 2\n.o 1\n11 1x\n": "line 3: outputs '1x' is not 1 chars of 0/1 "
                               "(output don't-cares are not supported)",
    }
    for text, message in pinned.items():
        outcome = read_outcome(read_berkeley_pla, text)
        assert outcome == read_outcome(read_berkeley_pla, text, per_line=True)
        assert outcome[1] == message, outcome
    for name, texts in SCAN_TEXTS.items():
        for text in texts:
            assert read_outcome(SCAN_READERS[name], text)[0] == "ok", text
    rng = random.Random(20261019)
    for i in range(4000):
        name = sorted(SCAN_TEXTS)[i % 2]
        text = mutate(rng, rng.choice(SCAN_TEXTS[name]))
        got = read_outcome(SCAN_READERS[name], text)
        assert got == read_outcome(SCAN_READERS[name], text, per_line=True), (name, text)


# Bodies that reach every branch of the expression loop: runs of marks on a
# name, a constant and a group, nested and flattened groups, each kind of
# missing operand and stray ')', both AND spellings, both digit adjacencies,
# empty and blank bodies, a non-ASCII name, and nested negated groups (30
# deep: comparing trees by value recurses three calls a level).
HAND_BODIES = [
    "A''", "!A'", "!!A", "(A')'", "((A))", "(AB)C", "A(B+C)'", "(A+B)+C", "0'", "!1",
    "A + ", ")", "(A", "A)", "A**B", "A ++ B", "A0", "0A", "a*b c", "a b", "", "   ",
    "\u00e9 + b", "A\u00b7B", "\u00b7", "!" * 50 + "A" + "'" * 7,
    "".join("!(A + B" for _ in range(30)) + ")" * 30,
]


def _outcome(parse, *args):
    """("ok", result) of parse(*args), or the exception's type, message and offset."""
    try:
        return "ok", parse(*args)
    except Exception as exc:  # noqa: BLE001 - the outcome is compared, whatever it is
        return type(exc), str(exc), getattr(exc, "offset", None)


def _same_as_naive(text, multi_letter):
    """Each reader of `text` gives the naive grammars' result, and the bodies
    also read as bare expressions alike. parse_equations gives the recursive
    descent's trees. read_equations gives a tree only to a body the flat
    loop refuses, a sum of products' literals as that loop wrote them, and
    any other body's products as _flat of its tree, which _tree rebuilds."""
    naive = _outcome(parse_equations_naive, text, multi_letter)
    assert _outcome(parse_equations, text, multi_letter) == naive, (multi_letter, text)
    got = _outcome(read_equations, text, multi_letter)
    if got[0] != "ok" or naive[0] != "ok":
        assert got == naive, (multi_letter, text)
    else:
        sop = read_sop_naive(text, multi_letter)
        products = [(name, products) for name, products, _ in got[1]]
        if sop is not None:
            assert products == sop[0], (multi_letter, text)
        assert products == [(name, _flat(e)) for name, e in naive[1]], (multi_letter, text)
        for (_, _, body), (_, flat, tree), (_, e) in zip(_equation_lines(text), got[1], naive[1]):
            assert (tree is None) == (read_sop_naive("F =" + body, multi_letter) is not None)
            assert _tree(flat, {}) == e and tree in (None, e), (multi_letter, text)
    for line in text.split("\n"):
        body = line.partition("=")[2]
        assert _outcome(parse_expression, body, multi_letter) == _outcome(
            parse_expression_naive, body, multi_letter), (multi_letter, body)


def test_one_grammar_matches_the_two_it_replaced():
    for body in HAND_BODIES:
        for multi_letter in (False, True):
            for text in (body, f"F = {body}\n"):
                assert _outcome(parse_expression, text, multi_letter) == _outcome(
                    parse_expression_naive, text, multi_letter), (multi_letter, text)
                _same_as_naive(text, multi_letter)
    seeds = CORPUS["equations"] + CORPUS["equations_multi"]
    rng = random.Random(20261019)
    for _ in range(8000):
        text = mutate(rng, rng.choice(seeds))
        for multi_letter in (False, True):
            _same_as_naive(text, multi_letter)
