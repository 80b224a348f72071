"""Seeded mutation fuzz of the five text parsers.

Every mutant of a valid equations file, fuse map, Berkeley .pla, KISS2
machine or PLAENC sidecar must either parse or raise a PlakitError, so the
CLI reports it as a malformed artifact (exit 4) and never as a traceback.
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
    parse_fusemap,
    parse_kiss2,
    read_berkeley_pla,
    share_terms,
    synthesize_controller,
    write_berkeley_pla,
    write_kiss2,
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
