"""`plakit compile`, `plakit verify` and `plakit synth` read each equation
file once, as products, and build a tree only for a constant or a group
body: a sum of products goes straight to cube words. These tests hold
compile and verify to the Expr tree path in tests/oracles.py (exit code,
stdout, stderr and fuse-map bytes), pin the messages of files that mix SOP
and other bodies, and check that a valid SOP file never builds an
expression tree, not even for a truth table, and that no command reads a
body twice.
"""

import pytest

import plakit
from plakit import (
    Const, FormatError, Or, PlaProfile, Var, compile_equations, cover_from_expr, parse_equations,
    parse_expression, table_from_expr,
)
from plakit.cli import main
from plakit.expr import _names, read_equations
from plakit.logic import _literal_mask
from oracles import compile_via_expr, seeded, verify_via_expr
from test_parser_fuzz import CORPUS, mutate


def _compile(capsys, tmp_path, text, profile, order=None, multi_letter=False):
    """`plakit compile` on `text`: (exit code, fuse map text or None, stderr)."""
    eq, fuse = tmp_path / "c.eqn", tmp_path / "c.fuse"
    eq.write_text(text, encoding="utf-8")
    fuse.unlink(missing_ok=True)
    argv = ["compile", str(eq), "--profile", profile, "-o", str(fuse)]
    argv += ["--order", ",".join(order)] if order else []
    argv += ["--multi-letter"] if multi_letter else []
    code = main(argv)
    out, err = capsys.readouterr()
    assert out == ""
    return code, fuse.read_text() if fuse.exists() else None, err


def _verify(capsys, tmp_path, fuse, text, var_order=None, multi_letter=False):
    """`plakit verify` of `text` against the fuse map text: (exit code, stdout, stderr)."""
    eq, path = tmp_path / "v.eqn", tmp_path / "v.fuse"
    eq.write_text(text, encoding="utf-8")
    path.write_text(fuse)
    argv = ["verify", str(path), "--equations", str(eq)]
    argv += ["--var-order", ",".join(var_order)] if var_order else []
    argv += ["--multi-letter"] if multi_letter else []
    code = main(argv)
    return (code, *capsys.readouterr())


def _check_both(capsys, tmp_path, text, profile, order=None, var_order=None,
                multi_letter=False, against=None):
    """Compile `text` and verify it (and `against`, another file, when given)
    through the CLI and through the oracles, and compare every outcome."""
    got = _compile(capsys, tmp_path, text, profile, order, multi_letter)
    assert got == compile_via_expr(text, profile, order, multi_letter), text
    fuse = got[1]
    if fuse is None:
        return got
    labelled = fuse
    unlabelled = "".join(line for line in fuse.splitlines(True)
                         if not line.startswith(("ILB", "OB")))
    for image in (labelled, unlabelled):
        for eqs in (text,) if against is None else (text, against):
            assert (_verify(capsys, tmp_path, image, eqs, var_order, multi_letter)
                    == verify_via_expr(image, eqs, var_order, multi_letter)), (image, eqs)
    return got


def _literal(rng, name):
    """`name` with a random count of '!' before and "'" after it."""
    return "!" * rng.choice((0, 0, 1, 2)) + name + "'" * rng.choice((0, 0, 1, 1, 2, 3))


def _sop_file(rng, names, m, multi_letter):
    """m equations over `names`, each a sum of 1-6 products of 1-5 literals;
    literals repeat and contradict, ANDs are '*', '.', '·' or (single-letter)
    juxtaposition, and comments and blank lines come and go."""
    ands = ("*", ".", " * ", "·", " . ") if multi_letter else ("", "", " ", "*", ".", "·")
    lines = []
    for o in range(m):
        products = []
        for _ in range(rng.randint(1, 6)):
            lits = [_literal(rng, rng.choice(names)) for _ in range(rng.randint(1, 5))]
            products.append(rng.choice(ands).join(lits))
        lines.append(f"F{o} = " + rng.choice((" + ", "+", "  +  ")).join(products))
        if rng.random() < 0.2:
            lines.append(rng.choice(("", "# a comment", "   ")))
    return "\n".join(lines) + rng.choice(("\n", "", "\n\n"))


def _flip(rng, text):
    """`text` with one literal complemented: '!' added before a variable."""
    spots = [i for i, ch in enumerate(text) if ch.isalpha() and not text[i - 1].isalnum()
             and text[i - 1] != "_" and "=" in text[text.rfind("\n", 0, i) + 1:i]]
    i = rng.choice(spots)
    return text[:i] + "!" + text[i:]


@pytest.mark.parametrize("multi_letter", [False, True])
def test_sop_files_compile_and_verify_as_the_expr_path_does(tmp_path, capsys, multi_letter):
    rng = seeded(181 + multi_letter)
    pool = (["alpha", "b2", "c_d", "Delta", "e", "f9x", "GG", "h_"] if multi_letter
            else list("ABCDEFGHIJ"))
    results = set()
    for _ in range(60):
        names = rng.sample(pool, rng.randint(1, min(8, len(pool))))
        m = rng.randint(1, 5)
        text = _sop_file(rng, names, m, multi_letter)
        assert _sop_only(text, multi_letter), text
        width = len(names) + rng.choice((0, 0, 1, 3))
        order = var_order = None
        if rng.random() < 0.5:  # an explicit order, with unused names at times
            order = rng.sample(names, len(names)) + [f"u{j}" for j in range(width - len(names))]
        if rng.random() < 0.3:
            var_order = rng.sample(names, len(names))
        terms = rng.choice((4, 8, 40))  # small devices refuse some designs
        profile = f"n{width}p{terms}m{m + rng.choice((0, 1))}"
        code, _, _ = _check_both(capsys, tmp_path, text, profile, order, var_order,
                                 multi_letter, against=_flip(rng, text))
        results.add(code)
    assert results == {0, 3}  # fitted designs and refused ones both came up


def test_mutated_equation_files_compile_and_verify_as_the_expr_path_does(tmp_path, capsys):
    rng = seeded(20261018)
    reference = {}  # a fuse map per corpus mode, to verify every mutant against
    for multi_letter, texts in ((False, CORPUS["equations"]),
                                (True, CORPUS["equations_multi"])):
        code, fuse, _ = _compile(capsys, tmp_path, texts[0], "n8p32m4",
                                 multi_letter=multi_letter)
        assert code == 0
        reference[multi_letter] = fuse
    sop = 0
    for i in range(300):
        multi_letter = i % 3 == 2
        base = CORPUS["equations_multi" if multi_letter else "equations"]
        text = mutate(rng, rng.choice(base))
        sop += _sop_only(text, multi_letter)
        order = ("A", "B", "C", "D") if i % 2 and not multi_letter else None
        _check_both(capsys, tmp_path, text, "n8p32m4", order, None, multi_letter)
        image = reference[multi_letter]
        assert (_verify(capsys, tmp_path, image, text, None, multi_letter)
                == verify_via_expr(image, text, None, multi_letter)), text
    assert 30 <= sop <= 270, sop  # files with and without trees came up often


def _outcomes(capsys, tmp_path, text, compile_args, verify_args):
    """(compile's exit code and stderr, verify's exit code, stdout and stderr)."""
    eq, fuse = tmp_path / "p.eqn", tmp_path / "ref.fuse"
    eq.write_text(text)
    compiled = main(["compile", str(eq), *compile_args]), capsys.readouterr().err
    verified = (main(["verify", str(fuse), "--equations", str(eq), *verify_args]),
                *capsys.readouterr())
    return compiled, verified


def test_mixed_files_keep_every_message_and_which_error_wins(tmp_path, capsys):
    (tmp_path / "ref.eqn").write_text("F = AB + A'C\nG = B'C + A\n")
    assert main(["compile", str(tmp_path / "ref.eqn"), "--profile", "n3p8m2",
                 "-o", str(tmp_path / "ref.fuse")]) == 0
    one = ["--profile", "n4p8m3"]
    cases = [
        # a parse error on a later line, after valid SOP lines
        ("F = AB\nG = A'B\nH = A +\n", one, [],
         (4, "error: line 3: empty operand: unexpected end of expression (byte 4)\n"),
         (4, "", "error: line 3: empty operand: unexpected end of expression (byte 4)\n")),
        ("F = AB\nG = (A + B)C\nH = A'' + !B\nK = A B 2\n", one, [],
         (4, "error: line 4: unexpected character '2' (byte 5)\n"),
         (4, "", "error: line 4: unexpected character '2' (byte 5)\n")),
        # a name outside the order in an SOP body, before a body that is not SOP
        ("F = AB + C\nG = (A + B)D\n", one + ["--order", "A,B"], ["--var-order", "A,B"],
         (2, "error: equation 'F' uses variables not in order: ['C']\n"),
         (2, "", "error: equation 'F' uses variables not on the device: ['C']\n")),
        # ... and with the device's ILB as the order
        ("F = AB + C\nG = (A + B)D\n", one + ["--order", "A,B,C"], [],
         (2, "error: equation 'G' uses variables not in order: ['D']\n"),
         (2, "", "error: equation 'G' uses variables not on the device: ['D']\n")),
        # a duplicate equation name
        ("F = AB\nG = A\nF = B\n", one, [],
         (4, "error: line 3: duplicate equation name 'F'\n"),
         (4, "", "error: line 3: duplicate equation name 'F'\n")),
        ("F = AB\nG = A\n2F = B\n", one, [],
         (4, "error: line 3: bad equation name '2F'\n"),
         (4, "", "error: line 3: bad equation name '2F'\n")),
        # an equation that names no OB output, after one that verifies
        ("F = AB + A'C\nH = A\n", one, [],
         (0, ""),
         (2, "", "error: equation 'H' names no output of the fuse map (OB: F G)\n")),
        # more equations than outputs
        ("F = AB + A'C\nG = B'C + A\nH = A\n", ["--profile", "n3p8m2"], [],
         (3, "error: design needs 3 outputs but device provides 2\n"),
         (2, "", "error: 3 equations but the device has 2 outputs\n")),
        # juxtaposition in multi-letter mode
        ("F = a * b\nG = a b\n", one + ["--multi-letter"], ["--multi-letter"],
         (4, "error: line 2: missing AND operator (multi-letter mode requires '*') (byte 3)\n"),
         (4, "", "error: line 2: missing AND operator (multi-letter mode requires '*') "
                 "(byte 3)\n")),
        ("F = a * b\nG = (a + b) * c\nH = a !c\n", one + ["--multi-letter"], ["--multi-letter"],
         (4, "error: line 3: missing AND operator (multi-letter mode requires '*') (byte 3)\n"),
         (4, "", "error: line 3: missing AND operator (multi-letter mode requires '*') "
                 "(byte 3)\n")),
        # a refused order, and a device too narrow for it
        ("F = AB\nG = AC\n", one + ["--order", "A,A,B,C"], ["--var-order", "A,A,B"],
         (2, "error: duplicate variable in order: ('A', 'A', 'B', 'C')\n"),
         (2, "", "error: equation 'G' uses variables not on the device: ['C']\n")),
        ("F = AB + A'C\nG = B'C + A\n", one, ["--var-order", "A,B,C,D"],
         (0, ""),
         (2, "", "error: 4 variables but the device has 3 inputs\n")),
        # a product with X and X' is dropped only after every name in it is read
        ("F = AA'D + B\n", one + ["--order", "A,B"], [],
         (2, "error: equation 'F' uses variables not in order: ['D']\n"),
         (2, "", "error: equation 'F' uses variables not on the device: ['D']\n")),
    ]
    for text, compile_args, verify_args, compiled, verified in cases:
        assert _outcomes(capsys, tmp_path, text, compile_args, verify_args) == (
            compiled, verified), text


def test_valid_sop_files_never_reach_the_parser(tmp_path, capsys, monkeypatch):
    calls, tree = [], plakit.expr._tree

    def counted(products, leaves):
        calls.append(products)
        return tree(products, leaves)

    monkeypatch.setattr(plakit.expr, "_tree", counted)
    eq, fuse = tmp_path / "fg.eqn", tmp_path / "fg.fuse"
    eq.write_text("F = AB + A'C\nG = !B*C + A . B''\n")
    for order, first in ((["--order", "C,A,B"], "C,A,B"), ([], "A,B,C")):
        assert main(["compile", str(eq), "--profile", "n3p8m2", *order, "-o", str(fuse)]) == 0
        for var_order in (["--var-order", first], []):
            assert main(["verify", str(fuse), "--equations", str(eq), *var_order]) == 0
    # first appearance, on a map with no ILB
    fuse.write_text("".join(line for line in fuse.read_text().splitlines(True)
                            if not line.startswith("ILB")))
    assert main(["verify", str(fuse), "--equations", str(eq)]) == 0
    # nor does a truth table: minimized, inverted and synthesized bodies
    for argv in (["compile", str(eq), "--profile", "n3p8m2", "--minimize"],
                 ["compile", str(eq), "--profile", "n3p8m2:xor", "--polarity", "G"],
                 ["compile", str(eq), "--profile", "n3p8m2:xor", "--polarity", "F",
                  "--minimize"],
                 ["synth", str(eq)], ["synth", str(eq), "--minimize"]):
        assert main(argv + ["-o", str(tmp_path / "out")]) == 0, argv
    assert calls == []
    capsys.readouterr()
    # the counter does see the trees: a body that is not a sum of products
    eq.write_text("F = (A + B)C\n")
    assert main(["compile", str(eq), "--profile", "n3p8m2", "--order", "A,B,C"]) == 0
    group = Or(Var("A"), Var("B"))
    assert calls == [[[("A", 1)], [("B", 1)]], [[group, ("C", 1)]]]  # the group, then the body
    # a table fills no one-literal mask cache entry
    _literal_mask.cache_clear()
    order = tuple(f"x{j}" for j in range(20))
    table = table_from_expr(parse_expression("x0*x5'*x19", multi_letter=True), order)
    assert table.bits.bit_count() == 1 << 17
    assert _literal_mask.cache_info().currsize == 0


def test_compile_formats_no_message_for_a_body_that_is_not_sop(monkeypatch):
    calls, format_expression = [], plakit.expr.format_expression

    def counted(e):
        calls.append(e)
        return format_expression(e)

    monkeypatch.setattr(plakit.expr, "format_expression", counted)
    equations = parse_equations("F = (A + B)(C + D') + E\n")
    _, report = compile_equations(equations, PlaProfile(5, 32, 1))
    assert report.terms_used == 25  # the table's minterms: 16 with E, 9 without
    assert calls == []
    # the public form still names the product in its message
    with pytest.raises(ValueError, match=r"^not a sum-of-products expression: "
                                         r"\"\(A \+ B\)\(C \+ D'\)\" is not"):
        cover_from_expr(equations[0][1], tuple("ABCDE"))
    assert len(calls) == 1
    with pytest.raises(ValueError, match=r"^variable 'E' not in order$"):
        cover_from_expr(equations[0][1].children[1], tuple("ABCD"))


def test_read_equations_reads_literals_as_written():
    text = "# header\nF = !A'B'' + C!!B . A\n\nG = b\n"
    bodies = read_equations(text)
    assert bodies == [
        ("F", [[("A", 1), ("B", 1)], [("C", 1), ("B", 1), ("A", 1)]], None),
        ("G", [[("b", 1)]], None),
    ]
    assert _names(bodies) == ("A", "B", "C", "b")
    assert read_equations("x1 = a_1 * !b' . c·d'\n", multi_letter=True) == [
        ("x1", [[("a_1", 1), ("b", 1), ("c", 1), ("d", 0)]], None)]
    # a constant or a group: the tree, and the products it flattens to
    assert read_equations("F = A + 1\nG = (A)\nH = (AB)C'\n") == [
        ("F", [[("A", 1)], [Const(1)]], Or(Var("A"), Const(1))),
        ("G", [[("A", 1)]], Var("A")),
        ("H", [[("A", 1), ("B", 1), ("C", 0)]], parse_equations("H = ABC'")[0][1]),
    ]
    for text in ("", "# only a comment\n", "\n  \n"):
        assert read_equations(text) == [], text
    for text in ("F = A +\n", "F = A * + B\n", "F = 'A\n", "F = !\n", "F = A2\n",
                 "F = \n", "F A\n", "F = A\nF = B\n", "1F = A\n"):
        with pytest.raises(FormatError):
            read_equations(text)
    with pytest.raises(FormatError, match="missing AND operator"):
        read_equations("F = a b\n", multi_letter=True)


def _sop_only(text, multi_letter):
    """Does `text` read, with at least one body and every body a sum of products?"""
    try:
        bodies = read_equations(text, multi_letter)
    except FormatError:
        return False
    return bool(bodies) and all(tree is None for _, _, tree in bodies)


@pytest.mark.parametrize("text", [
    "F = AB + C'\nG = A'B + !C\n",  # sums of products
    "F = AB + C'\nG = A*1\n",  # a constant body
    "F = AB + C'\nG = (A + B)C\n",  # a group body
])
def test_every_command_tokenizes_each_body_once(tmp_path, capsys, monkeypatch, text):
    calls, tokenize = [], plakit.expr._tokenize

    def counted(body, multi_letter):
        calls.append(body)
        return tokenize(body, multi_letter)

    monkeypatch.setattr(plakit.expr, "_tokenize", counted)
    eq, fuse = tmp_path / "fg.eqn", tmp_path / "fg.fuse"
    eq.write_text(text)
    bodies = [line.partition("=")[2] for line in text.splitlines()]
    compile_ = ["compile", str(eq), "--profile", "n3p16m2:xor", "-o", str(fuse)]
    commands = [
        (compile_, 0),
        (compile_ + ["--order", "A,B"], 2),  # C is not in the order
        (compile_ + ["--minimize"], 0),
        (compile_ + ["--polarity", "G"], 0),
        (["verify", str(fuse), "--equations", str(eq)], 0),
        (["synth", str(eq)], 0),
    ]
    for argv, code in commands:
        calls.clear()
        assert main(argv) == code, (argv, capsys.readouterr())
        assert calls == bodies, argv
    # and on a map with no ILB, where verify takes the file's first-appearance order
    fuse.write_text("".join(line for line in fuse.read_text().splitlines(True)
                            if not line.startswith("ILB")))
    calls.clear()
    assert main(["verify", str(fuse), "--equations", str(eq)]) == 0
    assert calls == bodies
