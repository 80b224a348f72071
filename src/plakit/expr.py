"""Boolean expression AST, parser, evaluator, and printer.

Grammar (text form):

    expr    := term ('+' term)*                 OR
    term    := factor (AND? factor)*            AND: juxtaposition, '*', '.', '·'
    factor  := '!' factor | primary "'"*        NOT: prefix '!' or postfix apostrophe
    primary := NAME | '0' | '1' | '(' expr ')'

Precedence NOT > AND > OR. The postfix apostrophe binds to the immediately
preceding variable, constant, or parenthesized group. Double negation is
removed while parsing; no other rewriting happens, so the tree mirrors the
text.

Two identifier modes:
  * single-letter (default): every letter is its own variable, so "AB'C"
    is the product A · B' · C;
  * multi-letter: identifiers are [A-Za-z][A-Za-z0-9_]* and AND must be
    written explicitly ('*', '.', or '·') because "AB" would be ambiguous.

Constants 0/1 are standalone tokens; a digit touching a letter is a syntax
error in single-letter mode (and part of the identifier in multi-letter
mode).
"""

from dataclasses import dataclass

from .errors import FormatError, ParseError

_AND_CHARS = {"*", ".", "·"}  # '·' appears in printed POS equations


class Expr:
    """Base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Var(Expr):
    name: str

    def __post_init__(self):
        if not self.name or not self.name[0].isalpha():
            raise ValueError(f"variable name must start with a letter: {self.name!r}")
        if not all(c.isalnum() or c == "_" for c in self.name):
            raise ValueError(f"bad character in variable name: {self.name!r}")


@dataclass(frozen=True)
class Const(Expr):
    value: int

    def __post_init__(self):
        if self.value not in (0, 1):
            raise ValueError(f"constant must be 0 or 1, got {self.value!r}")


@dataclass(frozen=True)
class Not(Expr):
    child: Expr

    def __post_init__(self):
        if not isinstance(self.child, Expr):
            raise TypeError("Not child must be an Expr")


@dataclass(frozen=True, init=False)
class And(Expr):
    children: tuple

    def __init__(self, *children):
        object.__setattr__(self, "children", _flatten(And, children))


@dataclass(frozen=True, init=False)
class Or(Expr):
    children: tuple

    def __init__(self, *children):
        object.__setattr__(self, "children", _flatten(Or, children))


def _flatten(kind, children):
    # n-ary nodes stay flat: And(And(a,b),c) == And(a,b,c)
    flat = []
    for c in children:
        if not isinstance(c, Expr):
            raise TypeError(f"{kind.__name__} operand must be an Expr, got {c!r}")
        if isinstance(c, kind):
            flat.extend(c.children)
        else:
            flat.append(c)
    if len(flat) < 2:
        raise ValueError(f"{kind.__name__} needs at least two operands")
    return tuple(flat)


# ---------------------------------------------------------------------------
# Tokenizer


_NAME = "name"
_CONST = "const"
_PLUS = "+"
_STAR = "*"
_BANG = "!"
_PRIME = "'"
_LPAREN = "("
_RPAREN = ")"
_END = "end"


_PUNCT = {"+": _PLUS, "!": _BANG, "'": _PRIME, "(": _LPAREN, ")": _RPAREN,
          **dict.fromkeys(_AND_CHARS, _STAR)}


def _byte_offset(text, index):
    """The UTF-8 byte offset of character `index`, as a ParseError reports it."""
    return len(text[:index].encode("utf-8"))


def _tokenize(text, multi_letter):
    """(kind, text, index) triples; an index is a character position in `text`."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isalpha():
            j = i + 1
            if multi_letter:
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
            elif j < n and text[j].isdigit():
                # each letter is its own variable; a digit glued to it is an error
                raise ParseError(
                    f"digit adjacent to variable {ch!r}; constants must stand alone",
                    _byte_offset(text, i),
                )
            tokens.append((_NAME, text[i:j], i))
            i = j
        elif ch in "01":
            if not multi_letter and i + 1 < n and text[i + 1].isalpha():
                raise ParseError(
                    f"letter adjacent to constant {ch!r}; constants must stand alone",
                    _byte_offset(text, i),
                )
            tokens.append((_CONST, ch, i))
            i += 1
        elif ch in _PUNCT:
            tokens.append((_PUNCT[ch], ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", _byte_offset(text, i))
    tokens.append((_END, "", n))
    return tokens


_FACTOR_START = (_NAME, _CONST, _LPAREN, _BANG)


class _Parser:
    def __init__(self, text, multi_letter):
        self.text = text
        self.tokens = _tokenize(text, multi_letter)
        self.pos = 0
        self.multi_letter = multi_letter
        self.leaves = {}  # one Var per name: nodes are frozen and compare by value

    def error(self, message, index):
        return ParseError(message, _byte_offset(self.text, index))

    def parse_or(self):
        terms = [self.parse_and()]
        while self.tokens[self.pos][0] == _PLUS:
            self.pos += 1
            terms.append(self.parse_and())
        return terms[0] if len(terms) == 1 else Or(*terms)

    def parse_and(self):
        factors = [self.parse_factor()]
        while True:
            kind, _, index = self.tokens[self.pos]
            if kind == _STAR:
                self.pos += 1
            elif kind not in _FACTOR_START:
                break
            elif self.multi_letter:
                raise self.error(
                    "missing AND operator (multi-letter mode requires '*')", index
                )
            factors.append(self.parse_factor())
        return factors[0] if len(factors) == 1 else And(*factors)

    def parse_factor(self):
        tokens = self.tokens
        if tokens[self.pos][0] == _BANG:
            self.pos += 1
            return _negate(self.parse_factor())
        expr = self.parse_primary()
        while tokens[self.pos][0] == _PRIME:
            self.pos += 1
            expr = _negate(expr)
        return expr

    def parse_primary(self):
        kind, text, index = self.tokens[self.pos]
        self.pos += 1
        if kind == _NAME:
            return self.leaves.get(text) or self.leaves.setdefault(text, Var(text))
        if kind == _CONST:
            return Const(int(text))
        if kind == _LPAREN:
            expr = self.parse_or()
            kind, _, index = self.tokens[self.pos]
            if kind != _RPAREN:
                raise self.error("unbalanced parentheses: expected ')'", index)
            self.pos += 1
            return expr
        if kind == _RPAREN:
            raise self.error("unbalanced parentheses: unexpected ')'", index)
        if kind == _END:
            raise self.error("empty operand: unexpected end of expression", index)
        raise self.error(f"empty operand: unexpected {text!r}", index)


def _negate(expr):
    # the only parse-time simplification: NOT NOT x == x
    if isinstance(expr, Not):
        return expr.child
    return Not(expr)


def parse_expression(text, multi_letter=False):
    """Parse a Boolean expression; raises ParseError with a byte offset."""
    if not text.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(text, multi_letter)
    expr = parser.parse_or()
    kind, tok, index = parser.tokens[parser.pos]
    if kind != _END:
        raise parser.error(f"unexpected trailing token {tok!r}", index)
    return expr


# ---------------------------------------------------------------------------
# Evaluation and inspection


def evaluate(expr, assignment):
    """Evaluate under a {name: 0/1} assignment; unbound variables raise ValueError."""
    if isinstance(expr, Var):
        try:
            return 1 if assignment[expr.name] else 0
        except KeyError:
            raise ValueError(f"unbound variable '{expr.name}'") from None
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Not):
        return 1 - evaluate(expr.child, assignment)
    if isinstance(expr, And):
        result = 1
        for c in expr.children:
            result &= evaluate(c, assignment)
        return result
    if isinstance(expr, Or):
        result = 0
        for c in expr.children:
            result |= evaluate(c, assignment)
        return result
    raise TypeError(f"not an Expr: {expr!r}")


def variables(*exprs):
    """Distinct variable names of the expressions in first-appearance
    (left-to-right) order."""
    order = []
    seen = set()

    def walk(e):
        if isinstance(e, Var):
            if e.name not in seen:
                seen.add(e.name)
                order.append(e.name)
        elif isinstance(e, Not):
            walk(e.child)
        elif isinstance(e, (And, Or)):
            for c in e.children:
                walk(c)

    for expr in exprs:
        walk(expr)
    return tuple(order)


def check_names(equations, order, where):
    """Raise "equation 'F' uses variables {where}: [...]" for the first (name, Expr)
    equation with a variable outside `order`; callers run it once a build has failed."""
    for name, e in equations:
        missing = set(variables(e)).difference(order)
        if missing:
            raise ValueError(f"equation {name!r} uses variables {where}: {sorted(missing)}")


# ---------------------------------------------------------------------------
# Printing


def format_expression(expr):
    """Canonical text: apostrophe NOT, juxtaposed AND, '+' OR, minimal parens.

    Round-trips through parse_expression for any parsed tree. When the
    expression contains multi-letter names, AND is written with '*' and the
    result parses back under multi_letter=True.
    """
    multi = any(len(name) > 1 for name in variables(expr))
    return _render(expr, multi)


def _render(expr, multi):
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Const):
        return str(expr.value)
    if isinstance(expr, Not):
        child = expr.child
        if isinstance(child, (Var, Const)):
            return _render(child, multi) + "'"
        return "(" + _render(child, multi) + ")'"
    if isinstance(expr, And):
        parts = []
        for c in expr.children:
            text = _render(c, multi)
            if isinstance(c, Or):
                text = "(" + text + ")"
            parts.append(text)
        if multi:
            return "*".join(parts)
        return _join_juxtaposed(parts)
    if isinstance(expr, Or):
        return " + ".join(_render(c, multi) for c in expr.children)
    raise TypeError(f"not an Expr: {expr!r}")


def _join_juxtaposed(parts):
    # insert '*' where plain juxtaposition would glue a constant to a letter
    out = [parts[0]]
    for part in parts[1:]:
        prev, nxt = out[-1][-1], part[0]
        if (prev.isalpha() and nxt.isdigit()) or (prev.isdigit() and nxt.isalpha()):
            out.append("*")
        out.append(part)
    return "".join(out)


# ---------------------------------------------------------------------------
# Equation files: one "NAME = expr" per line, '#' starts a comment.


def content_lines(text):
    """(line number, text) of each non-blank line, '#' comments removed."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _equation_lines(text):
    """(line number, name, body) of each equation line, in order; FormatError
    for a line without '=', a bad equation name or a repeated one."""
    seen = set()
    for lineno, line in content_lines(text):
        if "=" not in line:
            raise FormatError(f"line {lineno}: expected 'NAME = expression'")
        name, _, body = line.partition("=")
        name = name.strip()
        if not name or not name[0].isalpha() or not all(
            c.isalnum() or c == "_" for c in name
        ):
            raise FormatError(f"line {lineno}: bad equation name {name!r}")
        if name in seen:
            raise FormatError(f"line {lineno}: duplicate equation name {name!r}")
        seen.add(name)
        yield lineno, name, body


def parse_equations(text, multi_letter=False):
    """Read an equation file into an ordered list of (name, Expr) pairs."""
    equations = []
    for lineno, name, body in _equation_lines(text):
        try:
            expr = parse_expression(body, multi_letter=multi_letter)
        except ParseError as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
        equations.append((name, expr))
    return equations


def read_sop(text, multi_letter=False):
    """An equation file whose every body is a sum of products of literals,
    read from its tokens with no Expr tree: (equations, variables), where
    each equation is (name, products), a product is a list of (variable,
    value) literals in the order written, and `variables` lists the names
    in first-appearance order. None for an empty file and for any other
    body (parentheses, constants, a missing operand, juxtaposition in
    multi-letter mode), and for every file parse_equations refuses: the
    caller parses those, so each error comes from the one grammar."""
    equations = []
    try:
        for _, name, body in _equation_lines(text):
            products = _sop_products(_tokenize(body, multi_letter), multi_letter)
            if products is None:
                return None
            equations.append((name, products))
    except FormatError:  # ParseError included
        return None
    if not equations:
        return None
    return equations, tuple(dict.fromkeys(
        v for _, products in equations for product in products for v, _ in product))


def _sop_products(tokens, multi_letter):
    """The products of a token list that reads as products joined by '+',
    each a run of factors joined by '*' (or, in single-letter mode, set
    side by side) and each factor '!'* NAME "'"*, as _Parser reads them;
    None for any other list. A literal's value is 1 when it carries an
    even number of '!' and "'" marks."""
    products, product = [], []
    i, kind = 0, tokens[0][0]
    while True:
        value = 1
        while kind == _BANG:
            value ^= 1
            i += 1
            kind = tokens[i][0]
        if kind != _NAME:
            return None
        name = tokens[i][1]
        i += 1
        kind = tokens[i][0]
        while kind == _PRIME:
            value ^= 1
            i += 1
            kind = tokens[i][0]
        product.append((name, value))
        if kind == _STAR or kind == _PLUS:
            if kind == _PLUS:
                products.append(product)
                product = []
            i += 1
            kind = tokens[i][0]
        elif kind == _END:
            products.append(product)
            return products
        elif multi_letter or kind != _NAME and kind != _BANG:
            return None  # juxtaposition needs '*' here, or not a literal
