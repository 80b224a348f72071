"""Boolean expression AST, parser, evaluator, and printer.

Grammar (text form):

    expr    := term ('+' term)*                 OR
    term    := factor (AND? factor)*            AND: juxtaposition, '*', '.', '·'
    factor  := '!'* primary "'"*                NOT: prefix '!' or postfix apostrophe
    primary := NAME | '0' | '1' | '(' expr ')'

Precedence NOT > AND > OR. The postfix apostrophe binds to the immediately
preceding variable, constant, or parenthesized group. One loop reads the
grammar as the products a PLA's AND plane forms: a name with its marks
stays a (name, value) literal, and only a constant or a parenthesized group
(read by the same loop) becomes a tree node: read_equations reads a file
once, building a tree only for such a body. A '(' nested more than 100
deep is refused. Double negation is removed while parsing; no other
rewriting happens, so the tree mirrors the text.

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
from itertools import chain

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


_MAX_DEPTH = 100  # a '(' nested deeper is refused
_NO_OPERAND = {
    _LPAREN: f"parentheses nested more than {_MAX_DEPTH} deep",
    _RPAREN: "unbalanced parentheses: unexpected ')'",
    _END: "empty operand: unexpected end of expression",
}


def _sum(tokens, i, text, multi_letter, leaves, depth):
    """Read products joined by '+' from tokens[i:] up to the ')' or end that
    closes them: (products, that token's index). Each factor is '!'* primary
    "'"*: a name is a (name, value) literal, value 1 for an even number of
    marks; a constant or a group (read by recursion) is an Expr, negated for
    an odd number. `leaves` maps names to a group's Vars."""
    products, product = [], []
    kind = tokens[i][0]
    while True:
        value = 1
        while kind == _BANG:
            value ^= 1
            i += 1
            kind = tokens[i][0]
        if kind == _NAME:
            name = tokens[i][1]
        else:
            kind, name, index = tokens[i]
            if kind == _CONST:
                factor = Const(int(name))
            elif kind == _LPAREN and depth < _MAX_DEPTH:
                group, i = _sum(tokens, i + 1, text, multi_letter, leaves, depth + 1)
                if tokens[i][0] != _RPAREN:
                    raise ParseError("unbalanced parentheses: expected ')'",
                                     _byte_offset(text, tokens[i][2]))
                factor = _tree(group, leaves)
            else:
                raise ParseError(_NO_OPERAND.get(kind, f"empty operand: unexpected {name!r}"),
                                 _byte_offset(text, index))
            name = None
        i += 1
        kind = tokens[i][0]
        while kind == _PRIME:
            value ^= 1
            i += 1
            kind = tokens[i][0]
        if name:
            product.append((name, value))
        else:
            product.append(factor if value else _negate(factor))
        if kind == _NAME and not multi_letter:  # a name set beside the last factor
            continue
        if kind == _STAR or kind == _PLUS:
            if kind == _PLUS:
                products.append(product)
                product = []
            i += 1
            kind = tokens[i][0]
        elif kind == _RPAREN or kind == _END:
            products.append(product)
            return products, i
        elif multi_letter:  # any factor set beside the last one
            raise ParseError("missing AND operator (multi-letter mode requires '*')",
                             _byte_offset(text, tokens[i][2]))


def _tree(products, leaves):
    """The Expr of _sum's products: one Var per name in `leaves`, Not only on
    a value-0 literal, And and Or only for two or more operands."""
    terms = []
    for product in products:
        factors = []
        for factor in product:
            if type(factor) is tuple:
                var = leaves.get(factor[0]) or leaves.setdefault(factor[0], Var(factor[0]))
                factor = var if factor[1] else Not(var)
            factors.append(factor)
        terms.append(factors[0] if len(factors) == 1 else And(*factors))
    return terms[0] if len(terms) == 1 else Or(*terms)


def _flat(tree):
    """_tree's inverse: a tree's products, each Var or negated Var a (name,
    value) literal and any other factor an Expr, as _sum reads them."""
    if not isinstance(tree, Expr):  # a (name, value) pair would read as a literal
        raise TypeError(f"not an Expr: {tree!r}")
    products = []
    for term in tree.children if isinstance(tree, Or) else (tree,):
        products.append([])
        for f in term.children if isinstance(term, And) else (term,):
            var = f.child if isinstance(f, Not) else f
            products[-1].append((var.name, int(var is f)) if isinstance(var, Var) else f)
    return products


def _negate(expr):
    return expr.child if isinstance(expr, Not) else Not(expr)  # NOT NOT x == x: no other rewrite


def _read(text, multi_letter):
    """(products, tree) of an expression, the tree None unless it holds a
    constant or a group; ParseError with a byte offset."""
    if not text.strip():
        raise ParseError("empty expression", 0)
    tokens = _tokenize(text, multi_letter)
    leaves = {}  # one Var per name: nodes are frozen and compare by value
    products, i = _sum(tokens, 0, text, multi_letter, leaves, 0)
    kind, tok, index = tokens[i]
    if kind != _END:
        raise ParseError(f"unexpected trailing token {tok!r}", _byte_offset(text, index))
    if set(map(type, chain.from_iterable(products))) == {tuple}:
        return products, None
    tree = _tree(products, leaves)
    return _flat(tree), tree


def parse_expression(text, multi_letter=False):
    """Parse a Boolean expression; raises ParseError with a byte offset."""
    products, tree = _read(text, multi_letter)
    return tree or _tree(products, {})


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


def read_equations(text, multi_letter=False):
    """Read an equation file into an ordered list of (name, products, tree)
    triples. A product is a list of (variable, value) literals as written,
    and tree is None, unless the body holds a constant or a group: then the
    products are _flat(tree), whose factors may be Exprs."""
    equations = []
    for lineno, name, body in _equation_lines(text):
        try:
            equations.append((name, *_read(body, multi_letter)))
        except ParseError as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
    return equations


def parse_equations(text, multi_letter=False):
    """Read an equation file into an ordered list of (name, Expr) pairs."""
    return _trees(read_equations(text, multi_letter))


def _trees(equations):
    """read_equations' triples as (name, Expr) pairs, one Var per name."""
    leaves = {}
    return [(name, tree or _tree(products, leaves)) for name, products, tree in equations]


def _names(equations):
    """The variables of read_equations' triples in first-appearance order."""
    return tuple(dict.fromkeys(chain.from_iterable(
        variables(tree) if tree else (v for product in products for v, _ in product)
        for _, products, tree in equations)))
