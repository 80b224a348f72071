"""Boolean expression AST, reader, evaluator, and printer.

Grammar (text form):

    expr    := term ('+' term)*                 OR
    term    := factor (AND? factor)*            AND: juxtaposition, '*', '.', '·'
    factor  := '!'* primary "'"*                NOT: prefix '!' or postfix apostrophe
    primary := NAME | '0' | '1' | '(' expr ')'

Precedence NOT > AND > OR. The postfix apostrophe binds to the immediately
preceding variable, constant, or parenthesized group. One recursive-descent
reader walks a body's characters once, with no token list, into the
products a PLA's AND plane forms: a name with its marks stays a (name,
value) literal; only a constant or a group (one recursion per group, a '('
nested more than 100 deep refused) becomes a tree node, and then the
reader builds the body's tree, which read_equations flattens back into
products and parse_expression and parse_equations return. Errors rank as
if the body were tokenized first: at an error of the grammar the reader
scans the rest of the body, and a lexical error found there wins. Double
negation is removed while reading; no other rewriting happens, so the tree
mirrors the text.

Two identifier modes:
  * single-letter (default): every letter is its own variable, so "AB'C"
    is the product A · B' · C, and a digit touching a letter is an error;
  * multi-letter: identifiers are [A-Za-z][A-Za-z0-9_]* and AND must be
    written explicitly ('*', '.', or '·') because "AB" would be ambiguous.
Constants 0/1 stand alone; an unexpected character is an error in both.
"""

from dataclasses import dataclass
from itertools import chain, zip_longest

from .errors import FormatError, ParseError

_AND_CHARS = {"*", ".", "·"}  # '·' appears in printed POS equations


class Expr:
    """Base class for expression nodes."""

    __slots__ = ()


def _walk(tree):
    """The parts of a tree's dataclass repr in order, without recursion:
    the text around each Not, And and Or, and each other node itself. A
    tree inside the nesting limit can be some 300 nodes deep, and the
    generated __eq__ and __repr__ recurse about three frames a node."""
    stack = [tree]
    while stack:
        item = stack.pop()
        if isinstance(item, Not):
            yield f"{item.__class__.__qualname__}(child="
            stack += (")", item.child)
        elif isinstance(item, (And, Or)):
            yield f"{item.__class__.__qualname__}(children=("
            stack.append("))")
            for c in reversed(item.children[1:]):
                stack += (c, ", ")
            stack.append(item.children[0])
        else:
            yield item


def _equal(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return all(a == b for a, b in zip_longest(_walk(self), _walk(other)))


def _repr(self):
    return "".join(p if p.__class__ is str else repr(p) for p in _walk(self))


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
    __eq__, __repr__ = _equal, _repr

    def __post_init__(self):
        if not isinstance(self.child, Expr):
            raise TypeError("Not child must be an Expr")


@dataclass(frozen=True, init=False)
class And(Expr):
    children: tuple
    __eq__, __repr__ = _equal, _repr

    def __init__(self, *children):
        object.__setattr__(self, "children", _flatten(And, children))


@dataclass(frozen=True, init=False)
class Or(Expr):
    children: tuple
    __eq__, __repr__ = _equal, _repr

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
# Reader


_MAX_DEPTH = 100  # a '(' nested deeper is refused
_SYMBOLS = {"+", "!", "'", "(", ")", "0", "1", *_AND_CHARS}
_NO_OPERAND = {"(": f"parentheses nested more than {_MAX_DEPTH} deep",
               ")": "unbalanced parentheses: unexpected ')'",
               "": "empty operand: unexpected end of expression"}


def _byte_offset(text, index):
    """The UTF-8 byte offset of character `index`, as a ParseError reports it."""
    return len(text[:index].encode("utf-8"))


def _fail(text, i, multi_letter, message=None, index=None):
    """Raise the first lexical error in text[i:], read from where a token
    starts to the ')' that _read appends, else ParseError(message) at
    character `index`. An unexpected character, and in single-letter mode a
    digit beside a letter or a letter beside a constant, outrank any error
    of the grammar, as if the whole body were tokenized first."""
    while i < len(text):
        ch = text[i]
        i += 1
        if ch.isalpha() and multi_letter:
            while text[i].isalnum() or text[i] == "_":
                i += 1
        elif ch.isalpha() and text[i].isdigit():
            message = f"digit adjacent to variable {ch!r}; constants must stand alone"
            break
        elif ch in "01" and not multi_letter and text[i].isalpha():
            message = f"letter adjacent to constant {ch!r}; constants must stand alone"
            break
        elif not (ch.isalpha() or ch.isspace() or ch in _SYMBOLS):
            message = f"unexpected character {ch!r}"
            break
    else:
        i = index + 1
    raise ParseError(message, _byte_offset(text, i - 1))


def _sum(text, i, multi_letter, leaves, depth):
    """Read products joined by '+' from text[i:] up to the ')' that closes
    them, at the end of a body the one _read appends: (products, the
    position of that ')', plain). Each factor is '!'* primary "'"*: a name
    is a (name, value) literal, value 1 for an even number of marks; a
    constant or a group (read by recursion) is an Expr, negated for an odd
    number, and makes `plain` False. `leaves` maps names to a group's Vars."""
    end = len(text) - 1
    products, product, plain, value = [], [], True, 1
    ch = text[i]
    while True:
        start = i
        i += 1
        if ch.isalpha():
            if multi_letter:
                while text[i].isalnum() or text[i] == "_":
                    i += 1
                name, ch = text[start:i], text[i]
            else:
                name, ch = ch, text[i]
                if ch.isdigit():
                    _fail(text, start, False)
        elif ch == "!":
            value ^= 1
            ch = text[i]
            continue
        elif ch.isspace():
            ch = text[i]
            continue
        else:
            if ch in "01":
                factor, ch = Const(int(ch)), text[i]
                if not multi_letter and ch.isalpha():
                    _fail(text, start, False)
            elif ch == "(" and depth < _MAX_DEPTH:
                group, i, _ = _sum(text, i, multi_letter, leaves, depth + 1)
                if i == end:
                    raise ParseError("unbalanced parentheses: expected ')'",
                                     _byte_offset(text, end))
                factor, i, ch = _tree(group, leaves), i + 1, text[i + 1]
            else:
                ch = "" if start == end else ch
                _fail(text, start, multi_letter,
                      _NO_OPERAND.get(ch, f"empty operand: unexpected {ch!r}"), start)
            name, plain = None, False
        while ch == "'" or ch.isspace():
            if ch == "'":
                value ^= 1
            i += 1
            ch = text[i]
        product.append((name, value) if name else factor if value else _negate(factor))
        value = 1
        if ch == "+":
            products.append(product)
            product, i, ch = [], i + 1, text[i + 1]
        elif ch == ")":
            products.append(product)
            return products, i, plain
        elif ch in _AND_CHARS:
            i, ch = i + 1, text[i + 1]
        elif multi_letter:  # any factor set beside the last one
            _fail(text, i, True, "missing AND operator (multi-letter mode requires '*')", i)
        # in single-letter mode anything else starts the next factor, or fails there


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


def _read(text, multi_letter, leaves):
    """A body's (products, tree): its literals as written and None, or, if
    it holds a constant or a group, _flat of its tree and the tree, whose
    Vars come from `leaves`; ParseError with a byte offset."""
    if not text.strip():
        raise ParseError("empty expression", 0)
    text += ")"  # the ')' that closes the body
    products, i, plain = _sum(text, 0, multi_letter, leaves, 0)
    if i < len(text) - 1:
        _fail(text, i, multi_letter, "unexpected trailing token ')'", i)
    if plain:
        return products, None
    tree = _tree(products, leaves)
    return _flat(tree), tree


def parse_expression(text, multi_letter=False):
    """Parse a Boolean expression; raises ParseError with a byte offset."""
    leaves = {}  # one Var per name: nodes are frozen and compare by value
    products, tree = _read(text, multi_letter, leaves)
    return _tree(products, leaves) if tree is None else tree


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
    """Distinct variable names of the expressions, in first-appearance order."""
    return tuple(dict.fromkeys(v.name for e in exprs for v in _walk(e) if isinstance(v, Var)))


def check_names(equations, order, where):
    """Raise "equation 'F' uses variables {where}: [...]" for the first of
    read_equations' (name, products) pairs with a variable outside `order`;
    callers run it once a build has failed."""
    for name, products in equations:
        missing = set(_names([(name, products)])).difference(order)
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
        if not (name[:1].isalpha() and all(c.isalnum() or c == "_" for c in name)):
            raise FormatError(f"line {lineno}: bad equation name {name!r}")
        if name in seen:
            raise FormatError(f"line {lineno}: duplicate equation name {name!r}")
        seen.add(name)
        yield lineno, name, body


def _bodies(text, multi_letter, leaves):
    """(name, products, tree) of each equation in order, _read of its body."""
    for lineno, name, body in _equation_lines(text):
        try:
            products, tree = _read(body, multi_letter, leaves)
        except ParseError as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
        yield name, products, tree


def read_equations(text, multi_letter=False):
    """Read an equation file into an ordered list of (name, products)
    pairs. A product is a list of (variable, value) literals as written,
    unless the body holds a constant or a group: then the products are
    _flat of its tree, whose factors may be Exprs."""
    return [(name, products) for name, products, _ in _bodies(text, multi_letter, {})]


def parse_equations(text, multi_letter=False):
    """Read an equation file into an ordered list of (name, Expr) pairs."""
    leaves = {}  # one Var per name
    return [(name, _tree(products, leaves) if tree is None else tree)
            for name, products, tree in _bodies(text, multi_letter, leaves)]


def _names(equations):
    """The variables of read_equations' pairs in first-appearance order."""
    return tuple(dict.fromkeys(chain.from_iterable(
        (f[0],) if type(f) is tuple else variables(f)
        for _, products in equations for product in products for f in product)))
