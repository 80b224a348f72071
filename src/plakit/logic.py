"""Truth tables, cubes, and covers.

A truth table over n ordered variables is stored as one Python int whose
bit i is the output on input row i. Rows are numbered big-endian from the
variable order: the leftmost variable is the most significant bit, so with
order (A, B, C) row 6 is A=1, B=1, C=0. Bit-parallel evaluation makes an
exhaustive sweep one OR of product masks instead of 2^n evaluations.

At the API a cube is a string over {'0', '1', '-'}, one character per
variable in order: '1' means the variable appears true, '0' complemented,
'-' absent, as in the Berkeley PLA input plane. Inside, it is the
(req1, req0) literal-word pair the device compiles AND rows into
(`cube_words`, `cube_string`), and its rows are a row mask (`cube_mask`).
`interleave` sets the pair side by side: a fuse-map AND row, and a key
that sorts pairs as their cube strings sort. A cover is an ordered list
of cubes whose union (OR of products) is the function. An input vector
is n binary digits. `check_cube`, `check_cubes` (one test for a whole
list) and `check_bits` are the one place either text format is checked.
`_body_mask` is the one evaluator of an equation body, read from its
products; `_literal_mask` keeps the one-literal masks the prime walk and
the fault sweep read; `_coverage` is the one covered-once/covered-twice
fold: essential primes, fault visibility and shared terms all come from it.
"""

from dataclasses import dataclass, field
from functools import lru_cache

from . import expr as ex

MAX_VARS = 24  # exhaustive 2^n sweeps stay cheap up to here

_CUBE_CHARS = frozenset("01-")
_BIT_CHARS = frozenset("01")
_REQ1 = bytes.maketrans(b"01-", b"010")  # cube -> word of its true literals
_REQ0 = bytes.maketrans(b"01-", b"100")  # cube -> word of its complemented literals
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")  # 0/1 byte values -> binary digits
# 8 bits spread to the even bits of 16: a variable's two interleaved bits
_SPREAD = tuple(sum((x >> k & 1) << 2 * k for k in range(8)) for x in range(256))
# a hex digit of an interleaved word is two variables' (req1, req0) bits
_HEX_CUBES = {ord(f"{v:x}"): "-011"[v >> 2] + "-011"[v & 3] for v in range(16)}


def _check_order(order):
    order = tuple(order)
    if not order:
        raise ValueError("variable order must not be empty")
    if len(set(order)) != len(order):
        raise ValueError(f"duplicate variable in order: {order}")
    if len(order) > MAX_VARS:
        raise ValueError(f"{len(order)} variables exceeds the limit of {MAX_VARS}")
    return order


@dataclass(frozen=True)
class TruthTable:
    """Single-output truth table: bit i of `bits` is the output on row i."""

    order: tuple
    bits: int

    def __post_init__(self):
        object.__setattr__(self, "order", _check_order(self.order))
        full = (1 << (1 << len(self.order))) - 1
        if not 0 <= self.bits <= full:
            raise ValueError("table bits out of range for variable count")

    @property
    def n(self):
        return len(self.order)

    def value(self, row):
        if not 0 <= row < (1 << self.n):
            raise ValueError(f"row {row} out of range")
        return (self.bits >> row) & 1

    def rows(self):
        """Yield (input_string, output_bit) over all 2^n rows in order."""
        n = self.n
        digits = format(self.bits, f"0{1 << n}b")[::-1]  # character i is row i
        yield from zip(map(f"{{:0{n}b}}".format, range(1 << n)), map(int, digits))

    def on_set(self):
        """Row indices where the output is 1, ascending."""
        return mask_rows(self.bits)

    def complement(self):
        full = (1 << (1 << self.n)) - 1
        return TruthTable(self.order, self.bits ^ full)


def table_from_expr(expr, order=None):
    """Build the table of an expression; order defaults to first appearance."""
    if order is None:
        order = ex.variables(expr)
        if not order:  # a constant has no rows to number; callers give an order
            raise ValueError("expression has no variables; pass an explicit order")
    bits = _order_bits(order)
    try:
        return TruthTable(tuple(bits), _body_mask(ex._flat(expr), bits))
    except KeyError:  # a name not in `order`: report every such name
        missing = set(ex.variables(expr)) - set(bits)
        raise ValueError(f"order is missing variables: {sorted(missing)}") from None


def table_from_rows(order, outputs):
    """Build a table from an iterable of 2^n output bits, row 0 first."""
    order = _check_order(order)
    outputs = list(outputs)
    if len(outputs) != 1 << len(order):
        raise ValueError(
            f"expected {1 << len(order)} outputs for {len(order)} variables, "
            f"got {len(outputs)}"
        )
    for i, bit in enumerate(outputs):
        if bit not in (0, 1):
            raise ValueError(f"row {i}: output must be 0 or 1, got {bit!r}")
    # one binary-digit string, row 0 last
    return TruthTable(order, int(bytes(outputs[::-1]).translate(_DIGITS), 2))


# ---------------------------------------------------------------------------
# Cubes


def check_cube(cube, n):
    """The cube, unless it is not n characters of 0/1/- (ValueError)."""
    if len(cube) != n or not _CUBE_CHARS.issuperset(cube):
        raise ValueError(f"input cube {cube!r} is not {n} chars of 0/1/-")
    return cube


def _texts_ok(texts, n, chars=b"01-"):
    """Is every text (a string) n characters from the bytes `chars`? One test for them all."""
    text = "".join(texts)
    return (not set(map(len, texts)) - {n} and text.isascii()
            and not text.encode().translate(None, chars))


def check_cubes(cubes, n):
    """The cubes as a tuple; check_cube's ValueError for the first bad one."""
    cubes = tuple(cubes)
    if not _texts_ok(cubes, n):
        for cube in cubes:
            check_cube(cube, n)
    return cubes


def _label_line(labels, comments=False):
    """The labels joined by spaces, unless a reader would split, drop or
    refuse one: ValueError for an empty label, one holding whitespace, a
    repeated one, or with `comments` one holding '#'."""
    line = " ".join(labels)
    if line.split() != list(labels) or comments and "#" in line:
        bad = next(s for s in labels if s.split() != [s] or comments and "#" in s)
        raise ValueError(f"label {bad!r} would not read back as itself")
    if len(set(labels)) < len(labels):
        raise ValueError(f"labels repeat a name: {line}")
    return line


def check_bits(bits, n):
    """An input vector (string or 0/1 sequence) as n binary digits, else ValueError."""
    if not isinstance(bits, str):
        bits = "".join(str(b) for b in bits)
    if len(bits) != n or not _BIT_CHARS.issuperset(bits):
        raise ValueError(f"input {bits!r} is not {n} binary digits")
    return bits


def _product_mask(n, req1, req0):
    """Rows of the product needing variable j at 1 where bit n-1-j of req1
    is set and at 0 where that bit of req0 is set: the rows of the cube
    anchored at row 0 over the absent variables, doubled once per absent
    bit, then shifted up to row req1. A contradictory pair covers none."""
    if req1 & req0:
        return 0
    free = ((1 << n) - 1) & ~(req1 | req0)
    rows = 1
    while free:
        bit = free & -free
        free ^= bit
        rows |= rows << bit
    return rows << req1


@lru_cache(maxsize=None)
def _literal_mask(n, j, value):
    """Rows where variable j of n reads `value`: the one-literal product's
    rows, or their complement, built on first use and kept for the life of
    the process for the prime walk and the fault sweep; no table fills one."""
    if value:
        return _product_mask(n, 1 << (n - 1 - j), 0)
    return _literal_mask(n, j, 1) ^ (1 << (1 << n)) - 1


def _coverage(masks):
    """(rows at least one of the masks covers, rows two or more cover)."""
    once = twice = 0
    for m in masks:
        once, twice = once | m, twice | once & m
    return once, twice


def mask_rows(mask):
    """Indices of the set bits of a row mask, ascending."""
    digits = format(mask, "b")[::-1]
    rows = []
    row = digits.find("1")
    while row >= 0:
        rows.append(row)
        row = digits.find("1", row + 1)
    return rows


def cube_words(cube):
    """(req1, req0) literal words of a cube: bit n-1-j of req1 is set where
    variable j appears true, of req0 where it appears complemented."""
    cube = cube.encode()
    return int(cube.translate(_REQ1), 2), int(cube.translate(_REQ0), 2)


def interleave(words):
    """Bit k of req1 at bit 2k+1 and of req0 at bit 2k, for words of at most
    MAX_VARS bits: per variable 00 for '-', 01 for '0' and 10 for '1'."""
    req1, req0 = words
    return ((_SPREAD[req1 & 255] | _SPREAD[req1 >> 8 & 255] << 16
             | _SPREAD[req1 >> 16] << 32) << 1
            | _SPREAD[req0 & 255] | _SPREAD[req0 >> 8 & 255] << 16 | _SPREAD[req0 >> 16] << 32)


def _key_cubes(n, keys):
    """The n-character cubes of `interleave` keys, read as whole hex digits,
    all with one translate."""
    digits, shift = n + 1 >> 1, 2 * (n & 1)
    text = "".join([format(key << shift, f"0{digits}x") for key in keys]).translate(_HEX_CUBES)
    return [text[i:i + n] for i in range(0, len(text), 2 * digits)]


def cube_string(n, req1, req0):
    """The n-character cube of a (req1, req0) pair; a variable in both reads '1'."""
    return _key_cubes(n, [interleave((req1, req0))])[0]


def cube_mask(cube, n=None):
    """Bitmask of the rows a cube covers."""
    if n is None:
        n = len(cube)
    check_cube(cube, n)
    return _product_mask(n, *cube_words(cube))


def cube_contains(cube, bits):
    """Does the cube cover the input string `bits`?"""
    return all(c == "-" or c == b for c, b in zip(cube, bits, strict=True))


def minterm_cube(row, n):
    """The fully-specified cube selecting exactly row `row`."""
    if not 0 <= row < (1 << n):
        raise ValueError(f"row {row} out of range for {n} variables")
    return format(row, f"0{n}b")


def _low(mask):
    """The lowest set row of a mask plus one; 0 for an empty mask."""
    return (mask & -mask).bit_length()


def lowest_row(diff, n):
    """Input string of the lowest set bit of a 2^n-row mask, or None if 0."""
    low = _low(diff)
    return minterm_cube(low - 1, n) if low else None


# ---------------------------------------------------------------------------
# Covers


@dataclass(frozen=True)
class Cover:
    """Ordered sum-of-products cover: OR of the product terms in `cubes`."""

    order: tuple
    cubes: tuple = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "order", _check_order(self.order))
        object.__setattr__(self, "cubes", check_cubes(self.cubes, len(self.order)))

    @property
    def n(self):
        return len(self.order)

    def __len__(self):
        return len(self.cubes)

    def to_table(self):
        n, bits, minterms = self.n, 0, []
        for cube in self.cubes:  # checked when the cover was made
            if "-" in cube:
                bits |= _product_mask(n, *cube_words(cube))
            else:
                minterms.append(int(cube, 2))
        if minterms:  # one binary-digit string, row r at digit 2^n-1-r
            digits = bytearray(b"0" * (1 << n))
            for row in minterms:
                digits[~row] = 49  # "1"
            bits |= int(digits, 2)
        return TruthTable(self.order, bits)

    def to_expr(self):
        """Expression form; the empty cover is the constant 0."""
        if not self.cubes:
            return ex.Const(0)
        terms = [_cube_to_term(cube, self.order) for cube in self.cubes]
        return terms[0] if len(terms) == 1 else ex.Or(*terms)


def _cube_to_term(cube, order):
    literals = []
    for name, c in zip(order, cube, strict=True):
        if c == "1":
            literals.append(ex.Var(name))
        elif c == "0":
            literals.append(ex.Not(ex.Var(name)))
    if not literals:
        return ex.Const(1)  # the all-'-' cube is the constant-1 product
    return literals[0] if len(literals) == 1 else ex.And(*literals)


def cover_eval(cover, bits):
    """Evaluate a cover on one input string (or sequence of 0/1)."""
    bits = check_bits(bits, cover.n)
    return 1 if any(cube_contains(cube, bits) for cube in cover.cubes) else 0


def canonical_sop(table):
    """Canonical SOP cover: one fully-specified cube per on-set row, ascending."""
    n = table.n
    return Cover(table.order, tuple(minterm_cube(i, n) for i in table.on_set()))


def canonical_pos(table):
    """Canonical POS expression: one max-term (OR of literals) per off-set row.

    A variable appears complemented in a max-term exactly when it is 1 in
    the row being excluded. A table with no zeros is the constant 1; a
    table with no ones is the constant 0.
    """
    n = table.n
    zero_rows = table.complement().on_set()
    if not zero_rows:
        return ex.Const(1)
    if len(zero_rows) == 1 << n:
        return ex.Const(0)
    factors = []
    for row in zero_rows:
        literals = [ex.Not(ex.Var(name)) if row >> (n - 1 - j) & 1 else ex.Var(name)
                    for j, name in enumerate(table.order)]
        factors.append(literals[0] if len(literals) == 1 else ex.Or(*literals))
    return factors[0] if len(factors) == 1 else ex.And(*factors)


def cover_from_expr(expr, order):
    """Translate an SOP-shaped expression term-for-term into a cover.

    Accepts an OR of products (or a single product) where each product is
    an AND of literals; a literal is a variable, a complemented variable,
    or a constant. Repeated literals collapse; a product containing both X
    and X' contributes nothing; a constant-1 term becomes the all-'-' cube.
    Raises ValueError when the expression is not in SOP shape.
    """
    order = _check_order(order)
    try:
        words = _sop_words(ex._flat(expr), _order_bits(order))
    except KeyError as exc:
        raise ValueError(f"variable {exc.args[0]!r} not in order") from None
    if isinstance(words, list):
        return Cover(order, tuple(cube_string(len(order), *w) for w in words))
    term = (expr.children if isinstance(expr, ex.Or) else (expr,))[words]  # _flat's order
    raise ValueError(f"not a sum-of-products expression: {ex.format_expression(term)!r} "
                     "is not a product of literals")


def _order_bits(order):
    """The bit in a literal word of each variable of an order _check_order passes."""
    order = _check_order(order)
    return {name: 1 << (len(order) - 1 - j) for j, name in enumerate(order)}


def _body_mask(products, bits):
    """Rows where a body's products (expr.read_equations' form) are 1, over
    an order's _order_bits: a product's literals make one _product_mask, a
    constant keeps or clears it, and any other factor ANDs in the rows of its
    own _flat products, complemented for a Not. KeyError for any name outside."""
    n, rows = len(bits), 0
    for product in products:
        req, mask = [0, 0], -1  # req0, req1; the rows the other factors keep
        for f in product:
            if type(f) is tuple:
                req[f[1]] |= bits[f[0]]
            elif isinstance(f, ex.Const):
                mask &= -f.value  # 1: every row, 0: none
            elif isinstance(f, ex.Not):
                mask &= ~_body_mask(ex._flat(f.child), bits)
            elif isinstance(f, ex.Or):
                mask &= _body_mask(ex._flat(f), bits)
            else:
                raise TypeError(f"not an Expr: {f!r}")
        rows |= _product_mask(n, req[1], req[0]) & mask
    return rows


def _sop_words(products, bits):
    """(req1, req0) of each of a body's products (expr.read_equations' form)
    read left to right, a product that is 0 (a constant 0, or X and X')
    dropped; or the index of the first with another factor while it may be
    nonzero. KeyError for the first name outside `bits`, a 0 product read to its end."""
    words = []
    for i, product in enumerate(products):
        req, zero = [0, 0], False  # req0, req1; a constant 0 met
        for f in product:
            if type(f) is tuple:
                req[f[1]] |= bits[f[0]]
            elif isinstance(f, ex.Const):
                zero = zero or not f.value
            elif zero or req[0] & req[1]:  # only the names of a 0 product are read
                for name in ex.variables(f):
                    bits[name]  # noqa: B018 - KeyError for a name outside
            else:
                return i
        if not (zero or req[0] & req[1]):
            words.append((req[1], req[0]))
    return words


# ---------------------------------------------------------------------------
# Equivalence


def _as_table(obj, order=None):
    if isinstance(obj, TruthTable):
        return obj
    if isinstance(obj, Cover):
        return obj.to_table()
    if isinstance(obj, ex.Expr):
        return table_from_expr(obj, order)
    raise TypeError(f"expected TruthTable, Cover, or Expr, got {obj!r}")


def _common_order(a, b):
    orders = [x.order for x in (a, b) if isinstance(x, (TruthTable, Cover))]
    if len(orders) == 2 and orders[0] != orders[1]:
        raise ValueError(
            f"variable orders differ: {orders[0]} vs {orders[1]}; compare under one order"
        )
    # two bare expressions: union of variables in first-appearance order
    return orders[0] if orders else ex.variables(a, b)


def counterexample(a, b):
    """Lowest input row (as a string) where a and b differ, or None if equal.

    Arguments may be TruthTable, Cover, or Expr in any combination, all
    over the same variable order.
    """
    order = _common_order(a, b)
    ta = _as_table(a, order)
    tb = _as_table(b, order)
    return lowest_row(ta.bits ^ tb.bits, len(order))


def equivalent(a, b):
    """Exhaustive equivalence over a shared variable order."""
    return counterexample(a, b) is None
