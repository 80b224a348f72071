"""PLA device model: planes of crosspoints, evaluation, and stuck faults.

A device has p AND rows (product terms) by 2n AND columns -- column 2j
carries input j true, column 2j+1 carries its complement -- and m OR rows
by p columns. A stored 1 always means "connected", whichever switch
technology the profile names: fuse arrays start fully connected and are
blown open, antifuse arrays start open and are programmed closed. The
starting image differs; the meaning of the programmed image does not.

Evaluation rules fall out of wired-AND/wired-OR behaviour:
  * an AND row with no connections is the constant-1 product;
  * an AND row connected to both polarities of one input is constant 0;
  * an OR row with no connections is constant 0;
  * a set polarity bit complements that output (the macrocell XOR), which
    is how a product-of-sums form is realized on sum-of-products hardware.

The fault model is the single stuck crosspoint: one crosspoint reads as
connected or as disconnected no matter what was programmed. OR-plane fault
coordinates are (output row, term column), matching the stored or_plane.
"""

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache, reduce
from itertools import accumulate, chain
from operator import or_

from .logic import (MAX_VARS, _coverage, _label_line, _literal_mask, _low, _product_mask,
                    check_bits, interleave, mask_rows, minterm_cube)

SWITCH_TECHS = ("fuse", "antifuse")
PLANES = ("and", "or")
STUCK_MODES = ("connected", "disconnected")
_INT_TYPES = {int, bool}  # a plane word's type; other int subclasses take the slow test


@dataclass(frozen=True)
class PlaProfile:
    """Capacities and features of a target device."""

    n_inputs: int
    n_terms: int
    n_outputs: int
    switch_tech: str = "fuse"
    has_output_xor: bool = False

    def __post_init__(self):
        for field_name in ("n_inputs", "n_terms", "n_outputs"):
            v = getattr(self, field_name)
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"{field_name} must be a positive int, got {v!r}")
        if self.n_inputs > MAX_VARS:
            raise ValueError(
                f"n_inputs {self.n_inputs} exceeds the simulation limit of {MAX_VARS}"
            )
        if self.switch_tech not in SWITCH_TECHS:
            raise ValueError(f"switch_tech must be one of {SWITCH_TECHS}")


@dataclass(frozen=True)
class PlaState:
    """One programmed image of a device: 1 = crosspoint connected.

    The planes are stored as words. AND row t is a (req1, req0) pair: bit
    n-1-j of req1 connects input j true (column 2j), the same bit of req0
    its complement (column 2j+1). Bit t of OR row o connects term t to
    output o. Bit m-1-o of pol_word is output o's polarity. The same holds
    for every word the image reads or returns: input j is bit n-1-j of an
    input word, so int(bits, 2) is the word of an input string and row r
    of a 2^n-row mask is input word r; term t is bit t of a term word;
    output o is bit m-1-o of an output word.

    The cached properties below are built on first read and kept outside
    the dataclass fields, so equality, hashing and replace() see the words
    alone, and every edit makes a new instance, so none goes stale.
    and_plane, or_plane and polarity show the image as 0/1 ints; the
    private ones are integer views: _keep reads the AND plane by column
    for evaluation, and the term and output masks, with each term's
    _exposed rows, serve the fault sweep. The output masks are the v = n
    case of _masks_over(v), the masks over the first v inputs with the
    others at 0: a controller's step tables read them without _keep.
    """

    profile: PlaProfile
    and_words: tuple  # p (req1, req0) pairs of n-bit words
    or_words: tuple  # m words of p bits
    pol_word: int = 0  # m bits

    def __post_init__(self):
        p = self.profile
        try:
            and_words = tuple(map(tuple, self.and_words))
            paired = len(and_words) == p.n_terms and set(map(len, and_words)) <= {2}
        except TypeError:  # a row that is not a sequence
            paired = False
        if not paired:
            raise ValueError(f"and_plane needs {p.n_terms} (req1, req0) word pairs")
        try:
            or_words = tuple(self.or_words)
        except TypeError:  # a plane that is not a sequence
            raise ValueError(f"or_plane needs {p.n_outputs} words") from None
        if len(or_words) != p.n_outputs:
            raise ValueError(f"or_plane has {len(or_words)} rows, expected {p.n_outputs}")
        try:  # padding rows repeat one pair: the range test reads each distinct pair once
            literals = list(chain.from_iterable(set(and_words)))
        except TypeError:  # an unhashable word
            literals = [None]
        # one test per plane: types over every word, as (1.0, 0) == (1, 0), range over the
        # distinct ones; word by word, in row order, only to name the first bad one
        for name, types, distinct, words, width in (
                ("and_plane", set(map(type, chain.from_iterable(and_words))), literals,
                 chain.from_iterable(and_words), p.n_inputs),
                ("or_plane", set(map(type, or_words)), or_words, or_words, p.n_terms),
                ("polarity", {type(self.pol_word)}, (self.pol_word,), (self.pol_word,),
                 p.n_outputs)):
            if not (types <= _INT_TYPES and min(distinct) >= 0 and max(distinct) >> width == 0):
                for w in words:
                    if not (isinstance(w, int) and 0 <= w < 1 << width):
                        raise ValueError(f"{name} holds {w!r}, not a {width}-bit word")
        if self.pol_word and not p.has_output_xor:
            raise ValueError("polarity bits set but profile has no output XOR")
        object.__setattr__(self, "and_words", and_words)
        object.__setattr__(self, "or_words", or_words)

    @cached_property
    def and_plane(self):
        """p rows x 2n columns of 0/1."""
        shifts = range(self.profile.n_inputs - 1, -1, -1)
        return tuple(tuple(w >> s & 1 for s in shifts for w in pair) for pair in self.and_words)

    @cached_property
    def or_plane(self):
        """m rows x p columns of 0/1."""
        terms = range(self.profile.n_terms)
        return tuple(tuple(word >> t & 1 for t in terms) for word in self.or_words)

    @cached_property
    def polarity(self):
        """m bits of 0/1."""
        return tuple(self.pol_word >> s & 1 for s in range(self.profile.n_outputs - 1, -1, -1))

    @cached_property
    def _full(self):
        return (1 << (1 << self.profile.n_inputs)) - 1

    @cached_property
    def _keep(self):
        """_keep[s]: (the terms alive when bit s of the input word reads 0, when
        it reads 1) -- every term off that input's true, then complement, column."""
        every = (1 << len(self.and_words)) - 1
        keep = [[every, every] for _ in range(self.profile.n_inputs)]
        for t, lits in enumerate(self.and_words):
            for value, req in enumerate(lits):  # req1 dies on 0, req0 on 1
                while req:
                    low = req & -req
                    keep[low.bit_length() - 1][value] ^= 1 << t
                    req ^= low
        return tuple(map(tuple, keep))

    def _eval(self, x):
        """Output word for input word x: one AND per input bit, then one
        test per OR row."""
        alive = -1
        for keep in self._keep:
            alive &= keep[x & 1]
            x >>= 1
        word = 0
        for row in self.or_words:
            word = word << 1 | (alive & row != 0)
        return word ^ self.pol_word

    @cached_property
    def _terms(self):  # one mask per distinct AND pair: padding rows share one
        masks = {lits: _product_mask(self.profile.n_inputs, *lits) for lits in set(self.and_words)}
        return tuple(map(masks.__getitem__, self.and_words))

    @cached_property
    def _connected(self):
        """_connected[o]: the terms OR row o connects, ascending."""
        return tuple(map(mask_rows, self.or_words))

    @cached_property
    def _raw(self):
        """Output masks before the polarity XOR."""
        return self._raw_over(self.profile.n_inputs)

    @cached_property
    def _masks(self):
        return self._masks_over(self.profile.n_inputs)

    def _raw_over(self, v):
        """_raw over the 2^v rows of the first v inputs, the other n - v
        inputs at 0: a term that needs one of those at 1 is dead. v = n reads
        _terms; a smaller v builds the connected terms' masks alone."""
        shift = self.profile.n_inputs - v
        unused = (1 << shift) - 1
        terms = self._terms if not shift else {
            t: 0 if req1 & unused else _product_mask(v, req1 >> shift, req0 >> shift)
            for t in set().union(*self._connected) for req1, req0 in [self.and_words[t]]}
        return tuple(reduce(or_, map(terms.__getitem__, ts), 0) for ts in self._connected)

    def _masks_over(self, v):
        """Output masks over the first v inputs, the others at 0: _raw_over(v)
        after the polarity XOR."""
        raw = self._raw if v == self.profile.n_inputs else self._raw_over(v)
        full = (1 << (1 << v)) - 1
        return tuple(m ^ full if pol else m for m, pol in zip(raw, self.polarity))

    @cached_property
    def _twice(self):
        """Rows of each output that two or more connected terms cover."""
        return tuple(_coverage(map(self._terms.__getitem__, ts))[1] for ts in self._connected)

    @cached_property
    def _exposed(self):
        """_exposed[t]: (seen, dark). seen: term t's rows where some output it
        feeds has no other cover, so losing one shows; dark: the rows where
        some output it feeds reads 0, so gaining one shows."""
        full, terms = self._full, self._terms
        alone, lit = [0] * len(terms), [full] * len(terms)
        for ts, raw, twice in zip(self._connected, self._raw, self._twice):
            once = full ^ twice
            for t in ts:
                alone[t] |= once
                lit[t] &= raw
        return tuple((m & a, full ^ b) for m, a, b in zip(terms, alone, lit))


def blank_device(profile):
    """The unprogrammed image: fuse arrays all connected, antifuse all open."""
    fuse = profile.switch_tech == "fuse"
    literals = (1 << profile.n_inputs) - 1 if fuse else 0
    terms = (1 << profile.n_terms) - 1 if fuse else 0
    return PlaState(profile, ((literals, literals),) * profile.n_terms,
                    (terms,) * profile.n_outputs)


def _crosspoint(state, plane, row, col):
    """The stored bit at crosspoint (row, col), after checking it exists."""
    if plane not in PLANES:
        raise ValueError(f"plane must be one of {PLANES}, got {plane!r}")
    prof = state.profile
    rows, cols = ((prof.n_terms, 2 * prof.n_inputs) if plane == "and"
                  else (prof.n_outputs, prof.n_terms))
    if not (0 <= row < rows and 0 <= col < cols):
        raise ValueError(f"{plane} plane has no crosspoint ({row}, {col})")
    if plane == "and":
        return state.and_words[row][col & 1] >> (prof.n_inputs - 1 - (col >> 1)) & 1
    return state.or_words[row] >> col & 1


def set_crosspoint(state, plane, row, col, connected):
    """Return a new image with one crosspoint forced to `connected` (0 or 1)."""
    if connected not in (0, 1):
        raise ValueError(f"crosspoint value must be 0 or 1, got {connected!r}")
    change = _crosspoint(state, plane, row, col) ^ connected
    if plane == "and":
        pair = list(state.and_words[row])
        pair[col & 1] ^= change << (state.profile.n_inputs - 1 - (col >> 1))
        words = state.and_words
        return replace(state, and_words=words[:row] + (tuple(pair),) + words[row + 1 :])
    words = state.or_words
    return replace(state, or_words=words[:row] + (words[row] ^ change << col,)
                   + words[row + 1 :])


def set_polarity(state, index, bit):
    if not state.profile.has_output_xor:
        raise ValueError("profile has no output XOR; polarity is fixed at 0")
    if bit not in (0, 1):
        raise ValueError(f"polarity bit must be 0 or 1, got {bit!r}")
    if not 0 <= index < state.profile.n_outputs:
        raise ValueError(f"no output {index}")
    w = 1 << (state.profile.n_outputs - 1 - index)
    return replace(state, pol_word=state.pol_word & ~w | (w if bit else 0))


# ---------------------------------------------------------------------------
# Evaluation


def eval_pla(state, bits):
    """Evaluate one input vector; returns the m-character output string."""
    word = state._eval(int(check_bits(bits, state.profile.n_inputs), 2))
    return format(word, f"0{state.profile.n_outputs}b")


def output_masks(state):
    """Bit-parallel exhaustive evaluation: one 2^n-bit mask per output."""
    return state._masks


# ---------------------------------------------------------------------------
# Stuck-crosspoint faults


@dataclass(frozen=True)
class Fault:
    """One crosspoint stuck connected or disconnected."""

    plane: str
    row: int
    col: int
    stuck: str

    def __post_init__(self):
        if self.plane not in PLANES:
            raise ValueError(f"plane must be one of {PLANES}, got {self.plane!r}")
        if self.stuck not in STUCK_MODES:
            raise ValueError(f"stuck must be one of {STUCK_MODES}, got {self.stuck!r}")

    def __str__(self):
        return f"{self.plane}[{self.row},{self.col}] stuck-{self.stuck}"


def inject_fault(state, fault):
    """Image as the faulty part would behave: the crosspoint reads `stuck`."""
    value = 1 if fault.stuck == "connected" else 0
    return set_crosspoint(state, fault.plane, fault.row, fault.col, value)


def enumerate_faults(profile):
    """Every single stuck-crosspoint fault, in a fixed deterministic order."""
    shapes = (("and", profile.n_terms, 2 * profile.n_inputs),
              ("or", profile.n_outputs, profile.n_terms))
    return [Fault(plane, row, col, stuck) for plane, rows, cols in shapes
            for row in range(rows) for col in range(cols) for stuck in STUCK_MODES]


@lru_cache(maxsize=None)
def _inputs(n):
    """(bit, rows where it reads 0, rows where it reads 1) for each input j
    of n; its bit, 1 << (n-1-j), is also the row distance across input j."""
    return tuple((1 << (n - 1 - j), _literal_mask(n, j, 0), _literal_mask(n, j, 1))
                 for j in range(n))


def _and_lows(state, t):
    """The low of each fault of AND row t, in enumerate_faults order: one
    plus the lowest row where it changes an output, or 0 if it changes none.
    A joining literal loses the `seen` rows where it reads 0: the complement
    of a held literal empties the term, so that whole kill class shares one
    low, and a free input's two literals split `seen`. A leaving literal
    gains, where `dark`, the term's mirror image across its input."""
    n = state.profile.n_inputs
    seen, dark = state._exposed[t]
    if not (seen or dark):
        return [0] * (4 * n)
    term, (req1, req0) = state._terms[t], state.and_words[t]
    contradictory = req1 & req0
    kill = _low(seen)
    lows = []
    for bit, zeros, ones in _inputs(n):
        if contradictory:  # constant 0: a leaving literal's gain is rebuilt
            lows += (0, _low(_product_mask(n, req1 ^ bit, req0) & dark) if req1 & bit else 0,
                     0, _low(_product_mask(n, req1, req0 ^ bit) & dark) if req0 & bit else 0)
        elif req1 & bit:
            lows += (0, _low(term >> bit & dark), kill, 0)
        elif req0 & bit:
            lows += (kill, 0, 0, _low(term << bit & dark))
        elif (kill - 1) & bit:  # the lowest seen row reads 1 (or none is seen)
            lows += (_low(seen & zeros), 0, kill, 0)
        else:  # the lowest seen row reads 0: the true literal loses it
            lows += (kill, 0, _low(seen & ones), 0)
    return lows


def _or_lows(state, o):
    """The low of each fault of OR row o, in enumerate_faults order.
    Disconnecting a term loses the rows no other connected term covers;
    connecting one gains its rows the output lacks."""
    row, lost, gained = state.or_words[o], ~state._twice[o], ~state._raw[o]
    lows = []
    for t, m in enumerate(state._terms):
        lows += (0, _low(m & lost)) if row >> t & 1 else (_low(m & gained), 0)
    return lows


def find_test_vector(state, fault):
    """Lowest input vector whose outputs expose the fault, or None.

    None means the fault is undetectable on this image -- usually because
    the stuck value equals the programmed value, or the crosspoint feeds
    nothing observable. Only the faulted row's lows are derived."""
    _crosspoint(state, fault.plane, fault.row, fault.col)
    row_lows = _and_lows if fault.plane == "and" else _or_lows
    low = row_lows(state, fault.row)[2 * fault.col + (fault.stuck == "disconnected")]
    return minterm_cube(low - 1, state.profile.n_inputs) if low else None


def fault_sweep(state):
    """The `fault --all` transcript: (lines, detected). Fault f of
    enumerate_faults(state.profile) reads f"{f}: {verdict or 'undetectable'}",
    with find_test_vector's verdict; each string of `lines` holds one
    crosspoint's two faults, and `detected` counts the faults with a vector."""
    n = state.profile.n_inputs
    lines, detected = [], 0
    verdicts = {0: "undetectable"}  # low -> its line ending
    for plane, rows, cols, row_lows in (
            ("and", len(state.and_words), 2 * n, _and_lows),
            ("or", len(state.or_words), state.profile.n_terms, _or_lows)):
        tails = [(f"{c}] stuck-connected: ", f"{c}] stuck-disconnected: ") for c in range(cols)]
        lows = list(chain.from_iterable(row_lows(state, r) for r in range(rows)))
        for low in set(lows).difference(verdicts):
            verdicts[low] = minterm_cube(low - 1, n)
        detected += len(lows) - lows.count(0)
        pairs = iter(map(verdicts.__getitem__, lows))
        lines += [f"{head}{on}{a}\n{head}{off}{b}\n"
                  for head in [f"{plane}[{r}," for r in range(rows)]
                  for (on, off), a, b in zip(tails, pairs, pairs)]
    return lines, detected


# ---------------------------------------------------------------------------
# Diagram


def _and_rows(state):
    """The AND plane as one 0/1 text line per row, column 2j input j true
    and 2j+1 its complement (the fuse map's AND section). Padding rows
    repeat one pair, so each distinct pair is formatted once."""
    width = f"0{2 * state.profile.n_inputs}b"
    rows = {w: format(interleave(w), width) for w in set(state.and_words)}
    return list(map(rows.__getitem__, state.and_words))


_MARKS = bytes.maketrans(b"01", b".X")


def render_crosspoint_diagram(state, input_names=None, output_names=None):
    """ASCII crosspoint map: X connected, . open, AND plane | OR plane.

    Each input owns a true/complement column pair; each line below the
    header is one product term showing which outputs it feeds. A POL line
    appears only on devices with the output XOR. Every term line has one
    length, ending at the last OR column, so the term lines are one buffer
    with a fixed stride and each column of them is one strided slice.
    """
    prof = state.profile
    p = prof.n_terms
    if input_names is None:
        input_names = [f"x{j}" for j in range(prof.n_inputs)]
    if output_names is None:
        output_names = [f"f{o}" for o in range(prof.n_outputs)]
    if len(input_names) != prof.n_inputs:
        raise ValueError(f"expected {prof.n_inputs} input names")
    if len(output_names) != prof.n_outputs:
        raise ValueError(f"expected {prof.n_outputs} output names")
    _label_line(input_names)
    _label_line(output_names)

    and_labels = [s for name in input_names for s in (name, name + "'")]
    label_w = len(f"T{p - 1}")
    left_w = max(label_w, len("POL")) + 2
    and_ws = [len(s) + 1 for s in and_labels]
    or_ws = [len(s) + 1 for s in output_names]
    header = "".ljust(left_w)
    header += "".join(s.ljust(w) for s, w in zip(and_labels, and_ws))
    header += "| " + "".join(s.ljust(w) for s, w in zip(output_names, or_ws))

    *and_at, bar = accumulate([left_w] + and_ws)
    or_at = list(accumulate([bar + 2] + or_ws[:-1]))
    stride = or_at[-1] + 2
    body = bytearray(b" " * (stride * p))
    body[stride - 1::stride] = b"\n" * p
    body[bar::stride] = b"|" * p
    labels = "".join([f"T{t:<{label_w - 1}}" for t in range(p)]).encode("ascii")
    for k in range(label_w):
        body[k::stride] = labels[k::label_w]
    cells = "".join(_and_rows(state)).encode("ascii").translate(_MARKS)
    for c, at in enumerate(and_at):
        body[at::stride] = cells[c::len(and_at)]
    for at, row in zip(or_at, state.or_words):
        body[at::stride] = format(row, f"0{p}b")[::-1].encode("ascii").translate(_MARKS)

    text = header.rstrip() + "\n" + body.decode("ascii")
    if prof.has_output_xor:
        line = "POL".ljust(left_w) + " " * sum(and_ws)
        line += "| " + "".join(
            bit.ljust(w)
            for bit, w in zip(format(state.pol_word, f"0{prof.n_outputs}b"), or_ws)
        )
        text += line.rstrip() + "\n"
    return text
