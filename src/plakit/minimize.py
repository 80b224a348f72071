"""Two-level minimization: prime implicants and minimum covers.

Cubes are '01-' strings only at the API. Inside, a prime is a
(key, req1, req0) triple from the first anchor mask to the chosen cover,
its `interleave` key built once; `minimize` formats only the selected
primes, once, from their keys. Primes come from the on-set plus don't-care
set as one row mask, never from minterm lists: for each word D of absent
literals, an anchor mask M[D] holds the rows r (with r & D == 0) whose
D-cube lies inside the function. M[D|w] is M[D] & M[D] >> w over the rows
with bit w clear, and only nonzero anchor masks are visited, level by
level. An anchor is prime unless a one-bit-wider cube holds it: each M[E]
takes M[E] | M[E] << w out of M[E ^ w] for every bit w of E. The outputs
of one design share one walk: output o's care mask sits in rows
[o·2^n, (o+1)·2^n) of one integer, and a shift by w from a row with bit w
clear stays in its slot, so each word is widened and pruned once for all
of them, and each output reads its primes from its slot. A walk packs at
most _PACK_ROWS rows, as wider ANDs cost more than the words the outputs
share; past that the outputs take more walks. A prime's on-set row mask
is its present-literal word's cube from row 0, built once per word,
shifted up to row req1. Cover selection extracts essential
primes first, then finishes with Petrick's method (exact) when the
residual chart is small enough and its absorbed products stay within
PETRICK_MAX_PRODUCTS, or a lazy greedy set cover otherwise: a prime's gain
only falls as rows get covered, so gains kept in a heap are upper bounds
and only the top is rescored. Small problems -- anything a datasheet
example would show -- always get the true minimum.

Everything here is deterministic: primes are reported in a fixed sort
order, ties in cover selection break lexicographically, and the same input
always yields the same cover. Both orders come from one integer key per
word pair (`logic.interleave`) that sorts pairs as their cube strings sort.
"""

import heapq
import logging
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, compress

from .logic import (
    _SPREAD, Cover, TruthTable, _check_order, _coverage, _key_cubes, _literal_mask,
    _product_mask, check_cubes, cube_words, interleave, mask_rows,
)

log = logging.getLogger(__name__)

MINIMIZER_MAX_VARS = 16  # prime counts grow exponentially; past this use a different tool
PETRICK_MAX_PRIMES = 24
PETRICK_MAX_MINTERMS = 64
PETRICK_MAX_PRODUCTS = 512  # absorbed products kept after any chart row
# rows one prime walk packs: at 2^12 two outputs at n = 11 walk 1.13-1.22
# times slower than alone, as the wider ANDs cost more than the words they
# share (BENCH_28.json, crossover); at most 2^16, as `_walk` reads a row's
# key from two bytes
_PACK_ROWS = 1 << 11

def _check_width(n):
    """ValueError unless n variables suit the minimizer."""
    if n > MINIMIZER_MAX_VARS:
        raise ValueError(f"{n} variables exceeds the minimizer limit of {MINIMIZER_MAX_VARS}")


def _checked_mask(n, rows):
    """The row mask of row indices over n variables; ValueError unless n
    suits the minimizer and every index is one of the 2^n rows."""
    _check_width(n)
    limit = 1 << n
    digits = bytearray(b"0" * limit)  # row r is digit limit-1-r
    for row in rows:
        if not 0 <= row < limit:
            raise ValueError(f"row {row} out of range for {n} variables")
        digits[~row] = 49  # "1"
    return int(digits, 2)


@dataclass(frozen=True)
class MinimizeSpec:
    """A minimization problem: required rows, optional rows, variable order."""

    order: tuple
    on_set: frozenset
    dc_set: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "order", _check_order(self.order))
        object.__setattr__(self, "on_set", frozenset(self.on_set))
        object.__setattr__(self, "dc_set", frozenset(self.dc_set))
        _checked_mask(len(self.order), self.on_set | self.dc_set)
        overlap = self.on_set & self.dc_set
        if overlap:
            raise ValueError(f"rows both required and don't-care: {sorted(overlap)}")

    @property
    def n(self):
        return len(self.order)


@lru_cache(maxsize=MINIMIZER_MAX_VARS)
def _slot_lows(n):
    """For each bit w of n variables, the rows with bit w clear, repeated
    over the most 2^n-row slots one walk packs; a walk with fewer slots
    masks it down by ANDing it with its anchors."""
    slots = max(1, _PACK_ROWS >> n)
    repeat = int(("0" * ((1 << n) - 1) + "1") * slots, 2)  # bit 0 of every slot
    return {1 << k: _literal_mask(n, n - 1 - k, 0) * repeat for k in range(n)}


def _primes(n, ons, cares):
    """For each (on, care) pair of row masks, the prime implicants of `care`
    as (key, req1, req0) triples, key = interleave((req1, req0)), widest
    first and then by key (cube-string order); none when `on` is empty.
    Up to _PACK_ROWS >> n pairs share one walk."""
    step = max(1, _PACK_ROWS >> n)
    return [primes for at in range(0, len(ons), step)
            for primes in _walk(n, ons[at:at + step], cares[at:at + step])]


def _walk(n, ons, cares):
    """`_primes` of one walk: care mask o sits in rows [o·2^n, (o+1)·2^n) of
    one integer, and a shift by w from a row with bit w clear stays inside
    its slot, so each absent word is widened and pruned once for all."""
    whole = (1 << (1 << n)) - 1
    packed = 0
    for o, (on, care) in enumerate(zip(ons, cares)):
        # a full care mask's one prime is the all-'-' cube, and the walk
        # would visit every word for it
        if on and care != whole:
            packed |= care << (o << n)
    full = (1 << n) - 1
    spread = _SPREAD
    low = _slot_lows(n)  # bit w clear, in every slot
    level = {0: packed}  # absent-literal word -> anchor mask
    levels = []
    while level:
        # each wider word once, from its parent without its top bit; a
        # zero anchor mask has only zero wider ones, so it is dropped
        wider = {}
        for absent, anchors in level.items():
            w = 1 << absent.bit_length()
            while w <= full:
                grown = anchors & anchors >> w & low[w]
                if grown:
                    wider[absent | w] = grown
                w <<= 1
        # an anchor inside a one-bit-wider cube is no prime: each wider cube
        # takes its rows out of every word it grows from that still has any
        for absent, anchors in wider.items():
            spare = absent
            while spare:
                w = spare & -spare
                spare ^= w
                if level[absent ^ w]:
                    level[absent ^ w] &= ~(anchors | anchors << w)
        # r lies inside its present word, so interleave((r, present ^ r)) is
        # interleave((0, present)) + interleave((0, r)), each a spread of at
        # most 16 bits, two byte lookups; packed row s = o·2^n + r adds o's
        # bits spread from bit 2n up, so a level sorts by slot, then by key
        levels.append(sorted([(key + spread[s & 255] + (spread[s >> 8] << 16), s, present ^ s)
                              for absent, anchors in level.items() if anchors
                              for present in (full ^ absent,)
                              for key in (spread[present & 255] + (spread[present >> 8] << 16),)
                              for s in mask_rows(anchors)]))
        level = wider
    levels.reverse()  # widest first
    if len(ons) == 1:
        found = [list(chain.from_iterable(levels))]
    else:  # slot o's primes are a run of each level: cut it out, slot bits cleared
        keys = (1 << 2 * n) - 1
        cuts = [[bisect_left(primes, (interleave((0, o << n)),)) for o in range(len(ons))]
                + [len(primes)] for primes in levels]
        found = [[(key & keys, s & full, req0 & full) for primes, cut in zip(levels, cuts)
                  for key, s, req0 in primes[cut[o]:cut[o + 1]]] for o in range(len(ons))]
    return [[] if not on else [(0, 0, 0)] if care == whole else primes
            for on, care, primes in zip(ons, cares, found)]


def prime_implicants(spec):
    """All prime implicants of on_set ∪ dc_set, widest first then lexicographic.

    An empty on_set yields an empty list: the constant-0 function needs no
    implicants, whatever the don't-cares would allow.
    """
    n = spec.n
    on = _checked_mask(n, spec.on_set)
    care = on | _checked_mask(n, spec.dc_set)
    return _key_cubes(n, [key for key, _, _ in _primes(n, [on], [care])[0]])


def _petrick(masks, remaining):
    """The fewest primes covering every row of `remaining`, or None past
    the work budget.

    Each row is a sum over the primes whose mask holds it, and products
    are bitmasks over prime indices. Multiplying in a row keeps only
    absorption-minimal products: a product already holding one of the
    row's primes passes unchanged. A row that would keep more than
    PETRICK_MAX_PRODUCTS products gives up. Returns the winning bitmask
    (fewest primes, then lexicographically smallest index tuple).
    """
    # of primes with equal residual rows only the first can be in the winner
    first = {}
    for i, m in enumerate(masks):
        first.setdefault(m & remaining, 1 << i)
    products = [0]  # start with the empty product (the identity)
    for row in mask_rows(remaining):
        row_primes = [p for m, p in first.items() if m >> row & 1]
        hit = sum(row_primes)
        grown = set()
        for prod in products:
            if prod & hit:
                grown.add(prod)
            else:
                grown.update(prod | s for s in row_primes)
        # absorption: drop any product that is a superset of another
        kept = []
        for m in sorted(grown, key=int.bit_count):
            if not any(k & m == k for k in kept):
                if len(kept) == PETRICK_MAX_PRODUCTS:
                    return None
                kept.append(m)
        products = kept
    return min(products, key=lambda mask: (mask.bit_count(), mask_rows(mask)))


def _cover(n, primes, on):
    """Indices of the `_primes` triples chosen to cover the `on` row mask:
    essentials in list order, then Petrick's choice in list order or greedy
    picks in pick order. One base row mask per present-literal word."""
    base, masks = {}, []  # base: present-literal word -> its cube's rows from row 0
    for _, req1, req0 in primes:
        if (rows := base.get(req1 | req0)) is None:
            rows = base[req1 | req0] = _product_mask(n, 0, req1 | req0)
        masks.append(rows << req1 & on)
    once, twice = _coverage(masks)
    if on & ~once:
        raise ValueError(f"primes do not cover required rows {mask_rows(on & ~once)}")

    # essential primes: sole coverers of some row (in once ^ twice); the rest lies in `twice`
    chosen, remaining, sole = 0, twice, once ^ twice
    for i, m in enumerate(masks):
        if m & sole:
            chosen |= 1 << i
            remaining &= ~m

    if not remaining:
        return mask_rows(chosen)
    counts = len(primes), remaining.bit_count()
    if counts[0] > PETRICK_MAX_PRIMES or counts[1] > PETRICK_MAX_MINTERMS:
        why = f"exceed thresholds {PETRICK_MAX_PRIMES}/{PETRICK_MAX_MINTERMS}"
    elif (exact := _petrick(masks, remaining)) is None:
        why = f"keep more than {PETRICK_MAX_PRODUCTS} Petrick products"
    else:
        log.info("exact cover via Petrick: %d primes, %d residual rows "
                 "(thresholds %d/%d)", *counts, PETRICK_MAX_PRIMES, PETRICK_MAX_MINTERMS)
        return mask_rows(chosen | exact)
    log.info("greedy cover: %d primes, %d residual rows %s", *counts, why)
    selected = mask_rows(chosen)
    # the most new rows wins; on equal gain the lexicographically smallest
    # cube, then the last copy of it (any copy gives the same cover)
    heap = [(-gain, primes[i][0], -i) for i, m in enumerate(masks)
            if (gain := (m & remaining).bit_count())]
    heapq.heapify(heap)
    while remaining:
        top = heap[0]
        i = -top[2]
        gain = (masks[i] & remaining).bit_count()
        if gain == -top[0]:
            # every other stale gain bounds its true gain from above
            heapq.heappop(heap)
            selected.append(i)
            remaining &= ~masks[i]
        elif gain:
            heapq.heapreplace(heap, (-gain, top[1], top[2]))
        else:
            heapq.heappop(heap)  # nothing left to cover: it never gains again
    return selected


def minimum_cover(primes, spec):
    """Select a cover of on_set from the prime implicants.

    Essential primes always enter the cover; the rest comes from Petrick's
    method when the chart fits PETRICK_MAX_PRIMES / PETRICK_MAX_MINTERMS
    and its products stay within PETRICK_MAX_PRODUCTS (exact minimum
    cardinality) or from greedy most-uncovered-first selection otherwise.
    Ties break on the lexicographically smallest cube; selection is
    emitted in prime-list order (greedy picks in pick order) so output is
    stable.
    """
    n = spec.n
    primes = check_cubes(primes, n)
    triples = [(interleave(w), *w) for w in map(cube_words, primes)]
    selected = _cover(n, triples, _checked_mask(n, spec.on_set))
    return Cover(spec.order, tuple(primes[i] for i in selected))


def minimize(table_or_cover, dc=None):
    """Minimize a TruthTable or Cover into a minimal SOP cover.

    `dc` is an optional iterable of don't-care row indices. The result
    covers every on-set row, may absorb don't-cares, and is exact within
    the Petrick bounds and budget. It is the cover `minimum_cover` picks
    from `prime_implicants`, chosen on words and formatted once.
    """
    src = table_or_cover
    table = src if isinstance(src, TruthTable) else src.to_table()
    return _minimized([table], _checked_mask(table.n, dc or ()))[0]


def _minimized(tables, dc=0):
    """`minimize`'s covers of tables over one variable order, the rows of
    the `dc` mask free in each, from one prime walk."""
    if not tables:
        return []
    n = tables[0].n
    return [Cover(tables[0].order, tuple(_key_cubes(n, [key for key, _, _ in chosen])))
            for chosen in _mask_primes(n, [table.bits & ~dc for table in tables], dc)]


def _mask_primes(n, ons, dc):
    """For each `on` row mask, the (key, req1, req0) primes `minimize` chooses
    to cover it, in its cover's order, with the rows of the disjoint `dc`
    mask free: one prime walk for all of them, one cover each."""
    return [[primes[i] for i in _cover(n, primes, on)]
            for on, primes in zip(ons, _primes(n, ons, [on | dc for on in ons]))]


# ---------------------------------------------------------------------------
# Multi-output covers


@dataclass(frozen=True)
class MultiOutputCover:
    """A pool of product terms shared across named outputs.

    `outputs` is an ordered tuple of (name, term_indices) where the indices
    point into `term_pool`. A product used by several outputs appears once
    in the pool -- the whole point of a shared AND plane.
    """

    order: tuple
    term_pool: tuple
    outputs: tuple

    def __post_init__(self):
        object.__setattr__(self, "order", tuple(self.order))
        if not self.order or len(set(self.order)) < len(self.order):  # too wide: fit refuses
            _check_order(self.order)
        object.__setattr__(self, "term_pool", tuple(self.term_pool))
        outputs = tuple((name, tuple(sel)) for name, sel in self.outputs)
        object.__setattr__(self, "outputs", outputs)
        check_cubes(self.term_pool, len(self.order))
        names = [name for name, _ in outputs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate output name in {names}")
        for name, sel in outputs:
            if sel and not 0 <= min(sel) <= max(sel) < len(self.term_pool):
                bad = next(i for i in sel if not 0 <= i < len(self.term_pool))
                raise ValueError(f"output {name!r} references missing term {bad}")
            if len(set(sel)) != len(sel):
                raise ValueError(f"output {name!r} lists a term twice: {sel}")

    @classmethod
    def pooled(cls, order, names, rows):
        """Build from .pla rows (cube, output bits), in order: bit o of a row
        is "1" when output o uses its cube. A cube enters the pool at its
        first row, even one whose bits are all "0", and each output lists
        its terms once, in first-use order. Each output is one column of the
        rows' bits, read whole."""
        cubes, outs = [*zip(*rows)] or [(), ()]
        columns = zip(*outs) if outs else [()] * len(names)
        pool, selections = _pool(cubes, [compress(cubes, map("1".__eq__, c)) for c in columns])
        return cls(order, tuple(pool), tuple(zip(names, selections)))

    @property
    def names(self):
        return tuple(name for name, _ in self.outputs)

    def cover_for(self, name):
        for out_name, sel in self.outputs:
            if out_name == name:
                return Cover(self.order, tuple(map(self.term_pool.__getitem__, sel)))
        raise KeyError(name)


def share_terms(named_covers):
    """Fold single-output covers into one term pool with per-output selections.

    `named_covers` is an ordered iterable of (name, Cover), all over the
    same variable order. Identical cubes collapse to one pool entry; pool
    order is first use. Duplicate cubes within one output are dropped.
    """
    named_covers = list(named_covers)
    if not named_covers:
        raise ValueError("need at least one output")
    order = named_covers[0][1].order
    for name, cover in named_covers:
        if cover.order != order:
            raise ValueError(
                f"output {name!r} uses order {cover.order}, expected {order}"
            )
    names, cubes = zip(*[(name, cover.cubes) for name, cover in named_covers])
    pool, selections = _pool(chain.from_iterable(cubes), cubes)
    return MultiOutputCover(order, tuple(pool), tuple(zip(names, selections)))


def _pool(keys, columns):
    """The one pool builder: (the distinct `keys` in first-use order, and for
    each column the pool indices of its keys, each once, in first-use order)."""
    distinct = dict.fromkeys(keys)
    index = dict(zip(distinct, range(len(distinct))))
    return list(index), [list(dict.fromkeys(map(index.__getitem__, col))) for col in columns]
