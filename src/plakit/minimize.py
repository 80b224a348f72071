"""Two-level minimization: prime implicants and minimum covers.

Cubes are '01-' strings only at the API. Primes come from the on-set
plus don't-care set as one row mask, never from minterm lists: for each
word D of absent literals, an anchor mask M[D] holds the rows r (with
r & D == 0) whose D-cube lies inside the function. M[D|w] is
M[D] & M[D] >> w over the rows with bit w clear, and only nonzero anchor
masks are visited, level by level. An anchor that no one-bit-wider cube
contains is a prime. Cover selection works on one on-set row mask per
prime: it extracts essential primes first, then finishes with Petrick's
method (exact) when the residual problem is small enough, or a lazy
greedy set cover otherwise: a prime's gain only falls as rows get
covered, so gains kept in a heap are upper bounds and only the top is
rescored. The switch is size-based so small problems -- anything a
datasheet example would show -- always get the true minimum.

Everything here is deterministic: primes are reported in a fixed sort
order, ties in cover selection break lexicographically, and the same input
always yields the same cover.
"""

import heapq
import logging
from dataclasses import dataclass, field

from .logic import (
    Cover, TruthTable, _var_mask, check_cube, cube_mask, cube_string, mask_rows,
)

log = logging.getLogger(__name__)

MINIMIZER_MAX_VARS = 16  # prime counts grow exponentially; past this use a different tool
PETRICK_MAX_PRIMES = 24
PETRICK_MAX_MINTERMS = 64


@dataclass(frozen=True)
class MinimizeSpec:
    """A minimization problem: required rows, optional rows, variable order."""

    order: tuple
    on_set: frozenset
    dc_set: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "order", tuple(self.order))
        object.__setattr__(self, "on_set", frozenset(self.on_set))
        object.__setattr__(self, "dc_set", frozenset(self.dc_set))
        n = len(self.order)
        if n == 0:
            raise ValueError("variable order must not be empty")
        if n > MINIMIZER_MAX_VARS:
            raise ValueError(
                f"{n} variables exceeds the minimizer limit of {MINIMIZER_MAX_VARS}"
            )
        limit = 1 << n
        for row in self.on_set | self.dc_set:
            if not 0 <= row < limit:
                raise ValueError(f"row {row} out of range for {n} variables")
        overlap = self.on_set & self.dc_set
        if overlap:
            raise ValueError(f"rows both required and don't-care: {sorted(overlap)}")

    @property
    def n(self):
        return len(self.order)


def prime_implicants(spec):
    """All prime implicants of on_set ∪ dc_set, widest first then lexicographic.

    An empty on_set yields an empty list: the constant-0 function needs no
    implicants, whatever the don't-cares would allow.
    """
    if not spec.on_set:
        return []
    n = spec.n
    if len(spec.on_set) + len(spec.dc_set) == 1 << n:
        # ON ∪ DC is every row (the sets are disjoint and in range): its one
        # prime is the all-'-' cube, and the walk would visit every word
        return ["-" * n]
    full = (1 << n) - 1
    rows = (1 << (1 << n)) - 1
    low = {1 << k: rows ^ _var_mask(n, n - 1 - k) for k in range(n)}  # bit k clear
    # absent-literal word -> anchor mask
    level = {0: sum(1 << row for row in spec.on_set | spec.dc_set)}
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
        cubes = []
        for absent, anchors in level.items():
            spare = full ^ absent
            while spare:
                w = spare & -spare
                spare ^= w
                grown = wider.get(absent | w, 0)
                anchors &= ~(grown | grown << w)
            cubes += [cube_string(n, r, full ^ absent ^ r) for r in mask_rows(anchors)]
        levels.append(sorted(cubes))
        level = wider
    return [cube for cubes in reversed(levels) for cube in cubes]


def _petrick(chart, n_primes):
    """Minimum-cardinality column sets covering every row of the chart.

    `chart` maps each uncovered minterm to the set of usable prime indices.
    Products are bitmasks over prime indices; multiplication keeps only
    absorption-minimal terms, which caps the blowup on problems this size.
    Returns the winning bitmask (fewest primes, then lexicographically
    smallest index tuple).
    """
    products = [0]  # start with the empty product (the identity)
    for row in sorted(chart):
        sums = [1 << p for p in sorted(chart[row])]
        next_products = []
        for prod in products:
            for s in sums:
                next_products.append(prod | s)
        # absorption: drop any product that is a superset of another
        next_products.sort(key=int.bit_count)
        kept = []
        for m in next_products:
            if not any(k & m == k for k in kept):
                kept.append(m)
        products = kept
    def key(mask):
        idxs = [i for i in range(n_primes) if (mask >> i) & 1]
        return (len(idxs), idxs)
    return min(products, key=key)


def minimum_cover(primes, spec):
    """Select a cover of on_set from the prime implicants.

    Essential primes always enter the cover; the rest comes from Petrick's
    method when the chart fits PETRICK_MAX_PRIMES / PETRICK_MAX_MINTERMS
    (exact minimum cardinality) or from greedy most-uncovered-first
    selection beyond that. Ties break on the lexicographically smallest
    cube; selection is emitted in prime-list order (greedy picks in pick
    order) so output is stable.
    """
    primes = list(primes)
    on = sum(1 << row for row in spec.on_set)
    masks = [cube_mask(cube, spec.n) & on for cube in primes]
    once = twice = 0
    for m in masks:
        once, twice = once | m, twice | once & m
    if on & ~once:
        raise ValueError(f"primes do not cover required rows {mask_rows(on & ~once)}")

    # essential primes: sole coverers of some row; the rest lies in `twice`
    chosen, remaining = 0, twice
    for i, m in enumerate(masks):
        if m & ~twice:
            chosen |= 1 << i
            remaining &= ~m

    small = len(primes) <= PETRICK_MAX_PRIMES
    if remaining and small and remaining.bit_count() <= PETRICK_MAX_MINTERMS:
        log.info(
            "exact cover via Petrick: %d primes, %d residual rows "
            "(thresholds %d/%d)",
            len(primes), remaining.bit_count(), PETRICK_MAX_PRIMES, PETRICK_MAX_MINTERMS,
        )
        chart = {
            row: {i for i, m in enumerate(masks) if m >> row & 1}
            for row in mask_rows(remaining)
        }
        chosen |= _petrick(chart, len(primes))
        remaining = 0
    selected = [i for i in range(len(primes)) if chosen >> i & 1]
    if remaining:
        log.info(
            "greedy cover: %d primes, %d residual rows exceed thresholds %d/%d",
            len(primes), remaining.bit_count(), PETRICK_MAX_PRIMES, PETRICK_MAX_MINTERMS,
        )
        # the most new rows wins; on equal gain the lexicographically smallest
        # cube, then the last copy of it (any copy gives the same cover)
        rank = {cube: r for r, cube in enumerate(sorted(set(primes)))}
        heap = [(-gain, rank[primes[i]], -i) for i, m in enumerate(masks)
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
    return Cover(spec.order, tuple(primes[i] for i in selected))


def minimize(table_or_cover, dc=None):
    """Minimize a TruthTable or Cover into a minimal SOP cover.

    `dc` is an optional iterable of don't-care row indices. The result
    covers every on-set row, may absorb don't-cares, and is exact for
    problems within the Petrick bounds.
    """
    src = table_or_cover
    table = src if isinstance(src, TruthTable) else src.to_table()
    dc_set = frozenset(dc) if dc else frozenset()
    on_set = frozenset(table.on_set()) - dc_set
    spec = MinimizeSpec(table.order, on_set, dc_set)
    return minimum_cover(prime_implicants(spec), spec)


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
        object.__setattr__(self, "term_pool", tuple(self.term_pool))
        outputs = tuple((name, tuple(sel)) for name, sel in self.outputs)
        object.__setattr__(self, "outputs", outputs)
        for cube in self.term_pool:
            check_cube(cube, len(self.order))
        names = [name for name, _ in outputs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate output name in {names}")
        for name, sel in outputs:
            for i in sel:
                if not 0 <= i < len(self.term_pool):
                    raise ValueError(f"output {name!r} references missing term {i}")

    @classmethod
    def pooled(cls, order, names, uses):
        """Build from (cube, output positions) uses, in order: a cube enters
        the pool at its first use, and each output lists its terms once, in
        first-use order."""
        pool = {}
        selections = [{} for _ in names]
        for cube, outputs in uses:
            t = pool.setdefault(cube, len(pool))
            for o in outputs:
                selections[o][t] = None
        return cls(order, tuple(pool), tuple(zip(names, map(tuple, selections))))

    @property
    def names(self):
        return tuple(name for name, _ in self.outputs)

    def cover_for(self, name):
        for out_name, sel in self.outputs:
            if out_name == name:
                return Cover(self.order, tuple(self.term_pool[i] for i in sel))
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
    return MultiOutputCover.pooled(
        order,
        [name for name, _ in named_covers],
        ((cube, (o,)) for o, (_, c) in enumerate(named_covers) for cube in c.cubes),
    )
