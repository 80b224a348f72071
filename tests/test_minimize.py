import importlib
import logging
import time

import pytest

from plakit import (
    CapacityError,
    Cover,
    Fsm,
    MinimizeSpec,
    MultiOutputCover,
    PlaProfile,
    Transition,
    TruthTable,
    cover_eval,
    equivalent,
    fit,
    minimize,
    minimum_cover,
    parse_expression,
    prime_implicants,
    share_terms,
    synthesize_controller,
    table_from_expr,
)
from plakit.logic import MAX_VARS, interleave
from oracles import (
    all_cubes,
    brute_min_cover_size,
    brute_primes,
    cube_of_words,
    cube_rows_naive,
    greedy_cover_naive,
    pooled_naive,
    qm_primes,
    seeded,
)

# the package re-exports the minimize() function under the submodule's name,
# so reach the module itself through importlib for monkeypatching
mn = importlib.import_module("plakit.minimize")

MAJ_ON = frozenset({3, 5, 6, 7})  # majority of A, B, C


def _is_prime(cube, care):
    """True if widening any literal of `cube` leaves the care set."""
    for j, ch in enumerate(cube):
        if ch == "-":
            continue
        widened = cube[:j] + "-" + cube[j + 1 :]
        if all(r in care for r in cube_rows_naive(widened)):
            return False
    return True


def test_majority_primes_pinned():
    spec = MinimizeSpec(("A", "B", "C"), MAJ_ON)
    assert prime_implicants(spec) == ["-11", "1-1", "11-"]


def test_majority_minimizes_to_three_two_literal_cubes():
    t = table_from_expr(parse_expression("A'BC + AB'C + ABC' + ABC"), ("A", "B", "C"))
    cover = minimize(t)
    assert set(cover.cubes) == {"-11", "1-1", "11-"}
    assert all(c.count("-") == 1 for c in cover.cubes)
    assert cover.to_table() == t


def test_f_minimizes_to_bc_plus_abc():
    t = table_from_expr(parse_expression("ABC + A'BC + AB'C'"), ("A", "B", "C"))
    cover = minimize(t)
    assert set(cover.cubes) == {"-11", "100"}
    assert cover.to_table() == t


def test_empty_on_set_has_no_primes():
    spec = MinimizeSpec(("A", "B"), frozenset(), frozenset({1, 2}))
    assert prime_implicants(spec) == []
    assert minimize(TruthTable(("A", "B"), 0)).cubes == ()


def test_constant_one_minimizes_to_tautology_cube():
    t = TruthTable(("A", "B", "C"), 0xFF)
    assert minimize(t).cubes == ("---",)


def test_dense_functions_match_tabulation_oracle():
    # on-set plus don't-cares covering every row leaves one prime; one row
    # fewer must still go through the anchor-mask walk
    rng = seeded(19)
    for n in range(2, 9):
        order = tuple(f"x{j}" for j in range(n))
        rows = set(range(1 << n))
        for dc_share in (0.0, 0.3, 0.9, 1.0):
            dc = {r for r in rows if rng.random() < dc_share}
            on = rows - dc or {rng.randrange(1 << n)}
            dc -= on
            spec = MinimizeSpec(order, frozenset(on), frozenset(dc))
            assert prime_implicants(spec) == qm_primes(rows, n) == ["-" * n]
            gap = rng.choice(sorted(on)) if len(on) > 1 else rng.choice(sorted(dc))
            spec = MinimizeSpec(order, frozenset(on - {gap}), frozenset(dc - {gap}))
            assert prime_implicants(spec) == qm_primes(rows - {gap}, n)
        assert prime_implicants(MinimizeSpec(order, frozenset(), frozenset(rows))) == []


def test_constant_one_at_the_minimizer_limit_is_fast():
    n = 16
    order = tuple(f"x{j}" for j in range(n))
    full = (1 << (1 << n)) - 1
    start = time.perf_counter()
    assert minimize(TruthTable(order, full)).cubes == ("-" * n,)
    assert minimize(TruthTable(order, full ^ 0b101), [0, 2]).cubes == ("-" * n,)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"took {elapsed:.2f}s, limit 2s"


def test_packed_walk_matches_one_output_walks():
    """Outputs packed side by side in one prime walk get the primes and the
    covers each gets alone: empty on-sets, full care masks and sparse or
    dense ones, over one shared DC mask, in batches split at the cap."""
    rng = seeded(28)
    for n in range(1, 13):
        size, slots = 1 << n, max(1, mn._PACK_ROWS >> n)
        whole = (1 << size) - 1
        counts = {1, rng.randint(2, 20), slots + 1 if slots < 20 else 20}
        for m in sorted(counts):
            dc = rng.getrandbits(size) & rng.getrandbits(size) & rng.getrandbits(size)
            ons = []
            for o in range(m):
                kind = rng.randrange(6)
                if kind == 0:
                    on = 0
                elif kind == 1:
                    on = whole  # full care, with or without the DC rows
                elif kind == 2:  # a function of one variable, wide primes
                    on = mn._literal_mask(n, rng.randrange(n), 1)
                else:  # one row in 2, 4 or 8
                    on = rng.getrandbits(size)
                    for _ in range(kind - 3):
                        on &= rng.getrandbits(size)
                ons.append(on & ~dc)
            cares = [on | dc for on in ons]
            assert mn._primes(n, ons, cares) == [mn._primes(n, [on], [care])[0]
                                                 for on, care in zip(ons, cares)]
            assert mn._mask_primes(n, ons, dc) == [mn._mask_primes(n, [on], dc)[0]
                                                   for on in ons]


def test_gate_packed_walks_stay_within_the_cap(monkeypatch):
    """Sixteen outputs over disjoint groups of variables at n = 12, and a
    16-output controller at b + k = 8, each minimized in one call within
    its stated time, with no walk wider than the cap: past it, the wider
    ANDs cost more than the words the outputs share."""
    walks, walk = [], mn._walk
    monkeypatch.setattr(mn, "_walk", lambda n, ons, cares: walks.append(len(ons) << n)
                        or walk(n, ons, cares))
    rng = seeded(2812)
    n = 12
    ons = []
    for o in range(16):  # a random function of variables 3o..3o+2, mod 12
        truth = rng.getrandbits(8)
        ons.append(sum(1 << r for r in range(1 << n)
                       if truth >> sum((r >> (3 * o + i) % n & 1) << i for i in range(3)) & 1))
    start = time.perf_counter()
    chosen = mn._mask_primes(n, ons, 0)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s, limit 1s"
    assert all(chosen) and max(walks) <= max(mn._PACK_ROWS, 1 << n) and sum(walks) == 16 << n

    states = [f"S{i}" for i in range(16)]
    machine = Fsm(4, 12, tuple(states), "S0", tuple(
        Transition(format(v, "04b"), state, rng.choice(states), format(rng.getrandbits(12), "012b"))
        for state in states for v in range(16) if rng.random() < 0.9))
    walks.clear()
    start = time.perf_counter()
    synthesize_controller(machine, PlaProfile(8, 1024, 16), minimize=True)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.5, f"took {elapsed:.2f}s, limit 0.5s"
    assert max(walks) <= max(mn._PACK_ROWS, 256) and sum(walks) == 16 * 256


def test_primes_match_brute_force_oracle():
    rng = seeded(17)
    for n in (2, 3, 4, 5):
        order = tuple("ABCDE"[:n])
        size = 1 << n
        for _ in range(25):
            bits = rng.getrandbits(size)
            on = {r for r in range(size) if (bits >> r) & 1}
            if not on:
                continue
            dc = {r for r in range(size) if r not in on and rng.random() < 0.25}
            spec = MinimizeSpec(order, frozenset(on), frozenset(dc))
            assert prime_implicants(spec) == brute_primes(on | dc, n)


def _random_spec(rng, n):
    """A seeded 30 %-on/10 %-dc function, or a union of random cubes with
    mostly absent literals (whose sub-cubes tabulation must all list)."""
    size = 1 << n
    order = tuple(f"x{j}" for j in range(n))
    if rng.random() < 0.5:
        draws = [rng.random() for _ in range(size)]
        on = {r for r in range(size) if draws[r] < 0.3}
        dc = {r for r in range(size) if 0.3 <= draws[r] < 0.4}
    else:
        on, dc = set(), set()
        for _ in range(rng.randint(1, 6)):
            fixed = rng.sample(range(n), rng.randint(3, max(3, n - 5)))
            cube = ["-"] * n
            for j in fixed:
                cube[j] = rng.choice("01")
            (dc if rng.random() < 0.2 else on).update(cube_rows_naive("".join(cube)))
        dc -= on
        on = on or {0}
        dc.discard(0)
    return MinimizeSpec(order, frozenset(on), frozenset(dc))


def test_primes_match_tabulation_oracle():
    rng = seeded(43)
    for n in range(6, 14):
        for _ in range(6 if n < 11 else 2):
            spec = _random_spec(rng, n)
            assert prime_implicants(spec) == qm_primes(spec.on_set | spec.dc_set, n)


def test_order_key_sorts_word_pairs_like_cube_strings():
    rng = seeded(53)
    for n in range(1, MAX_VARS + 1):
        full = (1 << n) - 1
        pairs = [(0, 0), (full, 0), (0, full)]
        for density in (0.2, 0.5, 0.9):
            for _ in range(30):
                present = sum(1 << k for k in range(n) if rng.random() < density)
                req1 = rng.getrandbits(n) & present
                pairs.append((req1, present ^ req1))
        pairs += rng.choices(pairs, k=20)  # repeated pairs, the all-'-' one too
        rng.shuffle(pairs)
        by_key = sorted(pairs, key=interleave)
        assert ([cube_of_words(n, *pair) for pair in by_key]
                == sorted(cube_of_words(n, *pair) for pair in pairs))
        assert len(set(map(interleave, pairs))) == len(set(pairs))


def test_minimize_equals_the_string_api():
    # minimize() runs the word cores directly; the public string functions
    # wrap the same cores and must pick the same cover
    rng = seeded(59)
    for n in range(2, 13):
        order = tuple(f"x{j}" for j in range(n))
        size = 1 << n
        for with_dc in (False, True):
            draws = [rng.random() for _ in range(size)]
            bits = sum(1 << r for r in range(size) if draws[r] < 0.3)
            # don't-cares also claim a few on rows, which minimize() drops
            dc = [r for r in range(size) if 0.3 <= draws[r] < 0.4 or draws[r] < 0.02]
            dc = dc if with_dc else []
            table = TruthTable(order, bits)
            spec = MinimizeSpec(order, frozenset(table.on_set()) - frozenset(dc),
                                frozenset(dc))
            expected = minimum_cover(prime_implicants(spec), spec)
            assert minimize(table, dc) == expected
            assert minimize(Cover(order, expected.cubes), dc) == expected


def test_minimize_checks_like_the_spec():
    with pytest.raises(ValueError, match="minimizer limit"):
        minimize(TruthTable(tuple(f"v{i}" for i in range(17)), 0))
    t = TruthTable(("A", "B"), 0b0110)
    for row in (4, -1):
        with pytest.raises(ValueError, match="out of range"):
            minimize(t, [row])


def test_petrick_budget_bounds_a_cyclic_chart(caplog):
    # off-set {0, 3, 10, 13, 22, 29}: 26 on rows, 24 primes, no essential
    # prime, and a Petrick product expansion of thousands of terms
    order = tuple("ABCDE")
    off = {0, 3, 10, 13, 22, 29}
    t = TruthTable(order, sum(1 << r for r in range(32) if r not in off))
    assert len(prime_implicants(MinimizeSpec(order, t.on_set()))) == 24
    with caplog.at_level(logging.INFO, logger="plakit.minimize"):
        start = time.perf_counter()
        cover = minimize(t)
        elapsed = time.perf_counter() - start
    assert elapsed < 0.5, f"took {elapsed:.2f}s, limit 0.5s"
    assert equivalent(cover, t)
    assert [r.getMessage().split(":")[0] for r in caplog.records] == ["greedy cover"]


def test_greedy_cover_matches_eager_oracle(monkeypatch):
    monkeypatch.setattr(mn, "PETRICK_MAX_PRIMES", 0)
    rng = seeded(47)
    for n in range(5, 13):
        for _ in range(3 if n < 11 else 1):
            spec = _random_spec(rng, n)
            primes = prime_implicants(spec)
            got = minimum_cover(primes, spec).cubes
            assert got == greedy_cover_naive(primes, spec.on_set)
            # list order and repeated primes change ranks and essentials
            mixed = primes + rng.choices(primes, k=len(primes) // 3 + 1)
            rng.shuffle(mixed)
            got = minimum_cover(mixed, spec).cubes
            assert got == greedy_cover_naive(mixed, spec.on_set)


def test_minimum_cover_is_exact_for_small_n():
    rng = seeded(19)
    for n in (2, 3, 4):
        order = tuple("ABCD"[:n])
        size = 1 << n
        for _ in range(40):
            bits = rng.getrandbits(size)
            on = frozenset(r for r in range(size) if (bits >> r) & 1)
            if not on:
                continue
            dc = frozenset(
                r for r in range(size) if r not in on and rng.random() < 0.2
            )
            spec = MinimizeSpec(order, on, dc)
            primes = prime_implicants(spec)
            cover = minimum_cover(primes, spec)
            # covers exactly the on-set modulo don't-cares
            hit = set()
            for cube in cover.cubes:
                assert _is_prime(cube, on | dc)
                hit |= set(cube_rows_naive(cube))
            assert on <= hit and hit <= on | dc
            assert len(cover.cubes) == brute_min_cover_size(primes, on, n)


def test_minimize_determinism():
    rng = seeded(23)
    order = ("A", "B", "C", "D")
    for _ in range(30):
        t = TruthTable(order, rng.getrandbits(16))
        a = minimize(t)
        b = minimize(t)
        assert a == b
        assert minimize(Cover(order, a.cubes)) == a


def test_dont_cares_are_absorbed_not_required():
    # on {1,3,7}, dc {5}: the single cube C covers everything
    t = TruthTable(("A", "B", "C"), 0b10001010)
    cover = minimize(t, dc={5})
    assert cover.cubes == ("--1",)
    # off the dc-set the cover equals the table
    for row in range(8):
        if row == 5:
            continue
        bits = format(row, "03b")
        assert cover_eval(cover, bits) == t.value(row)


def test_minimum_cover_requires_full_coverage():
    spec = MinimizeSpec(("A", "B"), frozenset({0, 3}))
    with pytest.raises(ValueError, match="do not cover"):
        minimum_cover(["11"], spec)


def test_minimum_cover_rejects_bad_cube_width():
    spec = MinimizeSpec(("A", "B"), frozenset({0}))
    with pytest.raises(ValueError):
        minimum_cover(["0"], spec)


def test_greedy_path_still_covers(monkeypatch):
    monkeypatch.setattr(mn, "PETRICK_MAX_PRIMES", 0)
    rng = seeded(29)
    order = ("A", "B", "C", "D")
    for _ in range(25):
        bits = rng.getrandbits(16)
        on = frozenset(r for r in range(16) if (bits >> r) & 1)
        if not on:
            continue
        spec = MinimizeSpec(order, on)
        cover = minimum_cover(prime_implicants(spec), spec)
        hit = set()
        for cube in cover.cubes:
            hit |= set(cube_rows_naive(cube))
        assert on <= hit
        again = minimum_cover(prime_implicants(spec), spec)
        assert cover == again


def test_spec_validation():
    with pytest.raises(ValueError):
        MinimizeSpec((), frozenset())
    with pytest.raises(ValueError):
        MinimizeSpec(("A",), frozenset({2}))
    with pytest.raises(ValueError):
        MinimizeSpec(("A",), frozenset({0}), frozenset({0}))
    with pytest.raises(ValueError):
        MinimizeSpec(tuple(f"v{i}" for i in range(17)), frozenset({0}))


def test_spec_checks_its_order_like_truth_table():
    with pytest.raises(ValueError, match="duplicate variable in order"):
        MinimizeSpec(("A", "A"), {1})
    with pytest.raises(ValueError, match="must not be empty"):
        MinimizeSpec((), {0})


def test_every_small_function_matches_the_brute_force_oracles(caplog):
    """Each on/dc/off assignment at n = 1, 2, 3: the primes, an exact cover
    of the on-set within on ∪ dc, and its size wherever Petrick ran. This
    takes in all-dc functions, empty on-sets and levels with no wider cube."""
    caplog.set_level(logging.INFO, logger="plakit.minimize")
    for n in (1, 2, 3):
        order = tuple("ABC"[:n])
        oracle = {}  # on ∪ dc -> its primes; 3^(2^n) functions share 2^(2^n) of them
        for code in range(3 ** (1 << n)):
            on, dc, rest = set(), set(), code
            for row in range(1 << n):
                rest, kind = divmod(rest, 3)
                (on, dc, set())[kind].add(row)
            spec = MinimizeSpec(order, on, dc)
            primes = prime_implicants(spec)
            care = frozenset(on | dc)
            if care not in oracle:
                oracle[care] = brute_primes(care, n)
            assert primes == (oracle[care] if on else [])
            caplog.clear()
            cover = minimize(TruthTable(order, sum(1 << r for r in on)), dc)
            hit = {r for cube in cover.cubes for r in cube_rows_naive(cube)}
            assert on <= hit <= on | dc
            assert cover == minimum_cover(primes, spec)
            if "greedy cover" not in caplog.text:
                assert len(cover.cubes) == brute_min_cover_size(primes, on, n)


def test_share_terms_pools_common_products():
    order = ("A", "B", "C", "D")
    f1 = Cover(order, ("11--", "--1-"))  # AB + C
    f2 = Cover(order, ("11--", "---1"))  # AB + D
    mc = share_terms([("F1", f1), ("F2", f2)])
    assert mc.term_pool == ("11--", "--1-", "---1")
    assert mc.outputs == (("F1", (0, 1)), ("F2", (0, 2)))
    assert mc.names == ("F1", "F2")
    assert mc.cover_for("F1") == f1
    assert mc.cover_for("F2") == f2
    with pytest.raises(KeyError):
        mc.cover_for("F3")


def test_share_terms_never_grows_the_pool():
    rng = seeded(31)
    order = ("A", "B", "C")
    for _ in range(30):
        covers = []
        for k in range(3):
            t = TruthTable(order, rng.getrandbits(8))
            covers.append((f"f{k}", minimize(t)))
        mc = share_terms(covers)
        assert len(mc.term_pool) <= sum(len(c.cubes) for _, c in covers)
        assert len(set(mc.term_pool)) == len(mc.term_pool)
        for name, cover in covers:
            assert mc.cover_for(name).to_table() == cover.to_table()


def test_pooled_matches_position_lists():
    # an all-zero row still pools its cube; a later row with bits set
    # gives the cube to an output at its pool index
    mc = MultiOutputCover.pooled(("A",), ("f", "g"),
                                 [("1", "00"), ("0", "11"), ("1", "01"), ("0", "11")])
    assert mc.term_pool == ("1", "0")
    assert mc.outputs == (("f", (1,)), ("g", (1, 0)))
    rng = seeded(83)
    for m in range(1, 9):
        names = tuple(f"f{o}" for o in range(m))
        for _ in range(30):
            n = rng.randint(1, 3)
            order = tuple(f"v{j}" for j in range(n))
            cubes = rng.sample(all_cubes(n), min(3 ** n, rng.randint(1, 5)))
            rows = []
            for _ in range(rng.randint(0, 12)):
                # few cubes, so one cube comes back with other outputs
                row = (rng.choice(cubes), "".join(rng.choice("0001") for _ in range(m)))
                rows.append(row)
                if rng.random() < 0.2:
                    rows.append(row)
                if rng.random() < 0.2:
                    rows.append((rng.choice(cubes), "0" * m))
            assert (MultiOutputCover.pooled(order, names, rows)
                    == pooled_naive(order, names, rows)), rows


def test_share_terms_validation():
    order = ("A", "B")
    with pytest.raises(ValueError):
        share_terms([])
    with pytest.raises(ValueError, match="order"):
        share_terms([("f", Cover(order, ())), ("g", Cover(("B", "A"), ()))])


def test_multi_output_cover_validation():
    with pytest.raises(ValueError, match="duplicate"):
        MultiOutputCover(("A",), ("1",), (("f", (0,)), ("f", (0,))))
    with pytest.raises(ValueError, match="missing term"):
        MultiOutputCover(("A",), ("1",), (("f", (1,)),))
    # one output lists each term once; two outputs may share it
    with pytest.raises(ValueError, match=r"output 'f' lists a term twice: \(0, 0\)"):
        MultiOutputCover(("A", "B"), ("1-", "01"), (("f", (0, 0)), ("g", (1,))))
    MultiOutputCover(("A", "B"), ("1-", "01"), (("f", (0,)), ("g", (0, 1))))
    # each selection is bounds-checked as a whole; the message names its first
    # bad index, and a range fault wins over a repeat in the same selection
    pool, ok = ("1-", "01", "00"), ("f", (2, 0))
    for sel, message in (((1, -1, 0), "output 'g' references missing term -1"),
                         ((0, 3, -2), "output 'g' references missing term 3"),
                         ((1, 1, 7), "output 'g' references missing term 7"),
                         ((2, 1, 2), r"output 'g' lists a term twice: \(2, 1, 2\)")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            MultiOutputCover(("A", "B"), pool, (ok, ("g", sel)))
    MultiOutputCover(("A", "B"), pool, (ok, ("g", ()), ("h", (0, 1, 2))))
    # the first bad pool cube is named, wherever it stands
    for pool, bad in ((("1-", "0", "1x"), "'0'"), (("1-", "0x", "1"), "'0x'"),
                      (("1-", "00", "-1-"), "'-1-'")):
        with pytest.raises(ValueError, match=f"input cube {bad} is not 2 chars of 0/1/-"):
            MultiOutputCover(("A", "B"), pool, (("f", (0,)),))
    # the order is refused as Cover's is when empty or repeated; one wider
    # than MAX_VARS is left for fit to refuse as a capacity
    with pytest.raises(ValueError, match=r"duplicate variable in order: \('A', 'A'\)"):
        MultiOutputCover(("A", "A"), ("1-",), (("F", (0,)),))
    with pytest.raises(ValueError, match="duplicate variable in order"):
        MultiOutputCover(("A",) * (MAX_VARS + 1), (), (("F", ()),))
    with pytest.raises(ValueError, match="variable order must not be empty"):
        MultiOutputCover((), (), (("F", ()),))
    wide = MultiOutputCover(tuple(f"v{j}" for j in range(MAX_VARS + 1)),
                            ("-" * (MAX_VARS + 1),), (("F", (0,)),))
    with pytest.raises(CapacityError, match="design needs 25 inputs but device provides 24"):
        fit(wide, PlaProfile(MAX_VARS, 1, 1))
