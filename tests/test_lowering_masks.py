"""Minimized controller synthesis lowers a machine to one ON row mask per
output and one don't-care mask, with no cover or hold row between.

The masks, images and reports are held to the row route in
tests/oracles.py: each output's Cover of fsm_to_covers' rows, tabulated,
and the unused codes' rows listed one by one. The refusals a design too
large for the minimizer or the device meets come before any row is
written, with the texts they had when they came after.
"""

import time
from dataclasses import replace

import pytest

from plakit import (
    CapacityError, Fsm, PlaProfile, StateEncoding, Transition, default_encoding, fsm_to_covers,
    synthesize_controller,
)
from plakit import fsm as fsm_mod
from plakit.logic import Cover
from plakit.minimize import _checked_mask

from oracles import lower_via_rows, random_cube_fsm, random_fsm, seeded, synthesize_via_strings


def _gapped(rng, machine):
    """Random codes over at least 3 bits with gaps between them, the reset at 0."""
    b = max(3, len(machine.states).bit_length() + 1)
    others = [s for s in machine.states if s != machine.reset]
    codes = sorted(rng.sample(range(1, 1 << b), len(others)))
    rng.shuffle(others)
    return StateEncoding(b, machine.n_inputs, machine.n_outputs,
                         ((machine.reset, 0), *zip(others, codes)))


def _cases():
    """(machine, encoding) pairs: seeded machines under the default
    encoding, under gapped codes, and with a reset other than the first state."""
    rng = seeded(401)
    machines = [random_fsm(rng, max_inputs=3, max_outputs=3) for _ in range(24)]
    machines += [random_cube_fsm(rng, k) for k in range(1, 8)]
    for machine in machines:
        yield machine, default_encoding(machine)
        yield machine, _gapped(rng, machine)
        moved = replace(machine, reset=rng.choice(machine.states[1:]))
        yield moved, default_encoding(moved)
        yield moved, _gapped(rng, moved)


def test_masks_images_and_reports_match_the_row_route():
    cases = list(_cases())
    assert any(enc.bits >= 3 and len(enc.codes) < 1 << enc.bits for _, enc in cases)
    assert any(m.reset != m.states[0] for m, _ in cases)
    for machine, enc in cases:
        order, names, on_masks, dc = fsm_mod._lower_masks(machine, enc, False)
        want_on, want_dc = lower_via_rows(machine, enc)
        assert on_masks == want_on
        assert dc == want_dc == _checked_mask(len(order), fsm_to_covers(machine, enc)[1])
        profile = PlaProfile(len(order), max(1, sum(m.bit_count() for m in on_masks)),
                             len(names))
        assert (synthesize_controller(machine, profile, minimize=True, encoding=enc)
                == synthesize_via_strings(machine, profile, enc))


def test_minimized_synthesis_builds_no_cover_and_no_hold_row(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the row route was taken")

    monkeypatch.setattr(Cover, "__post_init__", refuse)
    monkeypatch.setattr(fsm_mod, "_lower", refuse)
    monkeypatch.setattr(fsm_mod, "mask_rows", refuse)  # hold rows are written from it
    rng = seeded(409)
    for k in range(1, 6):
        machine = random_cube_fsm(rng, k)
        enc = default_encoding(machine)
        profile = PlaProfile(enc.bits + k, 256, enc.bits + machine.n_outputs)
        synthesize_controller(machine, profile, minimize=True)
        with pytest.raises(AssertionError, match="row route"):  # the guard is live
            synthesize_controller(machine, profile)


def _two_state(k):
    """A → B on all-ones with output 1, B → A on all-ones with output 0:
    every other input of B holds, one hold row each."""
    ones = "1" * k
    return Fsm(k, 1, ("A", "B"), "A",
               (Transition(ones, "A", "B", "1"), Transition(ones, "B", "A", "0")))


def _refused(call, error, message):
    start = time.perf_counter()
    with pytest.raises(error) as exc:
        call()
    elapsed = time.perf_counter() - start
    assert str(exc.value) == message
    return elapsed


@pytest.mark.parametrize("k", [20, 23])
def test_the_minimizer_limit_is_refused_before_lowering(k):
    # the row route wrote 2^k hold rows first: 1.6 s at k = 20
    elapsed = _refused(
        lambda: synthesize_controller(_two_state(k), PlaProfile(24, 64, 2), minimize=True),
        ValueError, f"{k + 1} variables exceeds the minimizer limit of 16")
    assert elapsed < 0.1, f"took {elapsed:.3f}s, limit 0.1s"


def test_an_order_past_the_device_limit_is_refused_before_lowering():
    machine = Fsm(23, 1, ("A", "B", "C"), "A", (
        Transition("1" * 23, "A", "B", "1"),
        Transition("1" * 23, "B", "C", "0"),
    ))
    elapsed = _refused(
        lambda: synthesize_controller(machine, PlaProfile(24, 64, 3), minimize=True),
        ValueError, "25 variables exceeds the limit of 24")
    assert elapsed < 0.1, f"took {elapsed:.3f}s, limit 0.1s"


def test_unminimized_lowering_counts_terms_before_writing_hold_rows():
    # one transition row plus 2^17 - 1 hold rows of B: 0.56 s and 57 MB
    # before the count came first
    machine = _two_state(17)
    elapsed = _refused(lambda: synthesize_controller(machine, PlaProfile(24, 64, 2)),
                       CapacityError, "design needs 131072 terms but device provides 64")
    assert elapsed < 0.1, f"took {elapsed:.3f}s, limit 0.1s"
    # strict first, then the axes in order: inputs, outputs, terms
    with pytest.raises(ValueError, match="^262142 unmatched state/input combinations"):
        synthesize_controller(machine, PlaProfile(24, 64, 2), strict=True)
    for profile, axis in ((PlaProfile(17, 1, 1), "18 inputs but device provides 17"),
                          (PlaProfile(18, 1, 1), "2 outputs but device provides 1")):
        _refused(lambda: synthesize_controller(machine, profile), CapacityError,
                 f"design needs {axis}")


def test_the_term_count_is_the_pool_size():
    rng = seeded(419)
    machines = [random_fsm(rng, max_inputs=3) for _ in range(12)]
    machines += [random_cube_fsm(rng, k) for k in range(1, 7)]
    for machine in machines:
        enc = default_encoding(machine)
        pool = len(fsm_to_covers(machine, enc)[0].term_pool)
        n, m = enc.bits + machine.n_inputs, enc.bits + machine.n_outputs
        if pool > 1:
            _refused(lambda: synthesize_controller(machine, PlaProfile(n, pool - 1, m)),
                     CapacityError, f"design needs {pool} terms but device provides {pool - 1}")
        synthesize_controller(machine, PlaProfile(n, max(1, pool), m))
