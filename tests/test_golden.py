"""Golden artifacts: byte-for-byte pins on minimizer covers and FSM output.

The oracle tests check that covers are correct and minimal where exact;
they do not pin which of several equal covers the greedy path picks, nor
the order terms come out in. These digests do, so a refactor of the
minimizer or the fitter has to reproduce the same text exactly.

Seeded random functions run n = 4..11 with and without don't-cares at a
30 % on-set: n <= 6 reaches Petrick's method, n >= 7 the greedy cover.
Seeded machines with '-' input cubes and unmatched (state, input) pairs
pin the KISS2 lowering and both controller fuse maps. Seeded random
images pin every line of the `fault --all` sweep and its detected count.
Seeded controllers pin their clocked traces on runs either side of the
size rule that picks how their step tables are filled.
"""

import hashlib

from plakit import (
    ControllerImage,
    PlaProfile,
    StateEncoding,
    TruthTable,
    emit_encoding,
    emit_fusemap,
    fsm_to_covers,
    minimize,
    parse_kiss2,
    share_terms,
    simulate_controller,
    synthesize_controller,
    write_berkeley_pla,
)
from plakit.device import fault_sweep
from plakit.fsm import _CYCLES_PER_ROW
from oracles import random_cube_fsm, random_input_sequence, random_state, seeded

MINIMIZED_PLA_SHA256 = {
    (4, False): "dfa15c2201a94bae574e9c2aa514d9b8fdef36399982308882d841ba333fbe6d",
    (4, True): "e86fe51a0ffa65221f0fcc0981fdb46761b66df4f87eb08a02e77ceabe85f4f0",
    (5, False): "026bb2d48687b84521f1651908279f14fa4e4c9f95cad62ef3193a0cab13603c",
    (5, True): "640088b8819964a07591e19dc5b9050a7c50c990b9828af436dffba60b0b4d39",
    (6, False): "43bf05b3d937b581303de34277944bad9da3507481ab674438cf96c974ff766a",
    (6, True): "6fd8173fbcf7840a7f6aa04688fc85b8b2792d531af01e1d2d312ccc4e42dd9a",
    (7, False): "ce4f786346b404e6abbd4303a327570e1c3ab2102f8a1d74429d24ec423b0316",
    (7, True): "f1df4bfd84d79a4456bbbb086cc6a2a0a3271e92e34afafd71d5e8f4fae949ce",
    (8, False): "6a38e072b4a3c9e19991a66dda4ebff2febd988e7e4e6a1a520f857a2f91096b",
    (8, True): "c63b444806ca12ff7c0947657f11fc2e06f22a1cd77bc7e4339bf9fd27452214",
    (9, False): "dbd5fd39b0952f1d995ced90037e6378f49116b35f0367c7da65de3e7ba80e70",
    (9, True): "272b659e204984d7cec975571127ce2cd5918f91e66da2165f597f023fc8313a",
    (10, False): "d1ce08e79386662670ea910e24c76587c10cacaae2a8210bbd450f4d4a70d39a",
    (10, True): "3c2ce005ad822ddb8042eb909d70da656563e79b43ec36739c0c2ee97979c159",
    (11, False): "c0524955f72ea3bfe9e7d60d113d56fdbf7c8ac84ccdce7cccc91238635e10a5",
    (11, True): "8ee4f94ba077075020b75d859ed70148e234ca35cc1c16dbf85865acb35139a9",
}


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _minimized_pla(n, with_dc):
    """Three seeded outputs (one above n = 8, to keep the test quick),
    minimized one by one and written as one shared-term .pla."""
    order = tuple(f"x{j}" for j in range(n))
    named = []
    for k in range(3 if n <= 8 else 1):
        rng = seeded(100 * n + 10 * with_dc + k)
        on = 0
        dc = []
        for row in range(1 << n):
            r = rng.random()
            if r < 0.3:
                on |= 1 << row
            elif with_dc and r < 0.4:
                dc.append(row)
        named.append((f"f{k}", minimize(TruthTable(order, on), dc=dc)))
    return write_berkeley_pla(share_terms(named))


def test_minimized_covers_are_byte_identical():
    got = {key: _digest(_minimized_pla(*key)) for key in MINIMIZED_PLA_SHA256}
    assert got == MINIMIZED_PLA_SHA256


DETECTOR = """\
.i 1
.o 1
.s 2
.r IDLE
1 IDLE SAW1 0
1 SAW1 SAW1 1
0 SAW1 IDLE 0
.e
"""


def test_fsm_demo_artifacts_are_byte_identical():
    # the '11' detector of demos/07_fsm_controller.py, minimized
    image, _ = synthesize_controller(
        parse_kiss2(DETECTOR), PlaProfile(2, 4, 2), minimize=True
    )
    fuse = emit_fusemap(image.state, image.input_names, image.output_names)
    assert _digest(fuse) == (
        "763646886361d0ef8b08359317f0b13e762e717239a59c6acebcf472137082ac"
    )
    assert _digest(emit_encoding(image.encoding)) == (
        "1a023545632858e4f7b20d7ebfab85597b5157333c9ec9722112ff2697435365"
    )


# k -> sha256 of (lowered .pla, fuse map, minimized fuse map)
CUBE_FSM_SHA256 = {
    3: (
        "af81579c4d3872238bac12fdac84655a52ceb2ca0204afc8688999ac4a1569cf",
        "56a3cac2ec0159f1e4a49ea0ebe130c41c3620d44eb28d1a0358c5bf37d8634e",
        "30e818958d3d36cf38e3d50f56efb6775094aec87602d6c4be6b104fc49b1d5b",
    ),
    6: (
        "4a52e81468f1a81ae3afafa39068e227c55d32d75aef5735f1f8d7790ccff5dc",
        "b9b02d5698309fd375e96e664adf42087b03b5b1c2e377f5dd72dfd3f83ebd9b",
        "7759c9ef725bb28f7b93794fec96ed2480076230f3a26baf4c23300e4339629d",
    ),
    10: (
        "3001f8e3d2a9bb85e673f2c6f2b48bde4bb1b777d5838df584d824708b9c1a96",
        "b537b34aa2cc2e36a9b494d6dc6a3f30cb776eb978de6ed23c5bbe4f0e63b7d1",
        "6fe637d8e2c305cb3780b0bc9122580836a93d04ff809d59e81b5f64a7cfdb1f",
    ),
}


def test_cube_fsm_lowering_and_controllers_are_byte_identical():
    got = {}
    for k in CUBE_FSM_SHA256:
        # two states at k = 10 keep the minimized run near a second
        machine = random_cube_fsm(seeded(1000 + k), k, max_states=6 if k < 10 else 2)
        mcover, _ = fsm_to_covers(machine)
        bits = max(1, (len(machine.states) - 1).bit_length())
        profile = PlaProfile(
            bits + k, 2 * len(mcover.term_pool), bits + machine.n_outputs
        )
        digests = [_digest(write_berkeley_pla(mcover))]
        for minimized in (False, True):
            image, _ = synthesize_controller(machine, profile, minimize=minimized)
            digests.append(_digest(
                emit_fusemap(image.state, image.input_names, image.output_names)
            ))
        got[k] = tuple(digests)
    assert got == CUBE_FSM_SHA256


def _sweep_images():
    """60 seeded images with n <= 8 over densities 0.1-0.9, both switch
    technologies, with and without the output XOR, then one 16-input image."""
    rng = seeded(2401)
    for k in range(60):
        profile = PlaProfile(rng.randint(1, 8), rng.randint(1, 10), rng.randint(1, 4),
                             ("fuse", "antifuse")[k & 1], bool(k >> 1 & 1))
        yield random_state(rng, profile, 0.1 + 0.1 * (k % 9))
    yield random_state(rng, PlaProfile(16, 12, 3, "fuse", True), 0.15)


def test_fault_sweep_transcripts_are_byte_identical():
    digest = hashlib.sha256()
    for state in _sweep_images():
        lines, detected = fault_sweep(state)
        digest.update(f"{''.join(lines)}{detected}\n".encode())
    assert digest.hexdigest() == (
        "07eb117867baf062689fb2d8ec6c22cc8c85fcbad2263385e0c22c9668d3d173"
    )


def _controller_images():
    """Seeded cube machines, plain and minimized, on parts one input and one
    output wider than they need, then seeded random images with the output
    XOR over random encodings, unused codes and unused inputs included."""
    for k in (2, 3, 4):
        machine = random_cube_fsm(seeded(2500 + k), k)
        mcover, _ = fsm_to_covers(machine)
        bits = max(1, (len(machine.states) - 1).bit_length())
        profile = PlaProfile(bits + k + 1, 2 * len(mcover.term_pool),
                             bits + machine.n_outputs + 1)
        for minimized in (False, True):
            yield synthesize_controller(machine, profile, minimize=minimized)[0]
    rng = seeded(2510)
    for i in range(12):
        b, k, q = rng.randint(1, 3), rng.randint(1, 4), rng.randint(2, 3)
        profile = PlaProfile(b + k + rng.randint(0, 2), rng.randint(8, 24),
                             b + q + rng.randint(0, 2), ("fuse", "antifuse")[i & 1], True)
        codes = sorted({0, *rng.sample(range(1 << b), rng.randint(0, (1 << b) - 1))})
        enc = StateEncoding(b, k, q, tuple((f"S{c}", c) for c in codes))
        yield ControllerImage(random_state(rng, profile, 0.2), enc)


def test_controller_traces_are_byte_identical():
    # one run a cycle short of the mask path's size rule, one longer
    rng = seeded(2520)
    digest = hashlib.sha256()
    for image in _controller_images():
        enc = image.encoding
        rows = _CYCLES_PER_ROW << (enc.bits + enc.n_inputs)
        for cycles in (rows - 1, rows + 37):
            trace = simulate_controller(image, random_input_sequence(rng, enc.n_inputs, cycles))
            digest.update("".join(f"{code} {outs}\n" for code, outs in trace).encode() + b"\0")
    assert digest.hexdigest() == (
        "07e0c8290c36ccce4532e53e7790f85149237cddc98367a1f6e789eeeeba8eda"
    )
