"""The compile paths fit (req1, req0) product words straight onto the
device. These tests hold `plakit compile`'s private compile of
`read_equations` bodies, `compile_equations` (minimized and with polarity)
and `synthesize_controller(minimize=True)` to the string
route in tests/oracles.py (Cover -> share_terms -> fit): equal PlaState,
FitReport, report text and CapacityError text, and check that the word
paths build no pool of cubes.
"""

import importlib

import pytest

from plakit import (
    CapacityError, MultiOutputCover, PlaProfile, compile_equations, emit_fusemap,
    parse_equations, synthesize_controller, write_kiss2,
)
from plakit.cli import main
from plakit.expr import read_equations
from plakit.fit import _compile
from oracles import (
    compile_via_strings, random_cube_fsm, random_fsm, seeded, synthesize_via_strings,
)
from test_fit import _random_equation
from test_sop import _sop_file

mn_mod = importlib.import_module("plakit.minimize")
cli_mod = importlib.import_module("plakit.cli")


def _outcome(fn):
    """(PlaState, FitReport, report text), or the CapacityError's text."""
    try:
        state, report = fn()
    except CapacityError as exc:
        return "CapacityError: " + str(exc)
    return state, report, report.summary()


def _same_with_one_term_short(words, strings, profile):
    """`words(profile)` and `strings(profile)` agree on `profile` and on the
    same device one term short of the design, which both refuse alike."""
    got = _outcome(lambda: words(profile))
    assert got == _outcome(lambda: strings(profile))
    if isinstance(got, str):
        return got
    needed = got[1].terms_used
    if needed >= 2:  # a device has at least one term
        short = PlaProfile(profile.n_inputs, needed - 1, profile.n_outputs,
                           has_output_xor=profile.has_output_xor)
        refused = _outcome(lambda: words(short))
        assert refused == _outcome(lambda: strings(short))
        assert refused == (f"CapacityError: design needs {needed} terms but "
                           f"device provides {needed - 1}")
    return got


@pytest.mark.parametrize("multi_letter", [False, True])
def test_sop_files_fit_as_the_string_route(multi_letter):
    rng = seeded(191 + multi_letter)
    pool = (["alpha", "b2", "c_d", "Delta", "e", "f9x"] if multi_letter
            else list("ABCDEFGH"))
    fitted = 0
    for _ in range(80):
        names = rng.sample(pool, rng.randint(1, len(pool)))
        m = rng.randint(1, 5)
        text = _sop_file(rng, names, m, multi_letter)
        bodies = read_equations(text, multi_letter)
        order = None
        if rng.random() < 0.5:
            order = rng.sample(names, len(names)) + ["u0"] * rng.randint(0, 1)
        profile = PlaProfile(len(names) + 1, rng.choice((6, 40)), m + rng.randint(0, 1))
        equations = parse_equations(text, multi_letter=multi_letter)
        got = _same_with_one_term_short(
            lambda prof: _compile(bodies, prof, order=order),
            lambda prof: compile_via_strings(equations, prof, order=order), profile)
        fitted += not isinstance(got, str)
    assert fitted > 40


def test_cli_compile_writes_the_string_route_map_and_report(tmp_path, capsys):
    rng = seeded(193)
    eq, fuse = tmp_path / "d.eqn", tmp_path / "d.fuse"
    for _ in range(20):
        text = _sop_file(rng, list("ABCDE"), rng.randint(1, 4), False)
        eq.write_text(text)
        equations = parse_equations(text)
        for extra in ([], ["--minimize"]):
            assert main(["compile", str(eq), "--profile", "n6p40m4", "--report",
                         "-o", str(fuse), *extra]) == 0
            state, report = compile_via_strings(equations, PlaProfile(6, 40, 4),
                                                minimize_=bool(extra))
            assert fuse.read_text() == emit_fusemap(state, report.input_names,
                                                    report.output_names)
            assert capsys.readouterr().err == report.summary()


def test_minimized_and_polarity_equations_fit_as_the_string_route():
    rng = seeded(197)
    order = ("A", "B", "C", "D", "E")
    for _ in range(80):
        m = rng.randint(1, 4)
        text = "".join(f"F{o} = {_random_equation(rng, order)}\n" for o in range(m))
        equations = parse_equations(text)
        minimize = rng.random() < 0.5
        pol = [rng.randint(0, 1) for _ in range(m)] if rng.random() < 0.6 else None
        profile = PlaProfile(5 + rng.randint(0, 1), rng.choice((8, 40)), m,
                             has_output_xor=pol is not None)
        _same_with_one_term_short(
            lambda prof: compile_equations(equations, prof, minimize=minimize,
                                           polarity=pol, order=order),
            lambda prof: compile_via_strings(equations, prof, minimize, pol, order), profile)


def test_minimized_controllers_fit_as_the_string_route():
    rng = seeded(199)
    for i in range(48):
        machine = (random_fsm(rng, max_inputs=3) if i % 2
                   else random_cube_fsm(rng, rng.randint(1, 4)))
        bits = (len(machine.states) - 1).bit_length()
        n, m = bits + machine.n_inputs, bits + machine.n_outputs
        profile = PlaProfile(n + rng.randint(0, 1), rng.choice((6, 48)), m)
        _same_with_one_term_short(
            lambda prof: synthesize_controller(machine, prof, minimize=True),
            lambda prof: synthesize_via_strings(machine, prof), profile)


def test_repeated_products_contradictions_and_empty_outputs_fit_alike():
    texts = [
        "F = AB + AB + A'C\nG = C + AB + A'C + AB\n",  # within and across outputs
        "F = AA'B + C\nG = BB'\nH = AB'' + !A!A\n",  # X and X', and no products at all
        "F = ABC + A'B'C'\nG = (A + B)C\nH = A'B'C' + AB\n",  # written and table minterms
        "F = AA'\n",
    ]
    for text in texts:
        equations = parse_equations(text)
        order = ("A", "B", "C")
        m = len(equations)
        for profile in (PlaProfile(3, 16, m), PlaProfile(4, 16, m + 1)):
            bodies = read_equations(text)
            for minimize in (False, True):
                for compiled in (
                    lambda prof: _compile(bodies, prof, minimize, order=order),
                    lambda prof: compile_equations(equations, prof, minimize=minimize,
                                                   order=order),
                ):
                    _same_with_one_term_short(
                        compiled,
                        lambda prof: compile_via_strings(equations, prof, minimize, order=order),
                        profile)
    _, report = compile_equations(parse_equations("F = AA'\nG = A\n"), PlaProfile(1, 2, 2))
    assert report.assignments == (("F", ()), ("G", (0,)))


def test_repeated_output_names_are_refused_on_every_path():
    e1, e2 = parse_equations("F = AB\nG = A'C\n")
    equations = [("F", e1[1]), ("F", e2[1])]
    for minimize, polarity in ((False, None), (True, None), (False, [1, 0]), (True, [0, 1])):
        profile = PlaProfile(3, 8, 2, has_output_xor=polarity is not None)
        with pytest.raises(ValueError, match=r"^duplicate output name in \['F', 'F'\]$"):
            compile_equations(equations, profile, minimize=minimize, polarity=polarity)
    # the device's capacity is checked first, as the string route checked it
    with pytest.raises(CapacityError, match="needs 2 outputs but device provides 1"):
        compile_equations(equations, PlaProfile(3, 8, 1))


def test_compile_and_fsm_build_no_pool_of_cubes(tmp_path, monkeypatch, capsys):
    calls = []

    def no_share(*_):
        calls.append("share_terms")
        raise AssertionError("share_terms was called")

    post_init = MultiOutputCover.__post_init__

    def counted(self):
        calls.append("MultiOutputCover")
        post_init(self)

    monkeypatch.setattr(mn_mod, "share_terms", no_share)
    monkeypatch.setattr(cli_mod, "share_terms", no_share)
    monkeypatch.setattr(MultiOutputCover, "__post_init__", counted)
    eq, fuse, kiss = tmp_path / "fg.eqn", tmp_path / "fg.fuse", tmp_path / "m.kiss"
    eq.write_text("F = AB + A'C\nG = !B*C + A . B'' + AB\n")
    kiss.write_text(write_kiss2(random_cube_fsm(seeded(5), 2)))
    for argv in (["compile", str(eq), "--profile", "n3p8m2"],
                 ["compile", str(eq), "--profile", "n3p8m2", "--order", "C,A,B"],
                 ["compile", str(eq), "--profile", "n3p8m2", "--minimize"],
                 ["fsm", str(kiss), "--profile", "n5p32m6", "--minimize"]):
        assert main([*argv, "-o", str(fuse), "--report"]) == 0, capsys.readouterr().err
    assert calls == []
    # the counter sees a pool of cubes: fsm without --minimize fits fsm_to_covers' pool
    assert main(["fsm", str(kiss), "--profile", "n5p32m6", "-o", str(fuse)]) == 0
    assert calls == ["MultiOutputCover"]
