"""Command-line front end.

Subcommands mirror the library pipeline: table / synth for algebra,
compile / sim / verify / diagram / fault for combinational devices,
fsm / fsmsim for controllers. '-' means stdin (inputs) or stdout (-o).
compile, verify and synth read each equation file once, as products, and
read every truth table from them; only a constant or a group makes a tree.

Exit codes: 0 success; 1 verification mismatch or failed fault-coverage
gate; 2 usage or I/O trouble; 3 design does not fit the device; 4
malformed artifact (equations, fuse map, .pla, KISS2, encoding, vectors).
"""

import argparse
import locale
import re
import sys
from contextlib import suppress
from functools import cache
from pathlib import Path

from . import __version__
from .device import (
    Fault,
    PlaProfile,
    eval_pla,  # noqa: F401 (bench/tests reads cli.eval_pla)
    fault_sweep,
    find_test_vector,
    output_masks,
    render_crosspoint_diagram,
)
from .errors import CapacityError, FormatError
from .expr import (
    _names,
    _trees,
    check_names,
    content_lines,
    parse_expression,
    read_equations,
    variables,
)
from .fit import (
    _compile,
    emit_fusemap,
    pad_input_names,
    parse_fusemap,
    write_berkeley_pla,
)
from .fsm import (
    ControllerImage,
    emit_encoding,
    parse_encoding,
    parse_kiss2,
    simulate_controller,
    synthesize_controller,
)
from .logic import (
    TruthTable,
    _body_mask,
    _order_bits,
    canonical_sop,
    check_bits,
    lowest_row,
    table_from_expr,
)
from .minimize import _check_width, _minimized, share_terms

_PROFILE_RE = re.compile(r"n(\d+)p(\d+)m(\d+)")


def parse_profile(spec):
    """Profile syntax: nXpYmZ[:fuse|:antifuse][:xor], e.g. n4p8m2:antifuse:xor."""
    head, *flags = spec.split(":")
    m = _PROFILE_RE.fullmatch(head)
    if not m or len(set(flags)) < len(flags) or {"fuse", "antifuse"} <= set(flags):
        raise ValueError(f"bad profile {spec!r}: expected nXpYmZ[:fuse|:antifuse][:xor]")
    tech = "fuse"
    xor = False
    for flag in flags:
        if flag in ("fuse", "antifuse"):
            tech = flag
        elif flag == "xor":
            xor = True
        else:
            raise ValueError(f"bad profile flag {flag!r} in {spec!r}")
    return PlaProfile(
        int(m.group(1)),
        int(m.group(2)),
        int(m.group(3)),
        switch_tech=tech,
        has_output_xor=xor,
    )


def _read_text(path, what="input"):
    if path == "-":
        return sys.stdin.read()
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise OSError(f"cannot read {what} {path!r}: {exc}") from exc


def _write_text(path, text):
    if path in (None, "-"):
        sys.stdout.write(text)
        return
    if Path(path).is_file():  # not a FIFO or a tty: its other end would see the open
        with suppress(OSError, UnicodeError), open(path, "rb+", buffering=0) as f:
            data = text.encode(locale.getpreferredencoding(False))  # as Path.write_text does
            if f.read(len(data) + 1) == data:
                Path(path).touch()  # already written: an O_TRUNC rewrite starts ext4 writeback
                return
    Path(path).write_text(text)


def _exhaustive(spec, width):
    """Whether `spec` asks for every input vector: 'all', or 'allN' with N = 2^width."""
    if not (spec == "all" or (spec.startswith("all") and spec[3:].isdigit())):
        return False
    if spec != "all" and int(spec[3:]) != 1 << width:
        raise ValueError(
            f"{spec!r} asks for {int(spec[3:])} vectors but the device "
            f"has {width} inputs (2^{width} = {1 << width})"
        )
    return True


def _load_vectors(spec, width, what="vectors"):
    vectors = []
    for lineno, line in content_lines(_read_text(spec, what)):
        try:
            vectors.append(check_bits(line, width))
        except ValueError as exc:
            raise FormatError(f"{what} line {lineno}: {exc}") from None
    return vectors


def _split_names(text):
    return tuple(name for name in text.replace(",", " ").split() if name)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_table(args):
    expr = parse_expression(args.expr, multi_letter=args.multi_letter)
    order = _split_names(args.order) if args.order else variables(expr)
    if not (order or args.order):
        raise ValueError("constant expression: give the columns with --order")
    table = table_from_expr(expr, order)
    if args.header:
        print("# " + " ".join(order))
    for chunk in _exhaustive_lines([table.bits], table.n):
        sys.stdout.write(chunk)
    return 0


def cmd_synth(args):
    equations = read_equations(_read_text(args.equations, "equations"), args.multi_letter)
    order = _split_names(args.order) if args.order else _names(equations)
    if not (order or args.order):
        raise ValueError("constant equations: give the variables with --order" if equations
                         else "no equations to synthesize")

    try:
        bits = _order_bits(order) if equations else {}  # none: share_terms names the fault
        _check_width(len(bits) if args.minimize else 0)  # before any table is built
        tables = [TruthTable(order, _body_mask(products, bits)) for _, products, _ in equations]
        covers = _minimized(tables) if args.minimize else [canonical_sop(t) for t in tables]
    except (KeyError, ValueError):  # KeyError: _body_mask met a name outside the order
        check_names(_trees(equations), order, "not in order")
        raise
    names = [name for name, _, _ in equations]
    _write_text(args.output, write_berkeley_pla(share_terms(zip(names, covers))))
    return 0


def cmd_compile(args):
    equations = read_equations(_read_text(args.equations, "equations"), args.multi_letter)
    profile = parse_profile(args.profile)
    order = _split_names(args.order) if args.order else None
    polarity = dict.fromkeys(_split_names(args.polarity), 1) if args.polarity else None
    state, report = _compile(equations, profile, args.minimize, polarity, order)
    _write_text(args.output, emit_fusemap(state, report.input_names, report.output_names))
    if args.report:
        sys.stderr.write(report.summary())
    return 0


def cmd_sim(args):
    if args.fusemap == "-" and args.vectors == "-":
        raise ValueError("fuse map and vectors cannot both come from stdin")
    fm = parse_fusemap(_read_text(args.fusemap, "fuse map"))
    n = fm.state.profile.n_inputs
    if _exhaustive(args.vectors, n):
        chunks = _exhaustive_lines(output_masks(fm.state), n)
    else:
        vectors = _load_vectors(args.vectors, n)
        evaluate, width = fm.state._eval, f"0{fm.state.profile.n_outputs}b"
        chunks = (f"{v} {evaluate(int(v, 2)):{width}}\n" for v in vectors)
    if args.header:
        ins = fm.input_names or tuple(f"x{j}" for j in range(n))
        outs = fm.output_names or tuple(
            f"f{o}" for o in range(fm.state.profile.n_outputs)
        )
        print("# " + " ".join(ins) + " | " + " ".join(outs))
    for chunk in chunks:
        sys.stdout.write(chunk)
    return 0


_CHUNK_BITS = 12  # rows per chunk of `table` and `sim --vectors all`: 2^12


def _exhaustive_lines(masks, n):
    """The 'inputs outputs' lines of every input row in order, 2^_CHUNK_BITS
    rows to a string. Row i of the table is bit i of each output mask. Each
    character position of a line is one strided slice of the chunk, so the
    chunk is filled by one slice assignment per input bit (the low ones
    once, the high ones per chunk) and per output, from that output's slice
    of its mask."""
    width = min(n, _CHUNK_BITS)
    size = 1 << width
    stride = n + len(masks) + 2
    high = n - width
    chunk = bytearray(f"{'0' * n} {'0' * len(masks)}\n" * size, "ascii")
    for k in range(width):  # column high+k: runs of 2^(width-1-k) rows per value
        run = 1 << (width - 1 - k)
        chunk[high + k::stride] = (b"0" * run + b"1" * run) * (1 << k)
    fills = {"0": b"0" * size, "1": b"1" * size}
    nbytes = max(1, (1 << n) >> 3)
    columns = [m.to_bytes(nbytes, "little") for m in masks]
    for base in range(0, 1 << n, size):
        if high:
            for k, bit in enumerate(format(base >> width, f"0{high}b")):
                chunk[k::stride] = fills[bit]
        start, end = base >> 3, (base + size + 7) >> 3
        for o, col in enumerate(columns, n + 1):
            bits = format(int.from_bytes(col[start:end], "little"), f"0{size}b")
            chunk[o::stride] = bits[::-1].encode("ascii")
        yield chunk.decode("ascii")


def cmd_verify(args):
    fm = parse_fusemap(_read_text(args.fusemap, "fuse map"))
    equations = read_equations(_read_text(args.equations, "equations"), args.multi_letter)
    if not equations:
        raise ValueError("no equations to verify")
    profile = fm.state.profile
    if len(equations) > profile.n_outputs:
        raise ValueError(
            f"{len(equations)} equations but the device has {profile.n_outputs} outputs"
        )

    base = _split_names(args.var_order) if args.var_order else fm.input_names or _names(equations)
    if len(base) > profile.n_inputs:
        raise ValueError(
            f"{len(base)} variables but the device has {profile.n_inputs} inputs"
        )
    order = pad_input_names(base, profile.n_inputs)
    # every table is built before any output is named or compared, so a
    # name outside the order wins over an unknown output or a mismatch
    try:
        bits = _order_bits(order)
        tables = [_body_mask(products, bits) for _, products, _ in equations]
    except (KeyError, ValueError):  # KeyError: _body_mask met a name outside the order
        check_names(_trees(equations), order, "not on the device")
        raise

    masks = output_masks(fm.state)
    out_names = fm.output_names
    for i, ((name, _, _), expected) in enumerate(zip(equations, tables)):
        if not out_names:
            idx = i
        elif name in out_names:
            idx = out_names.index(name)
        else:
            raise ValueError(
                f"equation {name!r} names no output of the fuse map "
                f"(OB: {' '.join(out_names)})"
            )
        bits = lowest_row(masks[idx] ^ expected, profile.n_inputs)
        if bits is not None:
            got = (masks[idx] >> int(bits, 2)) & 1
            print(
                f"MISMATCH {name}: input {bits} device={got} expected={1 - got}"
            )
            return 1
    print(
        f"equivalent: {len(equations)} output(s) verified over "
        f"{1 << profile.n_inputs} input vectors"
    )
    return 0


def cmd_diagram(args):
    fm = parse_fusemap(_read_text(args.fusemap, "fuse map"))
    sys.stdout.write(
        render_crosspoint_diagram(fm.state, fm.input_names, fm.output_names)
    )
    return 0


def cmd_fsm(args):
    machine = parse_kiss2(_read_text(args.kiss, "KISS2 file"))
    profile = parse_profile(args.profile)
    image, report = synthesize_controller(
        machine, profile, minimize=args.minimize, strict=args.strict
    )
    _write_text(
        args.output, emit_fusemap(image.state, image.input_names, image.output_names)
    )
    if args.encoding_out is not None:
        _write_text(args.encoding_out, emit_encoding(image.encoding))
    if args.report:
        sys.stderr.write(report.summary())
    return 0


def cmd_fsmsim(args):
    if args.fusemap == "-" and args.vectors == "-":
        raise ValueError("fuse map and vectors cannot both come from stdin")
    fm = parse_fusemap(_read_text(args.fusemap, "fuse map"))
    enc = parse_encoding(_read_text(args.encoding, "encoding"))
    image = ControllerImage(fm.state, enc, fm.input_names or (), fm.output_names or ())
    if _exhaustive(args.vectors, enc.n_inputs):
        raise ValueError("a state machine needs a vector sequence, not 'all'")
    vectors = _load_vectors(args.vectors, enc.n_inputs)
    if args.header:
        print("# cycle state out")
    names = {format(c, f"0{enc.bits}b"): f" {name}" for name, c in enc.codes}
    for cycle, (code, outs) in enumerate(simulate_controller(image, vectors)):
        suffix = names.get(code, "") if args.names else ""
        print(f"{cycle} {code} {outs}{suffix}")
    return 0


_FAULT_RE = re.compile(r"(and|or),(\d+),(\d+),(connected|disconnected)")


def _parse_fault(text):
    m = _FAULT_RE.fullmatch(text.strip())
    if not m:
        raise ValueError(
            f"bad fault {text!r}: expected plane,row,col,stuck "
            "(e.g. and,2,3,disconnected)"
        )
    return Fault(m.group(1), int(m.group(2)), int(m.group(3)), m.group(4))


def cmd_fault(args):
    fm = parse_fusemap(_read_text(args.fusemap, "fuse map"))
    if args.all:
        lines, detected = fault_sweep(fm.state)
        total = 2 * len(lines)  # each string is one crosspoint's two faults
    elif args.fault:
        faults = [_parse_fault(f) for f in args.fault]
        # every fault is range-checked before anything is printed
        verdicts = [find_test_vector(fm.state, f) for f in faults]
        lines = [f"{f}: {v or 'undetectable'}\n" for f, v in zip(faults, verdicts)]
        detected, total = len(faults) - verdicts.count(None), len(faults)
    else:
        raise ValueError("give --fault specs or --all")
    pct = 100.0 * detected / total
    lines.append(f"coverage: {detected}/{total} detected ({pct:.1f}%)\n")
    sys.stdout.write("".join(lines))
    if args.require_full_coverage and detected < total:
        return 1
    return 0


# ---------------------------------------------------------------------------
# Parser


def build_parser():
    """The argparse parser and its command parsers by name; `main` builds
    them once per process, since parsing keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="plakit",
        description="Two-level logic on programmable logic arrays: "
        "synthesize, program, simulate, verify, and test.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("table", help="print the truth table of an expression")
    p.add_argument("expr")
    p.add_argument("--order", help="comma-separated variable order")
    p.add_argument("--multi-letter", action="store_true")
    p.add_argument("--header", action="store_true")

    p = sub.add_parser("synth", help="equations file to a Berkeley .pla cover")
    p.add_argument("equations")
    p.add_argument("--minimize", action="store_true",
                   help="prime covers, exact within the Petrick bounds and greedy beyond")
    p.add_argument("--order", help="comma-separated variable order")
    p.add_argument("--multi-letter", action="store_true")
    p.add_argument("-o", "--output")

    p = sub.add_parser("compile", help="program equations into a fuse map")
    p.add_argument("equations")
    p.add_argument("--profile", required=True, help="nXpYmZ[:fuse|:antifuse][:xor]")
    p.add_argument("--minimize", action="store_true")
    p.add_argument("--polarity", help="output names to realize active-low via XOR")
    p.add_argument("--order")
    p.add_argument("--multi-letter", action="store_true")
    p.add_argument("--report", action="store_true", help="fit summary on stderr")
    p.add_argument("-o", "--output")

    p = sub.add_parser("sim", help="evaluate a fuse map on input vectors")
    p.add_argument("fusemap", nargs="?", default="-")
    p.add_argument("--vectors", required=True, help="vector file, '-', or 'all'")
    p.add_argument("--header", action="store_true")

    p = sub.add_parser("verify", help="prove a fuse map equivalent to equations")
    p.add_argument("fusemap")
    p.add_argument("--equations", required=True)
    p.add_argument("--var-order", help="device input order (overrides ILB)")
    p.add_argument("--multi-letter", action="store_true")

    p = sub.add_parser("diagram", help="ASCII crosspoint map of a fuse map")
    p.add_argument("fusemap", nargs="?", default="-")

    p = sub.add_parser("fsm", help="synthesize a KISS2 machine into a fuse map")
    p.add_argument("kiss")
    p.add_argument("--profile", required=True)
    p.add_argument("--minimize", action="store_true")
    p.add_argument("--strict", action="store_true",
                   help="error on state/input combinations no transition matches")
    p.add_argument("--encoding-out", help="write the state-encoding sidecar here")
    p.add_argument("--report", action="store_true")
    p.add_argument("-o", "--output")

    p = sub.add_parser("fsmsim", help="clock a synthesized controller")
    p.add_argument("fusemap", nargs="?", default="-")
    p.add_argument("--encoding", required=True, help="PLAENC sidecar")
    p.add_argument("--vectors", required=True)
    p.add_argument("--names", action="store_true", help="append state names")
    p.add_argument("--header", action="store_true")

    p = sub.add_parser("fault", help="stuck-crosspoint test vectors and coverage")
    p.add_argument("fusemap", nargs="?", default="-")
    which = p.add_mutually_exclusive_group()
    which.add_argument(
        "--fault",
        action="append",
        metavar="PLANE,ROW,COL,STUCK",
        help="one fault; repeatable",
    )
    which.add_argument("--all", action="store_true", help="every possible fault")
    p.add_argument(
        "--require-full-coverage",
        action="store_true",
        help="exit 1 unless every fault has a test vector",
    )
    return parser, sub.choices


_parsers = cache(build_parser)


def _parse_args(argv):
    """parser.parse_args(argv), reading a command's words once: its parser
    takes them as argparse's subparsers action hands them over, and the
    top-level parser names any left over. Every other argv, and one with a
    '--=' word, which the top-level pass refuses as ambiguous, takes the
    top-level pass."""
    parser, commands = _parsers()
    if argv and argv[0] in commands and not any(w.startswith("--=") for w in argv):
        args, extras = commands[argv[0]].parse_known_args(argv[1:])
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
        args.command = argv[0]
        return args
    return parser.parse_args(argv)


def main(argv=None):
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    if args.command is None:
        _parsers()[0].print_help(sys.stderr)
        return 2
    # looked up per call, so the kept parser holds no command function and a
    # rebound cmd_* (a tracer's wrapper, say) takes effect
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
