"""Command-line front end: one table row per subcommand, nothing else.

Every check suite lives in the library and returns a VerificationReport.
A row of COMMANDS holds a subcommand's help text, its flags and the call of
its suite.  main parses the arguments, runs the row's suite, fills in the
command, the configuration (the value of each flag) and (with --timing)
wall time, and writes the JSON report (stdout by default).
A plain command line is parsed straight from the table; argparse, built
from the same flags, parses every other line and prints help and usage
errors.  main exits 0 when all checks pass (warnings allowed), 1 when a
check fails or the report cannot be rendered, 2 on usage errors and an
unwritable --out.  Identical arguments produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
import time
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import expressions
from .group import GroupElement, GroupParam
from .loops import loop_suite, sharp_transitivity_check
from .multgroup import group_suite, theorem2_suite
from .report import VerificationReport, emit_report
from .sections import (
    CASE_ARITY, PRESETS, FunctionSpec, SectionSpec, generation_suite, lemma1_member, lemma1_suite
)
from .subgroups import classify_suite, fixed_point_suite


# ------------------------------------------------------------ argument glue


def _section_spec(args) -> SectionSpec:
    p = GroupParam(args.a)
    arity = CASE_ARITY[args.case]
    if args.preset:
        fn = FunctionSpec.preset(args.preset, arity, args.coeff)
    elif args.coeff is not None:
        raise ValueError("--coeff sets a preset's coefficient; it cannot be used with --fn")
    elif args.fn:
        try:
            fn = FunctionSpec.from_expression(args.fn, arity)
        except ValueError as err:
            raise ValueError(f"--fn: {err}") from None
    else:
        raise ValueError("provide a section function via --fn or --preset")
    return SectionSpec(case=args.case, param=p, fn=fn)


def _ordered(pair, flag: str) -> tuple[float, float]:
    lo, hi = pair
    if not lo < hi:
        raise ValueError(f"{flag} needs LO < HI")
    return lo, hi


def _transitivity(args) -> VerificationReport:
    spec = _section_spec(args)
    box = _ordered(args.box, "--box")
    if not math.isfinite(box[1] - box[0]):
        raise ValueError("--box is too wide: HI - LO overflows")
    return sharp_transitivity_check(
        spec, box=box, n_samples=args.samples, seed=args.seed, z_half_width=args.z_box
    )


def _lemma1(args) -> VerificationReport:
    if (args.fn is None) == (args.K is None):
        raise ValueError("provide exactly one of --fn or --K")
    if args.K is not None:
        tree, label = lemma1_member(args.K, args.rate)
    else:
        try:
            tree, label = expressions.parse(args.fn, ("z",)), args.fn
        except expressions.ExpressionError as err:
            raise ValueError(f"--fn: {err}") from None
    z_range = _ordered(args.range, "--range")
    if -1e-3 < z_range[0] and z_range[1] < 1e-3:
        raise ValueError("--range must reach |z| >= 1e-3: the profile has no samples in (-1e-3, 1e-3)")
    try:
        report = lemma1_suite(tree, args.rate, z_range, args.samples, args.K)
    except ValueError as err:  # the fit's basis underflows at every sample
        raise ValueError(f"--rate: {err}") from None
    report.data["function"] = label
    return report


def _fixed_point(args) -> VerificationReport:
    p = GroupParam(args.a)
    g = GroupElement(*args.g)
    if g.x4 == 0:
        raise ValueError("--g must have a nonzero fourth coordinate (no fixed coset is claimed on the slab)")
    return fixed_point_suite(p, g)


# -------------------------------------------------------------- the table


def _at_least(minimum: int):
    """argparse type: an integer no smaller than minimum."""

    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return integer


def _finite_float(ok: Callable[[float], bool], requirement: str):
    """argparse type: a finite float for which ok holds."""

    def checked(text: str) -> float:
        value = float(text)
        if not (math.isfinite(value) and ok(value)):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text}")
        return value

    checked.__name__ = "float"  # keeps argparse's "invalid float value" message
    return checked


def _flag(*names: str, **kwargs) -> tuple:
    return names, kwargs


FINITE = _finite_float(math.isfinite, "finite")
SECTION_FN = "section-fn"  # stands for --fn | --preset (one required) and --coeff
_FN = _flag("--fn", help="expression for the section function")
_PRESET = _flag("--preset", choices=list(PRESETS))
_COEFF = _flag("--coeff", type=FINITE, default=None, help="preset coefficient override")
# every command also takes these
_OUT = _flag("-o", "--out", default="-", help="report path ('-' = stdout)")
_TIMING = _flag("--timing", action="store_true", help="record wall time (breaks byte-determinism)")
A = _flag("--a", type=float, required=True)
CASE = _flag("--case", choices=["A", "B", "C"], required=True)
SEED = _flag("--seed", type=_at_least(0), default=0)


def _samples(default: int, minimum: int = 1) -> tuple:
    return _flag("--samples", type=_at_least(minimum), default=default)


def _z_box(default: Optional[float], help: str) -> tuple:
    positive = _finite_float(lambda v: v > 0, "finite and > 0")
    return _flag("--z-box", type=positive, default=default, help=help)


def _pair(name: str, default: tuple[float, float]) -> tuple:
    return _flag(name, type=FINITE, nargs=2, default=default, metavar=("LO", "HI"))


class Command(NamedTuple):
    help: str
    flags: tuple  # _flag tuples or SECTION_FN, in --help order; their values are echoed
    run: Callable[[argparse.Namespace], VerificationReport]


COMMANDS: dict[str, Command] = {
    "verify-group": Command(
        "group law, algebra and centre checks", (A, SEED, _samples(400)),
        lambda args: group_suite(GroupParam(args.a), args.samples, args.seed),
    ),
    "classify": Command(
        "reduce a slab subalgebra to canonical form",
        (A, *(_flag(f"--{b}", type=FINITE, required=True) for b in ("b1", "b2", "b3"))),
        lambda args: classify_suite(GroupParam(args.a), args.b1, args.b2, args.b3),
    ),
    "loop-check": Command(
        "loop axioms, cross-check and generation verdict",
        (CASE, A, SECTION_FN, SEED, _samples(500), _z_box(None, "half width of z sampling")),
        lambda args: loop_suite(_section_spec(args), args.samples, args.seed, args.z_box),
    ),
    "generation": Command(
        "degeneracy identities only", (CASE, A, SECTION_FN, _samples(200, minimum=50)),
        lambda args: generation_suite(_section_spec(args), args.samples),
    ),
    "transitivity": Command(
        "unique-root certification of right division",
        (
            CASE, A, SECTION_FN, _pair("--box", (-5.0, 5.0)),
            _z_box(0.5, "half width of z-offset sampling"), SEED, _samples(100),
        ),
        _transitivity,
    ),
    "theorem2": Command(
        # --seed is echoed and selects nothing: the certificate draws nothing
        "normalizer + centre obstruction certificate", (A, SEED),
        lambda args: theorem2_suite(GroupParam(args.a)),
    ),
    "lemma1": Command(
        "saturating-exponential family membership test",
        (
            _flag("--fn", help="expression in z"),
            _flag(
                "--K", type=FINITE, default=None,
                help="test the exact member K*(1-exp(-rate*z))",
            ),
            _flag("--rate", type=_finite_float(lambda v: v != 0, "finite and nonzero"), default=1.0),
            _samples(50, minimum=2), _pair("--range", (-3.0, 3.0)),
        ),
        _lemma1,
    ),
    "fixed-point": Command(
        "fixed coset of a left translation",
        (A, _flag("--g", type=FINITE, nargs=4, required=True, metavar=("X1", "X2", "X3", "X4"))),
        _fixed_point,
    ),
}


# argparse's own pattern for negative numbers has no exponent, so it would
# read the value -1e6 as an unknown option
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _dest(names: tuple[str, ...]) -> str:
    """The attribute a flag's value is stored in: its long name, e.g. "z_box" for --z-box."""
    return next(name for name in names if name.startswith("--"))[2:].replace("-", "_")


def _arguments(command: Command) -> list[tuple[bool, tuple[str, ...], dict]]:
    """The add_argument calls of a command's subparser, in --help order.

    Each is (exclusive, option strings, keyword arguments); exactly one of
    the exclusive flags is required.
    """
    arguments = []
    for flag in command.flags:
        if flag == SECTION_FN:
            arguments += [(True, *_FN), (True, *_PRESET), (False, *_COEFF)]
        else:
            arguments.append((False, *flag))
    return arguments + [(False, *_OUT), (False, *_TIMING)]


def build_parser() -> argparse.ArgumentParser:
    """The solvloop parser, with a subparser for every command."""
    parser = argparse.ArgumentParser(
        prog="solvloop",
        description="Verification suite for a 4-dimensional solvable group and its coset loops",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sp = sub.add_parser(name, help=command.help)
        sp._negative_number_matcher = _NEGATIVE_NUMBER
        group = sp.add_mutually_exclusive_group(required=True) if SECTION_FN in command.flags else None
        for exclusive, names, kwargs in _arguments(command):
            (group if exclusive else sp).add_argument(*names, **kwargs)
    return parser


def _plain_args(argv: list[str]) -> Optional[argparse.Namespace]:
    """What build_parser().parse_args(argv) returns, or None when argv is not plain.

    A plain command line names a command, then gives each of its flags at
    most once, spelled in full, with the flag's values as the next tokens
    (a value starting with "-" must be a number) or as --flag=value.  Every
    required flag is there, so is exactly one of --fn and --preset where
    the command takes both, and every value converts and is among the
    flag's choices.  Help, abbreviations, "--" and every usage error are
    not plain: argparse reports them.
    """
    command = COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    args = argparse.Namespace(command=argv[0])
    options, exclusive, required = {}, set(), set()
    for is_exclusive, names, kwargs in _arguments(command):
        dest = _dest(names)
        store_true = kwargs.get("action") == "store_true"
        setattr(args, dest, kwargs.get("default", False if store_true else None))
        options.update(dict.fromkeys(names, (dest, 0 if store_true else kwargs.get("nargs", 1), kwargs)))
        if is_exclusive:
            exclusive.add(dest)
        if kwargs.get("required"):
            required.add(dest)
    seen: set[str] = set()
    i = 1
    while i < len(argv):
        name, equals, value = argv[i].partition("=")
        if name not in options or options[name][0] in seen:
            return None
        dest, nargs, kwargs = options[name]
        if equals:
            if nargs != 1 or not name.startswith("--"):
                return None
            values, i = [value], i + 1
        else:
            values, i = argv[i + 1 : i + 1 + nargs], i + 1 + nargs
            if len(values) < nargs or any(v[:1] == "-" and not _NEGATIVE_NUMBER.match(v) for v in values):
                return None
        convert, choices = kwargs.get("type") or str, kwargs.get("choices")
        try:
            values = [convert(v) for v in values]
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if choices is not None and any(v not in choices for v in values):
            return None
        seen.add(dest)
        setattr(args, dest, True if nargs == 0 else values if "nargs" in kwargs else values[0])
    if not required <= seen or (exclusive and len(exclusive & seen) != 1):
        return None
    return args


# ----------------------------------------------------------------------- main


def _config(args, command: Command) -> dict:
    """Each flag's value, in --help order; a section function as fn, or as preset and coeff."""
    config: dict = {}
    for flag in command.flags:
        if flag != SECTION_FN:
            keys = [_dest(flag[0])]
        else:
            keys = ["preset", "coeff"] if args.preset else ["fn"]
        config.update((key, getattr(args, key)) for key in keys)
    return config


def _float_parameters(config: dict) -> str:
    """The float-valued parameters as flags, e.g. "--a 2, --z-box 400"."""
    shown = []
    for key, value in config.items():
        values = value if isinstance(value, (list, tuple)) else [value]
        if all(isinstance(v, float) for v in values):
            shown.append(f"--{key.replace('_', '-')} " + " ".join(f"{v:g}" for v in values))
    return ", ".join(shown)


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(len(argv) - 1)):
        if argv[i] == "--fn" and not argv[i + 1].startswith("--"):  # argparse reads -x as a flag
            argv[i : i + 2] = [f"--fn={argv[i + 1]}"]
    args = _plain_args(argv)
    if args is None:  # argparse prints the help, usage and error text
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return 0 if exc.code in (0, None) else 2
    command = COMMANDS[args.command]
    config = _config(args, command)
    start = time.perf_counter()
    try:
        with np.errstate(all="ignore"):  # the report or error line names non-finite values
            report = command.run(args)
    except OverflowError as err:
        print(f"error: {err}: overflow with {_float_parameters(config)}", file=sys.stderr)
        return 2
    except expressions.EvaluationError as err:  # presets cannot raise it, only --fn
        print(f"error: --fn: {err}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    report.command = args.command
    report.config = config
    report.wall_time_s = time.perf_counter() - start if args.timing else None
    try:
        emit_report(report, args.out)
    except ValueError as err:
        print(f"error: report not written: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: --out: {err}", file=sys.stderr)
        return 2
    return 0 if report.status != "fail" else 1


if __name__ == "__main__":
    sys.exit(main())
