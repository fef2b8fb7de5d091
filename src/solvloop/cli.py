"""Command-line front end: one table row per subcommand, nothing else.

Every check suite lives in the library and returns a VerificationReport.
A row of COMMANDS holds a subcommand's help text, its flags, the call of its
suite and the keys of the configuration echoed into the report.  main parses
the arguments, runs the row's suite, fills in the command, configuration and
(with --timing) wall time, and writes the JSON report (stdout by default).
It exits 0 when all checks pass (warnings allowed), 1 when a check fails or
the report cannot be rendered, 2 on usage errors.  Identical arguments
produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import expressions
from .group import GroupElement, GroupParam
from .loops import LoopCase, loop_suite
from .multgroup import group_suite, theorem2_suite
from .report import VerificationReport, emit_report
from .sections import (
    PRESETS,
    FunctionSpec,
    SectionSpec,
    generation_suite,
    lemma1_suite,
    sharp_transitivity_check,
)
from .subgroups import classify_suite, fixed_point_suite

__all__ = ["main", "build_parser", "COMMANDS"]


# ------------------------------------------------------------ argument glue


def _section_spec(args) -> SectionSpec:
    p = GroupParam(args.a)
    arity = 2 if args.case == "A" else 3
    if args.preset:
        fn = FunctionSpec.preset(args.preset, arity, args.coeff)
    elif args.fn:
        fn = FunctionSpec.from_expression(args.fn, arity)
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
    return sharp_transitivity_check(
        spec, box=_ordered(args.box, "--box"), n_samples=args.samples, seed=args.seed,
        resolution=args.resolution, z_half_width=args.z_box,
    )


def _lemma1(args) -> VerificationReport:
    if (args.fn is None) == (args.K is None):
        raise ValueError("provide exactly one of --fn or --K")
    rate = args.rate
    if args.K is not None:
        coeff = args.K
        fn = lambda z: coeff * -np.expm1(-rate * z)
        label = f"{coeff:g}*(1-exp(-{rate:g}*z))"
    else:
        tree = expressions.parse(args.fn, ("z",))
        fn = lambda z: float(expressions.evaluate(tree, {"z": z}))
        label = args.fn
    report = lemma1_suite(fn, rate, _ordered(args.range, "--range"), args.samples, args.K)
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
            raise argparse.ArgumentTypeError(f"must be finite and {requirement}, got {text}")
        return value

    checked.__name__ = "float"  # keeps argparse's "invalid float value" message
    return checked


def _flag(*names: str, **kwargs) -> tuple:
    return names, kwargs


SECTION_FN = "section-fn"  # stands for --fn | --preset (one required) and --coeff
A = _flag("--a", type=float, required=True)
CASE = _flag("--case", choices=["A", "B", "C"], required=True)
SEED = _flag("--seed", type=int, default=0)


def _samples(default: int, minimum: int = 1) -> tuple:
    return _flag("--samples", type=_at_least(minimum), default=default)


def _z_box(default: Optional[float], help: str) -> tuple:
    return _flag("--z-box", type=_finite_float(lambda v: v > 0, "> 0"), default=default, help=help)


def _pair(name: str, default: tuple[float, float]) -> tuple:
    return _flag(name, type=float, nargs=2, default=default, metavar=("LO", "HI"))


@dataclass(frozen=True)
class Command:
    help: str
    flags: tuple  # _flag tuples or SECTION_FN, in --help order
    run: Callable[[argparse.Namespace], VerificationReport]
    config: tuple[str, ...]  # dests echoed into the report; "fn" may stand for preset/coeff


COMMANDS: dict[str, Command] = {
    "verify-group": Command(
        "group law, algebra and centre invariants", (A, SEED, _samples(400)),
        lambda args: group_suite(GroupParam(args.a), args.samples, args.seed),
        ("a", "samples", "seed"),
    ),
    "classify": Command(
        "reduce a slab subalgebra to canonical form",
        (A, *(_flag(f"--{b}", type=float, required=True) for b in ("b1", "b2", "b3"))),
        lambda args: classify_suite(GroupParam(args.a), args.b1, args.b2, args.b3),
        ("a", "b1", "b2", "b3"),
    ),
    "loop-check": Command(
        "loop axioms, cross-check and generation verdict",
        (CASE, A, SECTION_FN, SEED, _samples(500), _z_box(None, "half width of z sampling")),
        lambda args: loop_suite(LoopCase(_section_spec(args)), args.samples, args.seed, args.z_box),
        ("case", "a", "fn", "samples", "seed", "z_box"),
    ),
    "generation": Command(
        "degeneracy identities only", (CASE, A, SECTION_FN, _samples(200, minimum=50)),
        lambda args: generation_suite(_section_spec(args), args.samples),
        ("case", "a", "fn", "samples"),
    ),
    "transitivity": Command(
        "unique-root certification of right division",
        (
            CASE, A, SECTION_FN, _pair("--box", (-5.0, 5.0)),
            _flag("--resolution", type=_at_least(2), default=10000),
            _z_box(0.5, "half width of z-offset sampling"), SEED, _samples(100),
        ),
        _transitivity,
        ("case", "a", "fn", "box", "samples", "seed", "resolution", "z_box"),
    ),
    "theorem2": Command(
        "normalizer + centre obstruction certificate", (A, SEED, _samples(1000)),
        lambda args: theorem2_suite(GroupParam(args.a), args.samples, args.seed),
        ("a", "samples", "seed"),
    ),
    "lemma1": Command(
        "saturating-exponential family membership test",
        (
            _flag("--fn", help="expression in z"),
            _flag("--K", type=float, default=None, help="test the exact member K*(1-exp(-rate*z))"),
            _flag("--rate", type=_finite_float(lambda v: v != 0, "nonzero"), default=1.0),
            _samples(50, minimum=2), _pair("--range", (-3.0, 3.0)),
        ),
        _lemma1,
        ("fn", "K", "rate", "samples", "range"),
    ),
    "fixed-point": Command(
        "fixed coset of a left translation",
        (A, _flag("--g", type=float, nargs=4, required=True, metavar=("X1", "X2", "X3", "X4"))),
        _fixed_point,
        ("a", "g"),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solvloop",
        description="Verification suite for a 4-dimensional solvable group and its coset loops",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sp = sub.add_parser(name, help=command.help)
        for flag in command.flags:
            if flag == SECTION_FN:
                group = sp.add_mutually_exclusive_group(required=True)
                group.add_argument("--fn", help="expression for the section function")
                group.add_argument("--preset", choices=list(PRESETS))
                sp.add_argument("--coeff", type=float, default=None, help="preset coefficient override")
            else:
                names, kwargs = flag
                sp.add_argument(*names, **kwargs)
        sp.add_argument("-o", "--out", default="-", help="report path ('-' = stdout)")
        sp.add_argument(
            "--timing", action="store_true", help="record wall time (breaks byte-determinism)"
        )
    return parser


# ----------------------------------------------------------------------- main


def _config(args, keys: tuple[str, ...]) -> dict:
    config: dict = {}
    for key in keys:
        if key == "fn" and getattr(args, "preset", None):
            config.update(preset=args.preset, coeff=args.coeff)
        else:
            config[key] = getattr(args, key)
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    command = COMMANDS[args.command]
    config = _config(args, command.config)
    start = time.perf_counter()
    try:
        report = command.run(args)
    except OverflowError as err:
        print(f"error: {err}: overflow with {_float_parameters(config)}", file=sys.stderr)
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
    return 0 if report.status != "fail" else 1


if __name__ == "__main__":
    sys.exit(main())
