"""Section lifts over the coset charts and their classification checks.

A section assigns to every coset a representative inside it; multiplication
of cosets through such a lift yields a loop when the lift is sharply
transitive.  Three families are covered, one per admissible subgroup:

    case A (over H1): parameter function f(x, z),    lift g(x, y + z e^z f, e^z f, z)
    case B (over H2): parameter function h(x, y, z), lift g(x + e^{az} h, y + z e^z h, e^z h, z)
    case C (over H3): parameter function f(x, y, z), lift g(x + e^{az} f, e^z f, y, z)

degeneracy_report decides whether the lifted image generates the whole group
(the loop is then proper) or collapses into a proper subgroup, which happens
exactly when the function satisfies two identities: a vanishing slice plus a
saturating-exponential profile in z.  It returns the verdict as the dict
that the report carries; record_generation records it as one check, for
generation_suite and for loops.loop_suite alike.  lemma1_suite tests a
one-variable profile for membership in the saturating-exponential family
directly.  right_translation_system reduces the implicit division
equations of cases B and C to one scalar equation on a line, and
sharp_transitivity_check certifies, on a sampled box, that right
translations are bijective by proving the number of roots of that equation
(numerics.root_rows: interval exclusion and interval Newton steps); a sample
whose count the proof cannot settle is unresolved and fails.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import expressions
from .group import GroupElement, GroupParam, exp, expm1
from .numerics import fit_saturating_exponential, root_rows, twisted_additivity_residual
from .report import VerificationReport
from .sampling import Stream
from .subgroups import InadmissibleSubgroupError, LoopPoint, SubgroupId

BASE_POINT_TOL = 1e-12

_EXPR_VARIABLES = {2: ("x", "z"), 3: ("x", "y", "z")}


class FunctionSpec:
    """A continuous section parameter function vanishing at the origin: an expression tree.

    arity 2 means f(x, z); arity 3 means f(x, y, z), and the tree is over
    those variables.  fn evaluates it (expressions.as_function) elementwise
    on floats or numpy arrays, and the root counts enclose it and its
    derivative (expressions.enclose and expressions.derivative).  preset
    and from_expression parse the text of the tree.

    A call that raises EvaluationError raises it again with the label in
    front of the error, which names the first input row at which the
    function raises (expressions.as_function).
    """

    def __init__(self, arity: int, tree: expressions.Node, label: str) -> None:
        if arity not in (2, 3):
            raise ValueError("arity must be 2 or 3")
        fn = expressions.as_function(tree, _EXPR_VARIABLES[arity])
        base = float(fn(*([0.0] * arity)))
        if not math.isfinite(base):
            raise ValueError("function is not finite at the origin")
        if abs(base) > BASE_POINT_TOL:
            raise ValueError(
                f"base-point constraint violated: f(0,...,0) = {base!r} (must vanish)"
            )
        self.arity, self.tree, self.fn, self.label = arity, tree, fn, label

    def __call__(self, *args):
        if len(args) != self.arity:
            raise TypeError(f"expected {self.arity} arguments, got {len(args)}")
        try:
            return self.fn(*args)
        except expressions.EvaluationError as err:
            raise expressions.EvaluationError(f"{self.label}: {err}") from None

    @classmethod
    def from_expression(cls, text: str, arity: int) -> "FunctionSpec":
        return cls._parsed(text, arity, text, {})

    @classmethod
    def preset(cls, name: str, arity: int, coefficient: Optional[float] = None) -> "FunctionSpec":
        try:
            text, default = PRESETS[name]
        except KeyError:
            raise ValueError(
                f"unknown preset {name!r} (available: {', '.join(sorted(PRESETS))})"
            ) from None
        coeff = default if coefficient is None else float(coefficient)
        return cls._parsed(text, arity, f"{name}[{coeff!r}]", {"c": coeff})

    @classmethod
    def _parsed(cls, text: str, arity: int, label: str, constants: dict) -> "FunctionSpec":
        """text over the arity's variables, with the named constants' values substituted."""
        names = _EXPR_VARIABLES.get(arity)
        if names is None:
            raise ValueError("arity must be 2 or 3")
        tree = expressions.substitute(
            expressions.parse(text, (*names, *constants)),
            {name: expressions.Const(value) for name, value in constants.items()},
        )
        return cls(arity, tree, label)


# name -> (expression in x, z and the coefficient c, default coefficient).
# Every preset uses only x and z, so it works at either arity.
PRESETS: dict[str, tuple[str, float]] = {
    "zero": ("0", 0.0),
    "linear-x": ("c*x", 1.0),
    "bilinear": ("c*x*z", 1.0),
    "lemma1": ("c*-expm1(-z)", 1.0),
    "sin-small": ("c*sin(x)", 0.1),
}

_CASE_SUBGROUP = {"A": SubgroupId.H1, "B": SubgroupId.H2, "C": SubgroupId.H3}
CASE_ARITY = {"A": 2, "B": 3, "C": 3}


class SectionSpec:
    def __init__(self, case: str, param: GroupParam, fn: FunctionSpec) -> None:
        if case not in _CASE_SUBGROUP:
            raise ValueError("case must be 'A', 'B' or 'C'")
        if not _CASE_SUBGROUP[case].defined(param):
            raise InadmissibleSubgroupError(f"case {case} requires a != 1")
        if fn.arity != CASE_ARITY[case]:
            raise ValueError(
                f"case {case} needs a {CASE_ARITY[case]}-argument function, "
                f"got arity {fn.arity}"
            )
        self.case, self.param, self.fn = case, param, fn

    @property
    def subgroup(self) -> SubgroupId:
        return _CASE_SUBGROUP[self.case]


def section_value(spec: SectionSpec, m: LoopPoint):
    """The section function at m: a float, or for column points one value per row."""
    args = (m.x, m.z) if spec.case == "A" else m.coords
    v = np.broadcast_to(np.asarray(spec.fn(*args), dtype=float), np.broadcast(*args).shape)
    return v if v.ndim else float(v)


def section_lift(spec: SectionSpec, m: LoopPoint) -> GroupElement:
    """The chosen coset representative; always satisfies decompose(lift(m)).rep = m."""
    a = spec.param.a
    v = section_value(spec, m)
    e = exp(m.z)
    if spec.case == "A":
        return GroupElement(m.x, m.y + m.z * e * v, e * v, m.z)
    if spec.case == "B":
        return GroupElement(m.x + exp(a * m.z) * v, m.y + m.z * e * v, e * v, m.z)
    return GroupElement(m.x + exp(a * m.z) * v, e * v, m.y, m.z)


def _profile_zs(lo: float, hi: float, n: int) -> np.ndarray:
    """n profile abscissae on [lo, hi] without (-1e-3, 1e-3).

    Half lie on [lo, -1e-3] and half on [1e-3, hi] when [lo, hi] reaches
    both; otherwise all lie on the side it reaches.
    """
    left, right = lo <= -1e-3, hi >= 1e-3
    if left and right:
        half = n // 2
        return np.concatenate([np.linspace(lo, -1e-3, half), np.linspace(1e-3, hi, n - half)])
    if not (left or right):
        raise ValueError(f"z range [{lo:g}, {hi:g}] lies inside (-1e-3, 1e-3)")
    return np.linspace(lo, min(hi, -1e-3), n) if left else np.linspace(max(lo, 1e-3), hi, n)


def degeneracy_report(spec: SectionSpec, n_samples: int = 200) -> dict:
    """Test both degeneracy identities of the section's family on a grid.

    Slice identity: case A f(x,0)=0, case B h(x,y,0)=0, case C f(x,y,0)=-x,
    to 1e-8, with |x|, |y| <= 5.  Profile identity: the z-axis values for
    |z| <= 5 follow K*(1-e^{-z}) (rate a in case C) to an rms of 1e-9,
    with K fitted by least squares over |z| >= 1e-3.  Each grid is one
    section call.

    The verdict "generates" is False when both identities hold: the section
    image then stays, numerically on the tested box, inside a proper
    subgroup.  True means an identity fails, so the image generates the
    whole group and the loop is proper; None means no verdict, a residual
    is not finite.
    """
    if n_samples < 50:
        raise ValueError("need at least 50 samples per axis test")
    hw = 5.0
    a = spec.param.a
    if spec.case == "A":
        xs, ys = np.linspace(-hw, hw, n_samples), 0.0
    else:
        grid = np.linspace(-hw, hw, math.ceil(math.sqrt(n_samples)))
        xs, ys = (g.ravel() for g in np.meshgrid(grid, grid, indexing="ij"))
    vals = section_value(spec, LoopPoint(xs, ys, 0.0))
    slice_resid = float(np.abs(vals + xs if spec.case == "C" else vals).max())
    zs = _profile_zs(-hw, hw, n_samples)
    rate = a if spec.case == "C" else 1.0
    profile = section_value(spec, LoopPoint(0.0, 0.0, zs))
    fit = fit_saturating_exponential(zs, profile, rate=rate)
    notes = f"on tested box |x|,|y|,|z| <= {hw:g}"
    if math.isfinite(slice_resid) and math.isfinite(fit.rms_residual):
        generates = not (slice_resid <= 1e-8 and fit.rms_residual <= 1e-9)
    else:
        generates = None
        notes += "; no verdict: a degeneracy residual is not finite"
    return {
        "generates": generates,
        "fitted_constant": fit.coefficient,
        "identity_residual_max": slice_resid,
        "fit_rms_residual": fit.rms_residual,
        "fit_max_residual": fit.max_residual,
        "n_samples": int(n_samples + fit.n_samples),
        "rate": rate,
        "notes": notes,
    }


def record_generation(
    report: VerificationReport, spec: SectionSpec, name: str, key: str, n_samples: int = 200
) -> None:
    """Record the degeneracy verdict in report: as the check name, and as data[key].

    max_error is the larger residual of the two identities (not finite if
    either is).  A degenerate section only warns; a verdict that could not be
    reached fails.
    """
    verdict = degeneracy_report(spec, n_samples=n_samples)
    generates = verdict["generates"]
    worst = float(np.maximum(verdict["identity_residual_max"], verdict["fit_max_residual"]))
    outcome = {
        True: "; at least one degeneracy identity fails",
        False: f"; both degeneracy identities hold: fitted constant {verdict['fitted_constant']:.6g}",
        None: "",
    }
    report.record(
        name,
        generates is True,
        max_error=worst,
        n_samples=verdict["n_samples"],
        notes=verdict["notes"] + outcome[generates],
        warn_only=generates is not None,
    )
    report.data[key] = verdict


def generation_suite(spec: SectionSpec, n_samples: int = 200) -> VerificationReport:
    """The degeneracy verdict as one check: does the section generate?"""
    report = VerificationReport(seed=None)
    record_generation(report, spec, "generates", "verdict", n_samples)
    return report


def lemma1_member(K: float, rate: float) -> tuple[expressions.Node, str]:
    """The family member K*(1 - e^{-rate*z}): its tree over z and its label.

    The tree computes K*-expm1(-rate*z).
    """
    member = expressions.parse("K*-expm1(-r*z)", ("z", "K", "r"))
    tree = expressions.substitute(member, {"K": expressions.Const(K), "r": expressions.Const(rate)})
    return tree, f"{K:g}*(1-exp(-{rate:g}*z))"


def lemma1_suite(
    tree: expressions.Node,
    rate: float = 1.0,
    z_range: tuple[float, float] = (-3.0, 3.0),
    n_samples: int = 50,
    coefficient: Optional[float] = None,
) -> VerificationReport:
    """Membership of a one-variable profile, a tree over z, in the family K*(1 - e^{-rate*z}).

    The profile is sampled on z_range without (-1e-3, 1e-3) (a range inside
    that interval is a ValueError) and evaluated once on the sample array,
    for the least-squares profile fit and the pair identity, then once on
    the array of pair sums.  After the fit, the pair identity on all
    sample pairs (each pair to 1e-12 relative to the largest of 1, its left
    side and the two terms of its right side) and, when the expected
    coefficient is given, its recovery by the fit.
    """
    fn = expressions.as_function(tree, ("z",))
    zs = _profile_zs(*z_range, n_samples)
    values = fn(zs)
    report = VerificationReport(seed=None)
    fit = fit_saturating_exponential(zs, values, rate=rate)
    report.record(
        "profile-fit",
        fit.rms_residual <= 1e-9,
        max_error=fit.rms_residual,
        n_samples=fit.n_samples,
        notes=f"fitted coefficient {fit.coefficient:.12g}",
    )
    pair_resid = twisted_additivity_residual(fn, zs, values, rate=rate)
    report.record(
        "pair-identity",
        pair_resid <= 1e-12,
        max_error=pair_resid,
        n_samples=len(zs) ** 2,
        notes="f(z1+z2) = f(z2) + e^{-rate*z2} f(z1) on all sample pairs, "
        "error relative to max(1, |lhs|, |f(z2)|, |e^{-rate*z2} f(z1)|)",
    )
    if coefficient is not None:
        err = abs(fit.coefficient - coefficient)
        report.record("coefficient-recovery", err <= 1e-9, max_error=err, n_samples=fit.n_samples)
    report.data["coefficient"] = fit.coefficient
    return report


class RightTranslationLine(NamedTuple):
    """The equation q * m2 = b of cases B and C reduced to one scalar unknown.

    Every solution has q = (base + u*direction, qz) with u solving

        u = scale * f(base + u*direction, qz),

    and max|direction_k| = 1, so a window u in [lo, hi] stays inside the
    square base + [lo, hi]^2 of the (x, y) plane.  m2 with z = 0 gives
    scale = 0: then u = 0 and q = (base, qz) is the only solution.  Like
    LoopPoint, a line holds floats or float64 columns, one row per
    equation (case C's direction stays the floats (1.0, 0.0)).
    """

    fn: FunctionSpec
    qz: float
    base: tuple[float, float]
    direction: tuple[float, float]
    scale: float

    def point(self, u) -> LoopPoint:
        (bx, by), (dx, dy) = self.base, self.direction
        return LoopPoint(bx + u * dx, by + u * dy, self.qz)

    def window(self, lo: float, hi: float):
        """The u-interval whose points lie in the square base + [lo, hi]^2.

        A coordinate the direction does not move (case C's y) is left
        unconstrained, so case C's window is [lo, hi] on x - base_x.  The
        ends are taken as Python's min and max take them, NaN included.
        A float line raises _missed(lo, hi) when the square misses the
        line; a column line returns the (lower, upper) columns of all rows,
        and a row whose square misses it has not lower < upper.
        """
        lower, upper = -math.inf, math.inf
        with np.errstate(divide="ignore", invalid="ignore"):
            for d in self.direction:
                a, b = np.divide(lo, d), np.divide(hi, d)
                moved = np.asarray(d) != 0.0
                # max(lower, min(a, b)) and min(upper, max(a, b))
                least, most = np.where(b < a, b, a), np.where(b > a, b, a)
                lower = np.where(moved & (least > lower), least, lower)
                upper = np.where(moved & (most < upper), most, upper)
        lower, upper, _ = np.broadcast_arrays(lower, upper, self.qz)
        if lower.ndim:
            return lower, upper
        if not lower < upper:
            raise _missed(lo, hi)
        return float(lower), float(upper)


def _missed(lo: float, hi: float) -> ValueError:
    return ValueError(f"the box [{lo:g}, {hi:g}]^2 misses the solution line")


# a line's residual as an expression over u and the line's columns
_LINE_RESIDUAL = expressions.parse("u - scale*f", ("u", "scale", "f"))
_LINE_POINT = {
    name: expressions.parse(text, ("u", "bx", "by", "dx", "dy", "qz"))
    for name, text in (("x", "bx + u*dx"), ("y", "by + u*dy"), ("z", "qz"))
}


def _residual_tree(fn: FunctionSpec) -> expressions.Node:
    """u - scale*f(bx + u*dx, by + u*dy, qz) with f the section's tree."""
    return expressions.substitute(_LINE_RESIDUAL, {"f": expressions.substitute(fn.tree, _LINE_POINT)})


def _columns(line: RightTranslationLine) -> dict:
    """The line's fields by their names in _residual_tree, broadcast to the rows' shape."""
    fields = np.broadcast_arrays(*line.base, *line.direction, line.qz, line.scale)
    return dict(zip(("bx", "by", "dx", "dy", "qz", "scale"), fields))


def line_residual_rows(line: RightTranslationLine, rows: np.ndarray) -> tuple[expressions.Node, dict]:
    """(tree, columns) for numerics.root_rows whose row i is row rows[i] of the column line.

    The tree is the residual u - scale*f over u and the line's columns,
    written as the float steps of its evaluation (the point bx + u*dx,
    by + u*dy, qz, the section's tree there, then u - scale*f), so that
    expressions.enclose bounds its computed values, not only exact ones.
    """
    return _residual_tree(line.fn), {name: col[rows] for name, col in _columns(line).items()}


def right_translation_system(
    spec: SectionSpec, m2: LoopPoint, b: LoopPoint
) -> RightTranslationLine:
    """The line form of q * m2 = b for cases B and C.

    Case C fixes q_y and leaves x = center + coef * f(x, q_y, q_z): direction
    (1, 0) and scale coef.  Case B puts (x, y) on the line
    (cx, cy) + h * (tx, ty) with h = h(x, y, q_z): direction t / |t|_inf and
    scale |t|_inf, the larger of |tx| and |ty| as Python's max takes it.
    Case A is closed-form and has no implicit system.  On column points
    every row is the float call on that row, bit for bit; exponentials are
    group.exp and group.expm1 (numpy's), so overflow raises OverflowError.
    """
    a = spec.param.a
    x1, y1, z1 = m2.coords
    x2, y2, z2 = b.coords
    z = z2 - z1
    if spec.case == "C":
        y = y2 - exp(z) * y1
        outer = exp(a * z2 - z1)
        center = x2 - exp(a * z) * x1 + outer * y1 * z
        coef = outer * -expm1((1.0 - a) * z1)
        return RightTranslationLine(spec.fn, z, (center, y), (1.0, 0.0), coef)
    if spec.case == "B":
        ea = exp(a * z)
        e = exp(z)
        base = (x2 - ea * x1, y2 - e * y1)
        t = (ea * expm1((a - 1.0) * z1), e * z1)
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(abs(t[1]) > abs(t[0]), abs(t[1]), abs(t[0]))
            direction = [np.where(scale != 0.0, np.divide(tk, scale), d) for tk, d in zip(t, (1, 0))]
        if not scale.ndim:
            scale, direction = float(scale), [float(d) for d in direction]
        return RightTranslationLine(spec.fn, z, base, tuple(direction), scale)
    raise ValueError("case A right translations are closed-form")


def sharp_transitivity_check(
    spec: SectionSpec,
    box: tuple[float, float] = (-5.0, 5.0),
    n_samples: int = 100,
    seed: int = 0,
    z_half_width: float = 0.5,
    samples: Optional[Sequence[tuple[LoopPoint, LoopPoint]]] = None,
) -> VerificationReport:
    """Certify unique solvability of q * m2 = b over sampled (m2, b) pairs.

    The root search window is the box [lo, hi] translated to the affine base
    of the implicit equation (the exact solution when the section function
    vanishes): an interval of x in case C, the square base + [lo, hi]^2 of
    (x, y) in case B, cut down to the solution line.  The x and y of m2 and
    b are sampled in [-5, 5] and their z in [-z_half_width, z_half_width],
    so the function coefficient stays bounded on the window.  Both cases
    prove the number of roots of the scalar line equation with
    numerics.root_rows: the samples are the rows of one column line and of
    its windows, all in one call, and np.bincount of its proofs' rows gives
    their root counts.  Every sample contributes its root count (-1 for a
    missed window, or for an unresolved count: a pole, a NaN value or a
    tangential root on its window), and a failure is reported, never dropped.
    """
    report = VerificationReport(seed=seed)
    if spec.case == "A":
        report.record(
            "unique-root",
            True,
            max_error=0.0,
            n_samples=0,
            notes="closed-form division; right translations are globally bijective",
        )
        return report
    if samples is None:
        lo = [-5.0] * 4 + [-z_half_width] * 2
        draws = Stream(seed).uniform(lo, [-bound for bound in lo], (n_samples, 6))
    else:
        draws = np.array([(*m2[:2], *b[:2], m2.z, b.z) for m2, b in samples], dtype=float)
    x1, y1, x2, y2, z1, z2 = draws.reshape(-1, 6).T
    line = right_translation_system(spec, LoopPoint(x1, y1, z1), LoopPoint(x2, y2, z2))
    lower, upper = line.window(*box)
    hit = np.flatnonzero(lower < upper)
    rows, _, _, errors = root_rows(*line_residual_rows(line, hit), lower[hit], upper[hit])
    errors = {int(hit[r]): e for r, e in errors.items()}
    counts = np.full(len(z1), -1)  # -1 for a missed window or a failed row
    counts[hit] = np.bincount(rows, minlength=len(hit))
    counts[list(errors)] = -1
    off = np.abs(counts - 1.0)
    bad = np.flatnonzero(off).tolist()
    failures = [f"sample {i}: {errors.get(i, _missed(*box))}" for i in bad if counts[i] < 0]
    notes = "all sampled right translations have exactly one preimage on the window"
    if bad:
        shown = ", ".join(f"sample {i}: {counts[i]} roots" for i in bad[:5] if counts[i] >= 0)
        notes = "; ".join(filter(None, [shown] + failures[:5]))
    report.bound("unique-root", off, 0.0, notes=notes)
    report.data["root_counts"] = counts.tolist()
    if failures:
        report.data["failures"] = failures
    return report
