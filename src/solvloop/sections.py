"""Section lifts over the coset charts and their classification checks.

A section assigns to every coset a representative inside it; multiplication
of cosets through such a lift yields a loop when the lift is sharply
transitive.  Three families are covered, one per admissible subgroup H; the
lift of m is the group product embed(m) * h(f(m)) (section_lift), that is

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
directly.  The loop laws and right division, with its sharp-transitivity
check, are in loops.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from . import expressions
from .group import GroupElement, GroupParam, mul
from .numerics import fit_saturating_exponential, twisted_additivity_residual
from .report import VerificationReport
from .subgroups import InadmissibleSubgroupError, LoopPoint, SubgroupId, embed, subgroup_element

BASE_POINT_TOL = 1e-12

_EXPR_VARIABLES = {2: ("x", "z"), 3: ("x", "y", "z")}


class FunctionSpec:
    """A continuous section parameter function vanishing at the origin: an expression tree.

    arity 2 means f(x, z); arity 3 means f(x, y, z), and the tree is over
    those variables.  fn evaluates it (expressions.as_function) elementwise
    on floats or numpy arrays, and the root counts enclose it and its
    slope in one walk (expressions.enclose with wrt).  preset and
    from_expression parse the text of the tree.

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
    """The chosen coset representative embed(m) * h(f(m)); decompose(lift(m)) is (m, f(m))."""
    p, sub = spec.param, spec.subgroup
    return mul(p, embed(p, sub, m), subgroup_element(sub, section_value(spec, m)))


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
    |z| <= 5 follow K*(1-e^{-z}) (rate a in case C) to an rms of 1e-9
    relative to max(1, max|values|), with K fitted by least squares over
    |z| >= 1e-3.  Each grid is one
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
    the array of pair sums.  After the fit (its residuals relative to
    max(1, max|values|)), the pair identity on all sample pairs (each pair
    to 1e-12 relative to the largest of 1, its left side and the two terms
    of its right side) and, when the expected coefficient K is given, its
    recovery by the fit, to 1e-9 relative to max(1, |K|).
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
        err = abs(fit.coefficient - coefficient) / max(1.0, abs(coefficient))
        report.record("coefficient-recovery", err <= 1e-9, max_error=err, n_samples=fit.n_samples)
    report.data["coefficient"] = fit.coefficient
    return report
