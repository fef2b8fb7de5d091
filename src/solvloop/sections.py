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
saturating-exponential profile in z; generation_suite reports that verdict,
and lemma1_suite tests a one-variable profile for membership in the
saturating-exponential family directly.  right_translation_system reduces the
implicit division equations of cases B and C to one scalar equation on a
line, and sharp_transitivity_check certifies, on a sampled box, that right
translations are bijective by counting the roots of that equation.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import expressions
from .group import GroupElement, GroupParam
from .numerics import fit_saturating_exponential, root1d, twisted_additivity_residual
from .report import VerificationReport
from .subgroups import InadmissibleSubgroupError, LoopPoint, SubgroupId

__all__ = [
    "FunctionSpec",
    "SectionSpec",
    "GenerationVerdict",
    "PRESETS",
    "BASE_POINT_TOL",
    "section_value",
    "section_lift",
    "degeneracy_report",
    "generation_suite",
    "lemma1_suite",
    "RightTranslationLine",
    "right_translation_system",
    "sharp_transitivity_check",
]

BASE_POINT_TOL = 1e-12

_EXPR_VARIABLES = {2: ("x", "z"), 3: ("x", "y", "z")}


@dataclass(frozen=True)
class FunctionSpec:
    """A continuous section parameter function vanishing at the origin.

    arity 2 means f(x, z); arity 3 means f(x, y, z).  Implementations must
    accept numpy arrays elementwise (all shipped presets and parsed
    expressions do), which keeps the root scans vectorized.
    """

    arity: int
    fn: Callable[..., float]
    label: str
    tree: Optional[expressions.Node] = None

    def __post_init__(self) -> None:
        if self.arity not in (2, 3):
            raise ValueError("arity must be 2 or 3")
        base = float(self.fn(*([0.0] * self.arity)))
        if not math.isfinite(base):
            raise ValueError("function is not finite at the origin")
        if abs(base) > BASE_POINT_TOL:
            raise ValueError(
                f"base-point constraint violated: f(0,...,0) = {base!r} (must vanish)"
            )

    def __call__(self, *args):
        if len(args) != self.arity:
            raise TypeError(f"expected {self.arity} arguments, got {len(args)}")
        return self.fn(*args)

    @classmethod
    def from_callable(cls, fn: Callable[..., float], arity: int, label: str = "custom") -> "FunctionSpec":
        return cls(arity=arity, fn=fn, label=label)

    @classmethod
    def from_expression(cls, text: str, arity: int) -> "FunctionSpec":
        names = _EXPR_VARIABLES.get(arity)
        if names is None:
            raise ValueError("arity must be 2 or 3")
        tree = expressions.parse(text, names)

        def fn(*args):
            return expressions.evaluate(tree, dict(zip(names, args)))

        return cls(arity=arity, fn=fn, label=text, tree=tree)

    @classmethod
    def preset(cls, name: str, arity: int, coefficient: Optional[float] = None) -> "FunctionSpec":
        try:
            default, builder = PRESETS[name]
        except KeyError:
            raise ValueError(
                f"unknown preset {name!r} (available: {', '.join(sorted(PRESETS))})"
            ) from None
        coeff = default if coefficient is None else float(coefficient)
        return cls(arity=arity, fn=builder(coeff), label=f"{name}[{coeff!r}]")


def _preset_zero(coeff: float):
    return lambda *args: 0.0


def _preset_linear_x(coeff: float):
    return lambda *args: coeff * args[0]


def _preset_bilinear(coeff: float):
    return lambda *args: coeff * args[0] * args[-1]


def _preset_saturating(coeff: float):
    return lambda *args: coeff * -np.expm1(-args[-1])


def _preset_sin_small(coeff: float):
    return lambda *args: coeff * np.sin(args[0])


# name -> (default coefficient, builder).  The last positional argument is
# always z, the first always x, so every preset works at either arity.
PRESETS: dict[str, tuple[float, Callable[[float], Callable[..., float]]]] = {
    "zero": (0.0, _preset_zero),
    "linear-x": (1.0, _preset_linear_x),
    "bilinear": (1.0, _preset_bilinear),
    "lemma1": (1.0, _preset_saturating),
    "sin-small": (0.1, _preset_sin_small),
}

_CASE_SUBGROUP = {"A": SubgroupId.H1, "B": SubgroupId.H2, "C": SubgroupId.H3}
_CASE_ARITY = {"A": 2, "B": 3, "C": 3}


@dataclass(frozen=True)
class SectionSpec:
    case: str
    param: GroupParam
    fn: FunctionSpec

    def __post_init__(self) -> None:
        if self.case not in _CASE_SUBGROUP:
            raise ValueError("case must be 'A', 'B' or 'C'")
        if self.case in ("B", "C") and self.param.a == 1:
            raise InadmissibleSubgroupError(f"case {self.case} requires a != 1")
        if self.fn.arity != _CASE_ARITY[self.case]:
            raise ValueError(
                f"case {self.case} needs a {_CASE_ARITY[self.case]}-argument function, "
                f"got arity {self.fn.arity}"
            )

    @property
    def subgroup(self) -> SubgroupId:
        return _CASE_SUBGROUP[self.case]


def section_value(spec: SectionSpec, m: LoopPoint) -> float:
    if spec.case == "A":
        return float(spec.fn(m.x, m.z))
    return float(spec.fn(m.x, m.y, m.z))


def section_lift(spec: SectionSpec, m: LoopPoint) -> GroupElement:
    """The chosen coset representative; always satisfies decompose(lift(m)).rep = m."""
    a = spec.param.a
    v = section_value(spec, m)
    e = math.exp(m.z)
    if spec.case == "A":
        return GroupElement(m.x, m.y + m.z * e * v, e * v, m.z)
    if spec.case == "B":
        return GroupElement(m.x + math.exp(a * m.z) * v, m.y + m.z * e * v, e * v, m.z)
    return GroupElement(m.x + math.exp(a * m.z) * v, e * v, m.y, m.z)


@dataclass(frozen=True)
class GenerationVerdict:
    """Outcome of the two degeneracy identities on a sampled box.

    generates=False certifies (numerically, on the tested box) that the
    section image stays inside a proper subgroup: the slice identity holds
    and the z-profile matches coefficient*(1 - e^{-rate*z}).  Either failure
    means the image generates the whole group and the loop is proper.
    """

    generates: bool
    fitted_constant: Optional[float]
    identity_residual_max: float
    fit_rms_residual: float
    fit_max_residual: float
    n_samples: int
    rate: float
    notes: str

    def to_dict(self) -> dict:
        return asdict(self)


def _profile_zs(lo: float, hi: float, n: int) -> np.ndarray:
    """n profile abscissae on [lo, -1e-3] and [1e-3, hi], half on each side of 0."""
    half = n // 2
    return np.concatenate([np.linspace(lo, -1e-3, half), np.linspace(1e-3, hi, n - half)])


def degeneracy_report(
    spec: SectionSpec,
    n_samples: int = 200,
    half_width: float = 5.0,
    identity_tol: float = 1e-8,
    fit_rms_tol: float = 1e-9,
) -> GenerationVerdict:
    """Test both degeneracy identities of the section's family on a grid.

    Slice identity: case A f(x,0)=0, case B h(x,y,0)=0, case C f(x,y,0)=-x.
    Profile identity: the z-axis values follow K*(1-e^{-z}) (rate a in
    case C), with K fitted by least squares over |z| >= 1e-3.
    """
    if n_samples < 50:
        raise ValueError("need at least 50 samples per axis test")
    hw = float(half_width)
    a = spec.param.a
    if spec.case == "A":
        xs = np.linspace(-hw, hw, n_samples)
        slice_resid = float(np.abs(np.asarray([spec.fn(x, 0.0) for x in xs])).max())
    else:
        side = math.ceil(math.sqrt(n_samples))
        grid = np.linspace(-hw, hw, side)
        vals = []
        for x in grid:
            for y in grid:
                v = float(spec.fn(x, y, 0.0))
                vals.append(v + x if spec.case == "C" else v)
        slice_resid = float(np.abs(vals).max())
    zs = _profile_zs(-hw, hw, n_samples)
    rate = a if spec.case == "C" else 1.0
    if spec.case == "A":
        profile = [(z, float(spec.fn(0.0, z))) for z in zs]
    else:
        profile = [(z, float(spec.fn(0.0, 0.0, z))) for z in zs]
    fit = fit_saturating_exponential(profile, rate=rate)
    slice_ok = slice_resid <= identity_tol
    profile_ok = fit.rms_residual <= fit_rms_tol
    return GenerationVerdict(
        generates=not (slice_ok and profile_ok),
        fitted_constant=fit.coefficient,
        identity_residual_max=slice_resid,
        fit_rms_residual=fit.rms_residual,
        fit_max_residual=fit.max_residual,
        n_samples=int(n_samples + fit.n_samples),
        rate=rate,
        notes=f"on tested box |x|,|y|,|z| <= {hw:g}",
    )


def generation_suite(spec: SectionSpec, n_samples: int = 200) -> VerificationReport:
    """The degeneracy verdict as one warning-only check: does the section generate?"""
    verdict = degeneracy_report(spec, n_samples=n_samples)
    report = VerificationReport(seed=None)
    report.record(
        "generates",
        verdict.generates,
        max_error=verdict.identity_residual_max,
        n_samples=verdict.n_samples,
        notes=verdict.notes
        + (
            "; both degeneracy identities hold: fitted constant "
            f"{verdict.fitted_constant:.6g}"
            if not verdict.generates
            else "; at least one degeneracy identity fails"
        ),
        warn_only=True,
    )
    report.data["verdict"] = verdict.to_dict()
    return report


def lemma1_suite(
    fn: Callable[[float], float],
    rate: float = 1.0,
    z_range: tuple[float, float] = (-3.0, 3.0),
    n_samples: int = 50,
    coefficient: Optional[float] = None,
) -> VerificationReport:
    """Membership of a one-variable profile in the family K*(1 - e^{-rate*z}).

    Least-squares profile fit, the pair identity on all sample pairs and,
    when the expected coefficient is given, its recovery by the fit.
    """
    zs = _profile_zs(*z_range, n_samples)
    report = VerificationReport(seed=None)
    fit = fit_saturating_exponential([(float(z), float(fn(float(z)))) for z in zs], rate=rate)
    report.record(
        "profile-fit",
        fit.rms_residual <= 1e-9,
        max_error=fit.rms_residual,
        n_samples=fit.n_samples,
        notes=f"fitted coefficient {fit.coefficient:.12g}",
    )
    pair_resid = twisted_additivity_residual(fn, [float(z) for z in zs], rate=rate)
    report.record(
        "pair-identity",
        pair_resid <= 1e-12,
        max_error=pair_resid,
        n_samples=len(zs) ** 2,
        notes="f(z1+z2) = f(z2) + e^{-rate*z2} f(z1) on all sample pairs",
    )
    if coefficient is not None:
        err = abs(fit.coefficient - coefficient)
        report.record("coefficient-recovery", err <= 1e-9, max_error=err, n_samples=fit.n_samples)
    report.data["coefficient"] = fit.coefficient
    return report


@dataclass(frozen=True)
class RightTranslationLine:
    """The equation q * m2 = b of cases B and C reduced to one scalar unknown.

    Every solution has q = (base + u*direction, qz) with u solving

        u = scale * f(base + u*direction, qz),

    and max|direction_k| = 1, so a window u in [lo, hi] stays inside the
    square base + [lo, hi]^2 of the (x, y) plane.  m2 with z = 0 gives
    scale = 0: then u = 0 and q = (base, qz) is the only solution.
    """

    fn: FunctionSpec
    qz: float
    base: tuple[float, float]
    direction: tuple[float, float]
    scale: float

    def residual(self, u):
        """u - scale * f(point(u)); elementwise on numpy arrays."""
        (bx, by), (dx, dy) = self.base, self.direction
        return u - self.scale * self.fn(bx + u * dx, by + u * dy, self.qz)

    def point(self, u: float) -> LoopPoint:
        (bx, by), (dx, dy) = self.base, self.direction
        return LoopPoint(bx + u * dx, by + u * dy, self.qz)

    def window(self, lo: float, hi: float) -> tuple[float, float]:
        """The u-interval whose points lie in the square base + [lo, hi]^2.

        A coordinate the direction does not move (case C's y) is left
        unconstrained, so case C's window is [lo, hi] on x - base_x.
        """
        lower, upper = -math.inf, math.inf
        for d in self.direction:
            if d != 0.0:
                ends = (lo / d, hi / d)
                lower, upper = max(lower, min(ends)), min(upper, max(ends))
        if not lower < upper:
            raise ValueError(f"the box [{lo:g}, {hi:g}]^2 misses the solution line")
        return lower, upper


def right_translation_system(
    spec: SectionSpec, m2: LoopPoint, b: LoopPoint
) -> RightTranslationLine:
    """The line form of q * m2 = b for cases B and C.

    Case C fixes q_y and leaves x = center + coef * f(x, q_y, q_z): direction
    (1, 0) and scale coef.  Case B puts (x, y) on the line
    (cx, cy) + h * (tx, ty) with h = h(x, y, q_z): direction t / |t|_inf and
    scale |t|_inf.  Case A is closed-form and has no implicit system.
    """
    a = spec.param.a
    x1, y1, z1 = m2.coords
    x2, y2, z2 = b.coords
    z = z2 - z1
    if spec.case == "C":
        y = y2 - math.exp(z) * y1
        outer = math.exp(a * z2 - z1)
        center = x2 - math.exp(a * z) * x1 + outer * y1 * z
        coef = outer * -math.expm1((1.0 - a) * z1)
        return RightTranslationLine(spec.fn, z, (center, y), (1.0, 0.0), coef)
    if spec.case == "B":
        base = (x2 - math.exp(a * z) * x1, y2 - math.exp(z) * y1)
        tx = math.exp(a * z) * math.expm1((a - 1.0) * z1)
        ty = math.exp(z) * z1
        scale = max(abs(tx), abs(ty))
        direction = (tx / scale, ty / scale) if scale else (1.0, 0.0)
        return RightTranslationLine(spec.fn, z, base, direction, scale)
    raise ValueError("case A right translations are closed-form")


def sharp_transitivity_check(
    spec: SectionSpec,
    box: tuple[float, float] = (-5.0, 5.0),
    n_samples: int = 100,
    seed: int = 0,
    resolution: int = 10000,
    xy_half_width: float = 5.0,
    z_half_width: float = 0.5,
    samples: Optional[Sequence[tuple[LoopPoint, LoopPoint]]] = None,
) -> VerificationReport:
    """Certify unique solvability of q * m2 = b over sampled (m2, b) pairs.

    The root search window is the box [lo, hi] translated to the affine base
    of the implicit equation (the exact solution when the section function
    vanishes): an interval of x in case C, the square base + [lo, hi]^2 of
    (x, y) in case B, cut down to the solution line.  z offsets are sampled
    in [-z_half_width, z_half_width] so the function coefficient stays
    bounded on the window.  Both cases count roots of the scalar line
    equation by a sign-change scan at the given resolution.  Every sample
    contributes its root count; solver failures are reported, never dropped.
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
        rng = np.random.Generator(np.random.PCG64(seed))
        drawn = []
        for _ in range(n_samples):
            x1, y1, x2, y2 = rng.uniform(-xy_half_width, xy_half_width, 4)
            z1, z2 = rng.uniform(-z_half_width, z_half_width, 2)
            drawn.append((LoopPoint(x1, y1, z1), LoopPoint(x2, y2, z2)))
        samples = drawn
    counts: list[int] = []
    failures: list[str] = []
    for idx, (m2, b) in enumerate(samples):
        line = right_translation_system(spec, m2, b)
        try:
            roots = root1d(line.residual, line.window(*box), resolution=resolution)
        except ValueError as err:
            failures.append(f"sample {idx}: {err}")
            counts.append(-1)
            continue
        counts.append(len(roots))
    bad = [i for i, c in enumerate(counts) if c != 1]
    notes = "all sampled right translations have exactly one preimage on the window"
    if bad:
        shown = ", ".join(f"sample {i}: {counts[i]} roots" for i in bad[:5] if counts[i] >= 0)
        notes = "; ".join(filter(None, [shown] + failures[:5]))
    report.record(
        "unique-root",
        passed=not bad,
        max_error=float(max(abs(c - 1) for c in counts)) if counts else 0.0,
        n_samples=len(counts),
        notes=notes,
    )
    report.data["root_counts"] = counts
    if failures:
        report.data["failures"] = failures
    return report
