"""Root finding and least-squares utilities for the loop verifiers.

Three workhorses:

  * root1d: sign-change scan over a uniform grid plus bisection refinement.
    Returns every bracketed root, which makes it usable as a root *counter*
    for uniqueness certification, not just a solver.
  * newton1d: damped scalar Newton iteration with a central-difference
    derivative, the fast path when only some root is needed.
  * fit_saturating_exponential: least-squares fit of the one-parameter family
    K*(1 - e^{-rate*z}) together with a residual for the characteristic
    two-argument identity f(z1+z2) = f(z2) + e^{-rate*z2}*f(z1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "FitResult",
    "root1d",
    "bisect",
    "newton1d",
    "fit_saturating_exponential",
    "twisted_additivity_residual",
]


def bisect(
    fn: Callable[[float], float], lo: float, hi: float, tol: float = 1e-12
) -> float:
    """Standard bisection on a bracketing interval; returns the midpoint at width tol."""
    flo = fn(lo)
    fhi = fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise ValueError("interval does not bracket a root")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def root1d(
    fn: Callable[[float], float],
    interval: tuple[float, float],
    tol: float = 1e-12,
    resolution: int = 10000,
) -> list[float]:
    """All roots of a continuous function bracketed by a uniform scan.

    Grid nodes that are exact zeros count as roots; every sign change between
    adjacent nodes is refined by bisection.  Roots closer than 1e-9 are
    merged.  Roots separated by less than the grid spacing can be missed, as
    can tangential (even-order) zeros; resolution is the caller's knob.
    """
    lo, hi = interval
    if not (lo < hi):
        raise ValueError("interval needs lo < hi")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    xs = np.linspace(lo, hi, resolution + 1)
    try:
        ys = np.asarray(fn(xs), dtype=float)
        if ys.shape != xs.shape:
            raise TypeError
    except Exception:
        ys = np.array([float(fn(float(x))) for x in xs])
    if not np.all(np.isfinite(ys)):
        raise ValueError("function returned non-finite values on the scan grid")
    roots = xs[ys == 0.0].tolist()
    for i in np.flatnonzero(ys[:-1] * ys[1:] < 0).tolist():
        roots.append(bisect(lambda x: float(fn(x)), float(xs[i]), float(xs[i + 1]), tol))
    roots.sort()
    merged: list[float] = []
    for r in roots:
        if not merged or r - merged[-1] > 1e-9:
            merged.append(r)
    return merged


def newton1d(
    fn: Callable[[float], float], start: float, tol: float = 1e-12, max_iter: int = 50
) -> Optional[float]:
    """Damped Newton iteration from start; None on divergence or a flat derivative."""
    x = float(start)
    step = 1e-6
    for _ in range(max_iter):
        fx = float(fn(x))
        if not math.isfinite(fx):
            return None
        if abs(fx) <= tol:
            return x
        d = (float(fn(x + step)) - float(fn(x - step))) / (2.0 * step)
        if d == 0.0 or not math.isfinite(d):
            return None
        delta = fx / d
        lam = 1.0
        for _ in range(30):
            trial = x - lam * delta
            ftrial = float(fn(trial))
            if math.isfinite(ftrial) and abs(ftrial) < abs(fx):
                x = trial
                break
            lam *= 0.5
        else:
            return None
    return x if abs(float(fn(x))) <= 10.0 * tol else None


@dataclass(frozen=True)
class FitResult:
    coefficient: float
    rms_residual: float
    max_residual: float
    n_samples: int
    rate: float = 1.0


def fit_saturating_exponential(
    samples: Iterable[tuple[float, float]], rate: float = 1.0
) -> FitResult:
    """Least-squares coefficient K for value = K*(1 - e^{-rate*z}).

    Samples with |z| < 1e-3 are discarded (the basis function vanishes to
    first order there and would only add noise); at least 2 usable samples
    are required.
    """
    pts = [(float(z), float(v)) for z, v in samples if abs(z) >= 1e-3]
    if len(pts) < 2:
        raise ValueError("need at least 2 samples with |z| >= 1e-3")
    zs = np.array([z for z, _ in pts])
    vals = np.array([v for _, v in pts])
    basis = -np.expm1(-rate * zs)
    denom = float(basis @ basis)
    if denom == 0.0:
        raise ValueError("degenerate sample placement")
    coeff = float(basis @ vals) / denom
    resid = vals - coeff * basis
    return FitResult(
        coefficient=coeff,
        rms_residual=float(np.sqrt(np.mean(resid**2))),
        max_residual=float(np.abs(resid).max()),
        n_samples=len(pts),
        rate=rate,
    )


def twisted_additivity_residual(
    fn: Callable[[float], float], zs: Sequence[float], rate: float = 1.0
) -> float:
    """Worst violation of f(z1+z2) = f(z2) + e^{-rate*z2}*f(z1) over all ordered pairs.

    Zero exactly on the family K*(1 - e^{-rate*z}); any other continuous
    function with f(0)=0 violates it somewhere.
    """
    values = {float(z): float(fn(float(z))) for z in zs}
    worst = 0.0
    for z1 in zs:
        for z2 in zs:
            lhs = float(fn(float(z1) + float(z2)))
            rhs = values[float(z2)] + math.exp(-rate * float(z2)) * values[float(z1)]
            worst = max(worst, abs(lhs - rhs))
    return worst
