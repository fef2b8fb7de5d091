"""Check aggregation and deterministic JSON reports.

Every suite in the library returns a VerificationReport; the command line
fills in its command name, echoed configuration and optional wall time and
writes it.  A sampled check is recorded from its per-row errors by bound.
Reports must be byte-identical across reruns with the same configuration
and seed: json writes keys in insertion order and each float as its
shortest round-tripping repr, and rejects non-finite floats, which the data
payload writes as null and names.  Wall time is recorded only on request
for the same reason.
"""

from __future__ import annotations

import json
import math
import sys
from typing import NamedTuple, Optional

import numpy as np

SCHEMA_VERSION = 1
RNG = "PCG64"


class Check(NamedTuple):
    name: str
    status: str  # "pass", "warn" or "fail"
    max_error: Optional[float] = None
    n_samples: int = 0
    notes: str = ""


class VerificationReport:
    def __init__(
        self,
        command: Optional[str] = None,
        config: Optional[dict] = None,
        checks: Optional[list[Check]] = None,
        seed: Optional[int] = None,
        data: Optional[dict] = None,
        wall_time_s: Optional[float] = None,
    ) -> None:
        self.command = command
        self.config = {} if config is None else config
        self.checks = [] if checks is None else checks
        self.seed = seed
        self.data = {} if data is None else data
        self.wall_time_s = wall_time_s

    def record(
        self,
        name: str,
        passed: bool,
        max_error: Optional[float] = None,
        n_samples: int = 0,
        notes: str = "",
        warn_only: bool = False,
    ) -> Check:
        """Append a check with the verdict passed; warn_only downgrades a failure to a warning.

        bound records the sampled checks.  A non-finite max_error means the
        check measured nothing: it fails (warn_only notwithstanding), is
        stored as None, and its value is named in the notes.
        """
        status = "pass" if passed else ("warn" if warn_only else "fail")
        if max_error is not None and not math.isfinite(max_error):
            status = "fail"
            notes = "; ".join(filter(None, [notes, f"non-finite max_error {max_error!r}"]))
            max_error = None
        check = Check(name, status, max_error, n_samples, notes)
        self.checks.append(check)
        return check

    def bound(self, name: str, errors, tolerance: float, notes: str = "") -> Check:
        """Append a sampled check: it passes when it has a row and its worst row is within tolerance.

        errors is a float (one row), a column, or a list of equal-length
        columns (all their rows); n_samples is the number of rows and
        max_error the largest error.  A NaN row counts as inf, so record
        fails the check and names the value.
        """
        errors = np.asarray(errors, dtype=float)
        worst = float(np.max(errors, initial=0.0))
        worst = math.inf if math.isnan(worst) else worst
        return self.record(name, errors.size > 0 and worst <= tolerance, worst, errors.size, notes)

    @property
    def status(self) -> str:
        statuses = {c.status for c in self.checks}
        return "fail" if "fail" in statuses else ("warn" if "warn" in statuses else "pass")

    def to_dict(self) -> dict:
        """The schema-1 document.

        A non-finite float in data is written as None, like a non-finite
        max_error, and data gains a "non_finite" list naming each one.
        """
        non_finite: list[str] = []
        data = _finite(self.data, "data", non_finite)
        if non_finite:
            data["non_finite"] = non_finite
        return {
            "schema": SCHEMA_VERSION,
            "command": self.command,
            "status": self.status,
            "config": self.config,
            "seed": self.seed,
            "rng": RNG,
            "checks": [c._asdict() for c in self.checks],
            "data": data,
            "wall_time_s": self.wall_time_s,
        }


def _finite(value, path: str, found: list[str]):
    """value with each non-finite float replaced by None; found gets "path = value" for each."""
    if isinstance(value, float) and not math.isfinite(value):
        found.append(f"{path} = {float(value)!r}")
        return None
    if isinstance(value, dict):
        return {k: _finite(v, f"{path}.{k}", found) for k, v in value.items()}
    if type(value) in (list, tuple):
        return [_finite(v, f"{path}[{i}]", found) for i, v in enumerate(value)]
    if isinstance(value, tuple):  # a record (a tuple subclass) is no list
        raise TypeError(f"cannot serialize {type(value).__name__} into a report")
    return value


def render_json(value) -> str:
    return json.dumps(value, indent=2, allow_nan=False) + "\n"


def emit_report(report: VerificationReport, path: Optional[str]) -> None:
    """Write a report as UTF-8 JSON; path None or "-" writes to standard output."""
    text = render_json(report.to_dict())
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
