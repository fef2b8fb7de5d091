"""Check aggregation and deterministic JSON reports.

Every suite in the library returns a VerificationReport; the command line
fills in its command name, echoed configuration and optional wall time and
writes it.  Reports must be byte-identical across reruns with the same
configuration and seed, so serialization is hand-rolled: floats are written
with 17 significant digits (enough to round-trip a double), keys keep
insertion order, and non-finite floats are rejected.  Wall time is recorded
only on request for the same reason.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from typing import Optional

__all__ = [
    "SCHEMA_VERSION",
    "RNG",
    "Check",
    "VerificationReport",
    "render_json",
    "emit_report",
]

SCHEMA_VERSION = 1
RNG = "PCG64"


@dataclass
class Check:
    name: str
    status: str  # "pass", "warn" or "fail"
    max_error: Optional[float] = None
    n_samples: int = 0
    notes: str = ""

    def __post_init__(self) -> None:
        if self.status not in ("pass", "warn", "fail"):
            raise ValueError(f"invalid check status {self.status!r}")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "max_error": self.max_error,
            "n_samples": self.n_samples,
            "notes": self.notes,
        }


@dataclass
class VerificationReport:
    command: Optional[str] = None
    config: dict = field(default_factory=dict)
    checks: list[Check] = field(default_factory=list)
    seed: Optional[int] = None
    data: dict = field(default_factory=dict)
    wall_time_s: Optional[float] = None

    def record(
        self,
        name: str,
        passed: bool,
        max_error: Optional[float] = None,
        n_samples: int = 0,
        notes: str = "",
        warn_only: bool = False,
    ) -> Check:
        """Append a check; warn_only downgrades a failure to a warning.

        A non-finite max_error means the check did not measure anything: it
        fails (warn_only notwithstanding), is stored as None, and its value
        is named in the notes.
        """
        status = "pass" if passed else ("warn" if warn_only else "fail")
        if max_error is not None and not math.isfinite(max_error):
            status = "fail"
            notes = "; ".join(filter(None, [notes, f"non-finite max_error {max_error!r}"]))
            max_error = None
        check = Check(name, status, max_error, n_samples, notes)
        self.checks.append(check)
        return check

    @property
    def status(self) -> str:
        statuses = {c.status for c in self.checks}
        return "fail" if "fail" in statuses else ("warn" if "warn" in statuses else "pass")

    @property
    def passed(self) -> bool:
        return self.status != "fail"

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "command": self.command,
            "status": self.status,
            "config": self.config,
            "seed": self.seed,
            "rng": RNG,
            "checks": [c.to_dict() for c in self.checks],
            "data": self.data,
            "wall_time_s": self.wall_time_s,
        }


def _render(value, indent: int) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            raise ValueError("non-finite float in report")
        return format(value, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {_render(v, indent + 1)}" for k, v in value.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [f"{inner}{_render(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(value).__name__} into a report")


def render_json(value) -> str:
    return _render(value, 0) + "\n"


def emit_report(report: VerificationReport, path: Optional[str]) -> None:
    """Write a report as UTF-8 JSON; path None or "-" writes to standard output."""
    text = render_json(report.to_dict())
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
