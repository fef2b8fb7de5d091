"""Check aggregation and deterministic JSON reports.

Every suite in the library returns a VerificationReport; the command line
fills in its command name, echoed configuration and optional wall time and
writes it.  Reports must be byte-identical across reruns with the same
configuration and seed, so serialization is hand-rolled: floats are written
with 17 significant digits (enough to round-trip a double), keys keep
insertion order, and non-finite floats are rejected, except in the data
payload, where they are written as null and named.  Wall time is recorded
only on request for the same reason.
"""

from __future__ import annotations

import json
import math
import sys
from typing import Optional

SCHEMA_VERSION = 1
RNG = "PCG64"


class Check:
    def __init__(
        self,
        name: str,
        status: str,  # "pass", "warn" or "fail"
        max_error: Optional[float] = None,
        n_samples: int = 0,
        notes: str = "",
    ) -> None:
        if status not in ("pass", "warn", "fail"):
            raise ValueError(f"invalid check status {status!r}")
        self.name, self.status, self.max_error = name, status, max_error
        self.n_samples, self.notes = n_samples, notes

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "max_error": self.max_error,
            "n_samples": self.n_samples,
            "notes": self.notes,
        }


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
            "checks": [c.to_dict() for c in self.checks],
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
    if type(value) in (list, tuple):  # a record (a tuple subclass) is no list
        return [_finite(v, f"{path}[{i}]", found) for i, v in enumerate(value)]
    return value


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
    if type(value) in (list, tuple):
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
