"""Fresh-process benchmark of the solvloop command line.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Each workload is a fixed battery of ``solvloop`` CLI commands.  A pass runs
every command once, one at a time, each in a fresh interpreter started from
``perfbench/child.py``, as a user's invocation would be: no cache or lazy
set-up carries over from one command to the next.  Passes repeat until the
next one would end after ``--seconds``; at least one pass always runs.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` passes alternate untraced and traced
runs and the JSON carries the per-layer metrics of the traced runs.  A
readable summary, with sample counts, ratio bases and provenance, goes to
standard error.  See perfbench/README.md for the metric definitions.

Every run is checked against ``expected.json`` (exit code and the status
of every check, recorded from the seed commit), and each command's report
must be byte-identical in every run of the same command: across passes and
between traced and untraced runs.  Traced runs must also give identical
counters.  ``failed`` counts the runs that break any of these rules.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 0
# No timing was tuned on this seed; later gains are confirmed on it.
HELD_OUT_SEED = 7919
# A run stops starting commands after this many seconds, whatever --seconds says.
HARD_LIMIT_S = 165.0
# Calibrated seconds are wall seconds scaled as if child.reference_sample's
# computation had taken this long, about its median on the 2-CPU container
# where the bounds were set.
REFERENCE_S = 0.00025


def _implicit(lemma1: str, sin_small: str, bilinear: str, sin_large: str) -> list[str]:
    return [
        f"loop-check --case B --a 2 {lemma1} --seed {{seed}}",
        f"loop-check --case C --a 2 {sin_small} --seed {{seed}}",
        f"loop-check --case C --a 0.5 {bilinear} --seed {{seed}}",
        f"transitivity --case B --a 2 {lemma1} --seed {{seed}}",
        f"transitivity --case B --a -1 {sin_small} --seed {{seed}}",
        f"transitivity --case C --a 2 {sin_small} --seed {{seed}}",
        f"transitivity --case C --a 2 {sin_large} --seed {{seed}}",
    ]


# Command templates; "{seed}" is replaced by the workload seed.
WORKLOADS: dict[str, list[str]] = {
    "closed-form": [
        # Pinned to the recorded seed: on about 2 % of other seeds the program's
        # exp-one-parameter check fails, its error just over the 1e-12 tolerance,
        # a defect of exp_alg (see "Correctness gate" in README.md).
        "verify-group --a 2 --seed 0",
        "verify-group --a -1 --seed {seed}",
        "verify-group --a 1 --seed {seed}",
        "theorem2 --a 0.5 --seed {seed}",
        "theorem2 --a 2 --seed {seed}",
        "theorem2 --a -1 --seed {seed}",
        "classify --a 2 --b1 1.5 --b2 0.5 --b3 -2",
        "classify --a 1 --b1 1 --b2 2 --b3 3",
        "fixed-point --a 2 --g 1 -2 0.5 1.5",
        "lemma1 --K 2",
        "lemma1 --fn 'sin(z)'",
        "generation --case A --a 2 --preset linear-x",
        "generation --case B --a 2 --preset lemma1",
        "generation --case C --a 2 --preset sin-small",
        "loop-check --case A --a 2 --preset linear-x --seed {seed}",
        "loop-check --case A --a -1 --preset bilinear --seed {seed}",
        "transitivity --case A --a 2 --preset linear-x --seed {seed}",
    ],
    "implicit-preset": _implicit(
        "--preset lemma1", "--preset sin-small", "--preset bilinear", "--preset sin-small --coeff 6"
    ),
    "implicit-expr": _implicit(
        "--fn '1-exp(-z)'", "--fn '0.1*sin(x)'", "--fn 'x*z'", "--fn '6*sin(x)'"
    ),
}

LAYERS = ("cli", "report", "loops", "sections", "numerics", "expressions", "group",
          "subgroups", "multgroup")
END_TO_END = {"battery_s": "s", "slowest_cmd_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
RATIOS = ("numerics.newton_converged_ratio", "loops.rdiv_scans_per_call", "trace_overhead_ratio")
# Per-layer counters read straight from the tracer's call counts.
CALL_COUNTERS = {
    "expressions.nodes": "expressions.evaluate",
    "numerics.root1d.calls": "numerics.root1d",
    "numerics.bisect.calls": "numerics.bisect",
    "numerics.root2d.calls": "numerics.root2d",
    "numerics.newton2d.calls": "numerics.newton2d",
    "numerics.fd_jacobian.calls": "numerics.fd_jacobian",
    "loops.loop_rdiv.calls": "loops.loop_rdiv",
    "group.mul.calls": "group.mul",
    "group.exp_alg.calls": "group.exp_alg",
    "multgroup.normalizes.calls": "multgroup.normalizes",
}


# ---------------------------------------------------------------- children


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # Users import from bytecode caches, so the warm-up child must be able to write them.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv: list[str], spans_path: str, trace_id: str, timeout: float) -> dict:
    """Run one command in a fresh interpreter; {"error": ...} when the child itself fails."""
    cmd = [sys.executable, str(HERE / "child.py"), spans_path, trace_id, "--", *argv]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=_child_env(),
                              cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0:
        return {"error": f"child exited {proc.returncode}: {proc.stderr.strip()[-400:]}"}
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"child printed no result: {proc.stdout[-200:]!r}"}


def check_statuses(report: str) -> dict[str, str] | None:
    try:
        return {c["name"]: c["status"] for c in json.loads(report)["checks"]}
    except (json.JSONDecodeError, KeyError, TypeError):
        return None


# ----------------------------------------------------------------- tracing


def trace_summary(spans_path: Path, scale: float) -> dict:
    """Exact counters and timings of one traced command, each a flat name -> number map.

    Counters: "spans.<layer>", and "calls.", "raised.", "converged." and
    "within." followed by a function name, plus "fn_points".  Timings, in
    nanoseconds multiplied by ``scale``: "self.<layer>" and
    "inclusive.<function>".
    """
    import numpy as np

    with np.load(spans_path) as data:
        meta = json.loads(str(data["meta"]))
        parent, layer = data["parent"], data["layer"]
        duration = (data["end"] - data["start"]).astype(float)
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=duration[has_parent],
                             minlength=len(duration))
    self_ns = np.bincount(layer, weights=duration - child_time, minlength=len(meta["layers"]))
    spans = np.bincount(layer, minlength=len(meta["layers"]))
    counts = {"fn_points": meta["fn_points"]}
    times = {}
    for i, name in enumerate(meta["layers"]):
        counts[f"spans.{name}"] = int(spans[i])
        times[f"self.{name}"] = float(self_ns[i]) * scale
    for kind, field in (("calls", "calls"), ("raised", "raised"), ("converged", "converged"),
                        ("within", "solver_calls_within")):
        counts.update({f"{kind}.{k}": v for k, v in meta[field].items()})
    times.update({f"inclusive.{k}": v * scale for k, v in meta["inclusive_ns"].items()})
    return {"counts": counts, "times": times}


# ------------------------------------------------------------------ passes


class Run:
    """All child runs of one benchmark invocation, with the correctness gate."""

    def __init__(self, workload: str, seed: int, tmp: Path, deadline: float) -> None:
        self.templates = WORKLOADS[workload]
        self.argvs = [shlex.split(t.format(seed=seed)) for t in self.templates]
        self.expected = json.loads((HERE / "expected.json").read_text())["commands"]
        self.tmp = tmp
        self.deadline = deadline
        self.passes: list[list[dict]] = []
        self.traced_passes: list[list[dict]] = []
        self.attempted = 0
        self.failures: list[str] = []
        self._reports: dict[str, str] = {}
        self._counts: dict[str, str] = {}
        self.timed_out = False

    def run_pass(self, traced: bool) -> None:
        """Run every command once; the pass joins the metrics only if every child ran."""
        results = []
        n = len(self.passes) + len(self.traced_passes)
        for i, (template, argv) in enumerate(zip(self.templates, self.argvs)):
            remaining = self.deadline - time.monotonic()
            self.attempted += 1
            if remaining <= 0:
                self.failures.append(f"`{template}`: not started, the run hit its {HARD_LIMIT_S:.0f} s limit")
                self.timed_out = True
                return
            spans = self.tmp / f"{n}-{i}.npz"
            result = run_child(argv, str(spans) if traced else "-", f"pass{n}-cmd{i}", remaining)
            if "error" in result:
                self.failures.append(f"`{template}`: {result['error']}")
                continue
            scale = REFERENCE_S / result["reference_s"]
            result["cmd_cs"] = result["cmd_s"] * scale
            result["setup_cs"] = result["setup_s"] * scale
            if traced:
                result["trace"] = trace_summary(spans, scale)
                spans.unlink()
            problem = self._problem(template, result, traced)
            if problem is not None:
                self.failures.append(f"{'traced' if traced else 'untraced'} `{template}`: {problem}")
            results.append(result)
        if len(results) == len(self.argvs):
            (self.traced_passes if traced else self.passes).append(results)

    def _problem(self, template: str, result: dict, traced: bool) -> str | None:
        want = self.expected[template]
        got = {"exit": result["exit"], "checks": check_statuses(result["report"])}
        if got != want:
            return f"expected {want}, got {got}"
        if result["report"] != self._reports.setdefault(template, result["report"]):
            return "report bytes differ from this command's first run"
        if traced:
            counts = json.dumps(result["trace"]["counts"], sort_keys=True)
            if self._counts.setdefault(template, counts) != counts:
                return "trace counters differ from this command's first traced run"
        return None


# ----------------------------------------------------------------- metrics


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1={q1:.4g} q3={q3:.4g} n={len(values)}"


def end_to_end(passes: list[list[dict]]) -> tuple[dict, dict]:
    battery = [sum(r["cmd_cs"] for r in p) for p in passes]
    slowest = [max(r["cmd_cs"] for r in p) for p in passes]
    setups = [r["setup_cs"] for p in passes for r in p]
    wall = [sum(r["cmd_s"] for r in p) for p in passes]
    rss = [r["peak_rss_kb"] / 1024.0 for p in passes for r in p]
    values = {
        "battery_s": statistics.median(battery),
        "slowest_cmd_s": statistics.median(slowest),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(rss),
    }
    notes = {
        "battery_s": f"median over passes, {_spread(battery)}; uncalibrated wall time "
                     f"{statistics.median(wall):.4g} s, {_spread(wall)}",
        "slowest_cmd_s": f"median over passes, {_spread(slowest)}",
        "setup_s": f"median over commands x passes, {_spread(setups)}",
        "peak_rss_mb": f"max over {len(rss)} child processes",
    }
    return values, notes


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _pass_total(results: list[dict], field: str) -> dict:
    total: dict = {}
    for r in results:
        for k, v in r["trace"][field].items():
            total[k] = total.get(k, 0) + v
    return total


def per_layer(passes: list[list[dict]], traced: list[list[dict]]) -> tuple[dict, dict]:
    """Per-layer metrics of the traced passes; exact counts come from the first one."""
    counts = _pass_total(traced[0], "counts")
    times = [_pass_total(p, "times") for p in traced]
    values: dict[str, float] = {}
    notes: dict[str, str] = {}

    def median_time(name: str, key: str, scale: float, note: str) -> None:
        samples = [t.get(key, 0.0) * scale for t in times]
        values[name] = statistics.median(samples)
        notes[name] = f"{note}, median over traced passes, {_spread(samples)}"

    for layer in LAYERS:
        median_time(f"{layer}.self_s", f"self.{layer}", 1e-9, "summed over commands")
        values[f"{layer}.calls"] = counts.get(f"spans.{layer}", 0)
    values["sections.fn_calls"] = sum(
        v for k, v in counts.items() if k.startswith("calls.") and k.endswith(".FunctionSpec.__call__")
    )
    values["sections.fn_points"] = counts["fn_points"]
    for name, func in CALL_COUNTERS.items():
        values[name] = counts.get(f"calls.{func}", 0)
        if f"calls.{func}" not in counts:
            notes[name] = f"{func} does not exist in this version"

    starts = counts.get("calls.numerics.newton2d", 0)
    converged = counts.get("converged.numerics.newton2d", 0)
    values["numerics.newton_converged_ratio"] = _ratio(converged, starts)
    notes["numerics.newton_converged_ratio"] = f"base: {converged} converged / {starts} starts"

    rdivs = counts.get("calls.loops.loop_rdiv", 0)
    median_time("loops.loop_rdiv.us_per_call", "inclusive.loops.loop_rdiv", _ratio(1e-3, rdivs),
                f"inclusive, base {rdivs} calls")
    scans = counts.get("within.loops.loop_rdiv", 0)
    values["loops.rdiv_scans_per_call"] = _ratio(scans, rdivs)
    notes["loops.rdiv_scans_per_call"] = f"base: {scans} root-solver calls / {rdivs} loop_rdiv calls"
    values["loops.rdiv_errors"] = counts.get("raised.loops.loop_rdiv", 0)

    exps = counts.get("calls.group.exp_alg", 0)
    median_time("group.exp_alg.us_per_call", "inclusive.group.exp_alg", _ratio(1e-3, exps),
                f"inclusive, base {exps} calls")
    values["report.bytes"] = sum(len(r["report"].encode()) for r in traced[0])

    untraced = statistics.median(sum(r["cmd_cs"] for r in p) for p in passes)
    traced_s = statistics.median(sum(r["cmd_cs"] for r in p) for p in traced)
    values["trace_overhead_ratio"] = _ratio(traced_s, untraced)
    notes["trace_overhead_ratio"] = f"base: traced {traced_s:.4f} s / untraced {untraced:.4f} s battery"
    return values, notes


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith(".self_s"):
        return "s"
    if name.endswith(".us_per_call"):
        return "us"
    if name == "report.bytes":
        return "B"
    return "ratio" if name in RATIOS else "count"


# -------------------------------------------------------------------- main


def provenance(results: list[dict]) -> list[str]:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = "n/a (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    versions = next((r for r in results if "python" in r), {})
    return [
        f"commit {commit}; src sha256 {digest.hexdigest()[:16]}",
        f"python {versions.get('python', '?')}, numpy {versions.get('numpy', '?')}, "
        f"nproc {os.cpu_count()}, one child at a time, BLAS/OpenMP threads 1",
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out "
                             "for confirming claims)")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "solvloop" / "__init__.py").is_file():
        print(f"error: no solvloop package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.monotonic()
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        run = Run(args.workload, args.seed, tmp, start + HARD_LIMIT_S)
        # Unmeasured warm-up: writes bytecode caches and proves the package imports.
        warm = run_child(["--help"], "-", "warm-up", HARD_LIMIT_S)
        if "error" in warm:
            print(f"error: warm-up command failed: {warm['error']}", file=sys.stderr)
            return 2
        measure_start = time.monotonic()
        rounds = 0
        while True:
            run.run_pass(traced=False)
            if args.trace:
                run.run_pass(traced=True)
            rounds += 1
            elapsed = time.monotonic() - measure_start
            if run.timed_out or elapsed + elapsed / rounds > args.seconds:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()

    failed = len(run.failures)
    complete, traced = run.passes, run.traced_passes
    if not complete or (args.trace and not traced):
        print("error: no complete pass", *run.failures, sep="\n  ", file=sys.stderr)
        return 1
    values, notes = per_layer(complete, traced) if args.trace else end_to_end(complete)

    log = [f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
           f"{len(complete)} untraced and {len(traced)} traced passes of "
           f"{len(run.argvs)} commands in {time.monotonic() - start:.1f} s"]
    log += provenance([r for p in complete for r in p])
    for name, value in values.items():
        log.append(f"  {name:34s} {value:<14.6g} {unit_of(name):6s} {notes.get(name, '')}")
    log.append(f"  {'fail_ratio':34s} {_ratio(failed, run.attempted):<14.6g} {'ratio':6s} "
               f"base: {failed} failed / {run.attempted} command runs")
    log += [f"  FAILED {f}" for f in run.failures]
    print("\n".join(log), file=sys.stderr)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
