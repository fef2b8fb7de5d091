"""The reports of the benchmark's commands and of a fixed sweep, from two trees, compared check by check.

    python3 tools/compare_reports.py PARENT_TREE CHANGE_TREE

Each tree is a checkout of the repository (for instance a `git archive` of
each commit in its own directory).  Every command line is run once from
each tree, as `python -m solvloop ...` with that tree's src/ on PYTHONPATH:

  * every command of every workload of perfbench/run.py (read from the
    change tree's WORKLOADS; nothing under perfbench/ is changed), at the
    seeds 0 and 7919;
  * the sweep, at seed 0: every section of SWEEP_SECTIONS, in cases B and
    C, at a = 2 and a = -1, with `loop-check` and with `transitivity` (160
    lines); and every section that reads only x and z, in case A, at
    a = 2 and a = -1, with `loop-check` and with `generation` (56 lines).

Each line whose exit code or report bytes differ is printed with what
changed: the exit code, the report's status, and each check whose status,
max_error or notes differ.  The exit code is 1 if any line changes an exit
code or a status (of the report or of a check), else 0.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

SEEDS = (0, 7919)
# Sections off the benchmark: roots near poles, steep bumps, kinks, flat
# and saturating functions, and the presets' families.
SWEEP_SECTIONS = (
    "x*y", "x^3", "0.1*sin(x)", "sqrt(x)", "tan(x)", "0.1*x/(x-1.5)", "-3*exp(-1e10*(x-1)^2)",
    "2*sin(3*x*y)", "0.1*exp(-x*x-y*y)*sin(z)", "abs(x)", "x*z", "1-exp(-z)", "log(1+x*x)", "tanh(x)",
    "cos(x)-1", "0.2*expm1(x)", "0.5*x^2", "0.1*sqrt(y)", "x^y", "0.3*abs(x-y)",
)


def workload_lines(tree: Path) -> list[str]:
    """Every command line of perfbench/run.py's WORKLOADS in tree, at each of SEEDS."""
    sys.dont_write_bytecode = True  # leave no cache under perfbench/
    spec = importlib.util.spec_from_file_location("perfbench_run", tree / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return [t.format(seed=seed) for seed in SEEDS for templates in run.WORKLOADS.values() for t in templates]


def sweep_lines() -> list[str]:
    """The 160 lines of the sweep, at seed 0."""
    return [
        f"{command} --case {case} --a {a} --fn={shlex.quote(fn)} --seed 0"
        for fn in SWEEP_SECTIONS for case in "BC" for a in ("2", "-1") for command in ("loop-check", "transitivity")
    ]


def case_a_lines() -> list[str]:
    """The 56 case-A lines of the sweep, at seed 0: the sections that read no y."""
    return [
        f"{command} --case A --a {a} --fn={shlex.quote(fn)} --seed 0"
        for fn in SWEEP_SECTIONS if "y" not in fn for a in ("2", "-1") for command in ("loop-check", "generation")
    ]


def run_line(tree: Path, line: str) -> dict:
    """{"code", "out"}: the exit code and standard output of one command line run from tree."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-m", "solvloop", *shlex.split(line)],
                          cwd=tree, env=env, capture_output=True, text=True)
    return {"code": proc.returncode, "out": proc.stdout}


def differences(parent: dict, change: dict) -> tuple[list[str], bool]:
    """(what differs, whether an exit code or a status changed) between two runs {"code", "out"} of one line.

    The list is empty where the exit codes and the outputs are the same.
    Outputs that are not both JSON reports are compared as text.  Checks
    are matched by name; a check on one side only is a change of status.
    """
    code = [f"exit code {parent['code']} -> {change['code']}"] if parent["code"] != change["code"] else []
    if parent["out"] == change["out"]:
        return code, bool(code)
    try:
        before, after = json.loads(parent["out"]), json.loads(change["out"])
    except ValueError:
        return code + ["output differs"], bool(code)
    notes, changed = [], bool(code)
    if before.get("status") != after.get("status"):
        notes.append(f"status {before.get('status')} -> {after.get('status')}")
        changed = True
    checks = [{c["name"]: c for c in report.get("checks", [])} for report in (before, after)]
    for name in dict.fromkeys([*checks[0], *checks[1]]):
        old, new = (side.get(name) for side in checks)
        if old is None or new is None:
            notes.append(f"{name}: only in the {'parent' if new is None else 'change'}")
            changed = True
            continue
        moved = []
        if old.get("status") != new.get("status"):
            moved.append(f"status {old.get('status')} -> {new.get('status')}")
            changed = True
        if old.get("max_error") != new.get("max_error"):
            moved.append(f"max_error {old.get('max_error')!r} -> {new.get('max_error')!r}")
        if old.get("notes") != new.get("notes"):
            moved.append("notes differ")
        if moved:
            notes.append(f"{name}: " + "; ".join(moved))
    return code + (notes or ["report differs outside its checks"]), changed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    args = parser.parse_args(argv)
    trees = (args.parent.resolve(), args.change.resolve())
    groups = {"benchmark": workload_lines(trees[1]), "sweep": sweep_lines() + case_a_lines()}
    broken = 0
    for group, lines in groups.items():
        differing = 0
        for line in lines:
            notes, changed = differences(*(run_line(tree, line) for tree in trees))
            if notes:
                differing += 1
                broken += changed
                print(f"{'CHANGED' if changed else 'digits'}: {line}\n" + "".join(f"    {n}\n" for n in notes), end="")
        print(f"{group}: {differing} of {len(lines)} lines differ", file=sys.stderr)
    print(f"{broken} lines change an exit code or a status", file=sys.stderr)
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
