"""Alternated before/after runs of perfbench/run.py, written as a BENCH_*.json file.

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload NAME --seed N \
        --pairs K --seconds S --out BENCH_N.json [--description TEXT]

Each tree is a checkout of the repository (for instance a `git archive` of
each commit in its own directory).  A pair runs `perfbench/run.py` once from
each tree, with the same workload, seed and --seconds; odd pairs run the
parent first and even pairs the change, so drift of the machine's speed
falls on both sides alike.  The final JSON line of every run is kept under
runs[workload][seed] as {"pair", "first", "parent", "change"}.  An existing
--out file is extended: its runs are kept, new pairs are numbered after
them, and the summary is computed again over all runs of every workload
and seed.  Nothing under perfbench/ is changed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The final JSON line of one perfbench/run.py run from tree."""
    argv = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    """median, q1 and q3 of values, by statistics.quantiles' inclusive method."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict]) -> dict:
    """Per metric, each side's quartiles and the pairs in which the change reads lower, as "k/n".

    "correct" says that every run of both sides was correct with no failed
    command run.
    """
    out: dict = {}
    for name in pairs[0]["parent"]["metrics"]:
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        lower = sum(c < p for p, c in zip(values["parent"], values["change"]))
        out[name] = {**{side: quartiles(values[side]) for side in SIDES},
                     "change_lower": f"{lower}/{len(pairs)}"}
    out["correct"] = all(p[side]["correct"] and p[side]["failed"] == 0 for p in pairs for side in SIDES)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--description", help="replaces the file's description")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    bench = json.loads(args.out.read_text()) if args.out.exists() else {"description": "", "runs": {}}
    if args.description is not None:
        bench["description"] = args.description
    runs = bench["runs"].setdefault(args.workload, {}).setdefault(str(args.seed), [])
    for _ in range(args.pairs):
        pair = len(runs) + 1
        order = SIDES if pair % 2 else SIDES[::-1]
        results = {side: run_once(trees[side], args.workload, args.seed, args.seconds) for side in order}
        runs.append({"pair": pair, "first": order[0], **{side: results[side] for side in SIDES}})
        print(f"{args.workload} seed {args.seed} pair {pair}: " + ", ".join(
            f"{side} slowest_cmd_s {results[side]['metrics']['slowest_cmd_s']['value']:.6f}" for side in SIDES
        ), file=sys.stderr)
    bench["summary"] = {
        workload: {seed: summarize(pairs) for seed, pairs in seeds.items()}
        for workload, seeds in bench["runs"].items()
    }
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
