"""Record the expected outcome of every benchmark command into expected.json.

    python3 perfbench/record.py

Runs each command of every workload once, untraced, at the default seed and
stores its exit code and the (name, status) of each check.  run.py holds
every later run to these values, so record them only from a commit whose
verdicts are known to be right.
"""

import json
import shlex
import subprocess
import sys

from run import DEFAULT_SEED, HERE, ROOT, WORKLOADS, check_statuses, run_child


def main() -> int:
    commands = {}
    for templates in WORKLOADS.values():
        for template in templates:
            result = run_child(shlex.split(template.format(seed=DEFAULT_SEED)), "-", "record", 170.0)
            if "error" in result:
                print(f"{template}: {result['error']}", file=sys.stderr)
                return 1
            commands[template] = {"exit": result["exit"], "checks": check_statuses(result["report"])}
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                            capture_output=True, text=True).stdout.strip()
    payload = {"recorded_at": commit, "seed": DEFAULT_SEED, "commands": commands}
    (HERE / "expected.json").write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
