"""Run one solvloop CLI command in this fresh interpreter and describe the run.

    python child.py SPANS_PATH TRACE_ID -- COMMAND ARGS...

SPANS_PATH is "-" for an untraced run; otherwise a Tracer is installed after
set-up and its spans and counters are written there.  The last line of
standard output is one JSON object: the CLI exit code, the set-up and
command wall times, the median time of a fixed reference computation run
before, during (every 50 ms) and after the command, the peak resident set
size, the report text and the Python and numpy versions.  The package is imported from the ``src``
directory next to this file's directory, and from nowhere else.
"""

import contextlib
import io
import json
import math
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path


def reference_sample() -> float:
    """Time of a fixed pure-Python computation: how fast this CPU runs right now."""
    t0 = time.perf_counter()
    total = 0.0
    for i in range(2_000):
        total += math.sin(i * 1e-3) * i
    return time.perf_counter() - t0


class SpeedSampler:
    """Takes a reference sample every ``interval`` seconds while the command runs.

    SIGALRM handlers run between bytecodes of the main thread, so the samples
    see the CPU the command runs on.  ``spent`` is their total time, which the
    caller takes out of the command's time.
    """

    def __init__(self, interval: float = 0.05) -> None:
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(reference_sample())
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)


def main() -> int:
    spans_path, trace_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        print("usage: child.py SPANS_PATH TRACE_ID -- COMMAND ARGS...", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    import solvloop.cli

    solvloop.cli.build_parser()
    setup_s = time.perf_counter() - t0

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(solvloop.__file__).resolve().parents:
        print(f"solvloop was imported from {solvloop.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if spans_path != "-":
        from tracer import Tracer

        tracer = Tracer(solvloop)

    out = io.StringIO()
    reference = [reference_sample() for _ in range(10)]
    t1 = time.perf_counter()
    with SpeedSampler() as sampler, contextlib.redirect_stdout(out):
        code = solvloop.cli.main(argv)
    cmd_s = time.perf_counter() - t1 - sampler.spent
    reference += sampler.samples + [reference_sample() for _ in range(10)]

    if tracer is not None:
        tracer.dump(spans_path, trace_id)
    import numpy

    print(
        json.dumps(
            {
                "exit": code,
                "setup_s": setup_s,
                "cmd_s": cmd_s,
                "reference_s": statistics.median(reference),
                "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "report": out.getvalue(),
                "python": platform.python_version(),
                "numpy": numpy.__version__,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
