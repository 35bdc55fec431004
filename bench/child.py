"""One benchmark child: import the atomol CLI, then run it once.

    python3 bench/child.py --src SRC --result FILE [--trace-out FILE] \
        [--probe | --base] -- <atomol CLI arguments>

The parent notes the monotonic clock just before it spawns this
process.  The child stamps the same clock once `atomol.cli` is imported
and `main` can be called (the end of set-up) and again when `main`
returns, and writes both stamps to --result as JSON.  With --probe it
stops after the set-up stamp; with --base it imports numpy only, stamps
and stops.  With --trace-out it wraps the public functions of every
atomol module (see tracer.py) before calling `main` and writes the
recorded spans there; without it the tracer is never imported.

The child also times a fixed calibration kernel, which depends on
Python and numpy only, never on atomol: CAL_REPS repetitions before
`main`, as many after it, and, in an untraced child, one every
SAMPLE_EVERY_S seconds while `main` runs (from a SIGALRM handler, which
Python runs between two byte-code instructions of the program).  The
durations tell the parent how fast the host ran this child, and the time
spent in the kernel is reported so that the parent can take it out of
the child's wall and CPU time.
"""

import argparse
import json
import signal
import sys
import time
from pathlib import Path

CAL_REPS = 4  # calibration repetitions before main, and again after it
SAMPLE_EVERY_S = 0.5  # one repetition per interval while main runs


def _now_ns() -> int:
    # CLOCK_MONOTONIC is system-wide, so the parent's spawn stamp and the
    # child's stamps are on one time line
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class Calibration:
    """Durations of a fixed kernel, and the wall time spent in it.

    One repetition is an interpreter loop over Python integers and a
    loop of small-array numpy arithmetic, the two kinds of work the
    atomol CLI spends its time in: about 6 ms on a 2 vCPU Xeon.
    """

    def __init__(self, np):
        self.a = np.arange(8.0)
        self.durations: list[float] = []
        self.spent_ns = 0

    def rep(self, *_) -> None:
        t0 = _now_ns()
        t = time.perf_counter()
        s = 0
        for i in range(40_000):
            s += i * i
        x = 0.0
        for _ in range(800):
            x += float((self.a * 1.0001 + 0.5).sum())
        self.durations.append(time.perf_counter() - t)
        self.spent_ns += _now_ns() - t0

    def reps(self, n: int = CAL_REPS) -> None:
        for _ in range(n):
            self.rep()

    def sample_while(self, fn, *args):
        """fn(*args), with one repetition every SAMPLE_EVERY_S seconds."""
        old = signal.signal(signal.SIGALRM, self.rep)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            return fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace-out")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--base", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    if args.base:
        import numpy  # noqa: F401

        result = {"ready_ns": _now_ns(), "tracer_loaded": False}
        Path(args.result).write_text(json.dumps(result), encoding="utf-8")
        return 0
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import atomol.cli as cli

    ready_ns = _now_ns()
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"atomol imported from {cli.__file__}, not from {src}",
              file=sys.stderr)
        return 90
    result = {"ready_ns": ready_ns}
    if not args.probe:
        import numpy as np

        calib = Calibration(np)
        calib.reps()
        if args.trace_out:
            # no samples inside main: they would land in the spans
            import tracer as tracer_mod
            tracer = tracer_mod.Tracer()
            tracer.install()
            rc = cli.main(cli_args)
            result["main_ns"] = _now_ns()
            tracer.dump(args.trace_out)
        else:
            rc = calib.sample_while(cli.main, cli_args)
            result["main_ns"] = _now_ns()
        calib.reps()
        result["rc"] = rc
        result["calib_s"] = calib.durations
        result["calib_total_s"] = calib.spent_ns * 1e-9
    result["tracer_loaded"] = "tracer" in sys.modules
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return result.get("rc", 0)


if __name__ == "__main__":
    sys.exit(main())
