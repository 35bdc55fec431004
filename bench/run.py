"""Benchmark of the atomol CLI on its three hot paths.

    python3 bench/run.py --workload census --seed 0 --seconds 36 --trace 0
    python3 bench/run.py --workload all          # every workload, one table

Run it from any directory of a source checkout; it imports atomol from
the checkout's src/.  Workloads (see bench/NOTES.md for why these):

    census    atomol regimes, 200x200 cells, Gamma from the seed in [0.3, 0.9]
    sweep     atomol sweep, 4 betas x {-g, 0, +g}, g from the seed in [0.3, 0.7]
    portrait  atomol portrait, 5x8 starts, t_span 20, Gamma in [-0.4, 0.4]

The seed picks Gamma, spread over the range across the children of a
run; seed 0 gives the default values 0.6, 0.5 and 0 to every child.
The program only receives the generated CLI flags.

Untraced run (--trace 0): one warm-up import, then, while the next
child is expected to end less than half a child past --seconds (at
least once), set-up probe pairs until they have taken PROBE_SHARE of the
run so far, and one CLI child.  A pair is a base probe (python3 importing numpy only, exit) and
a probe (importing atomol.cli, exit).  Children run one at a time.
Each child's output is checked (checks.py) and a child that exits
non-zero, times out or fails a check counts as failed.

On a shared host the CPU speed drifts by up to 1.6x over seconds to
minutes, and the program's time drifts with it, so the times are
reported at a reference host speed.  Each CLI child also times a fixed
calibration kernel before, during and after `main` (child.py); its
host_speed is REF_CAL_S / (its median kernel time).  Start-up drifts
on its own, and a pair's startup_speed is REF_BASE_S / (its base
probe's time).
Reported, as means over the children (whose Gammas spread evenly over
the range, so a mean is hardly moved by where they fall) or as medians
over the pairs:

    wall_s       spawn to exit of a CLI child, calibration excluded,
                 times its host_speed
    setup_s      spawn until atomol.cli is imported, of a probe, times
                 its pair's startup_speed
    items_per_s  items / ((wall - setup) as measured * host_speed) per
                 child; an item is a grid cell, a (beta, Gamma) point or
                 a trajectory
    peak_rss_mb  the child's maximum resident set size

The times as measured (wall_raw_s, setup_raw_s, base_setup_s) and the
speeds are printed too, but only the four above go into the JSON
result line.

Traced run (--trace 1): one untraced child and one child that records a
span per call of every public atomol function (tracer.py), then the
per-layer metrics of layers.py and the tracing overhead (traced minus
untraced wall time).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A full report, with the
environment, every sample, the output checks and the data-file
fingerprints, is written to .bench_results/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy

import checks

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
RESULTS_DIR = ROOT / ".bench_results"
CHILD = BENCH_DIR / "child.py"

DEFAULT_SEED = 0
# median time of one child.Calibration repetition on the reference host
# (2 vCPU Intel Xeon, Python 3.11, numpy 2.4); host_speed is this over
# the time measured in a child, so > 1 means faster than the reference
REF_CAL_S = 0.006
# median spawn-to-import time of a base probe (python3 importing numpy
# only) on the same host; a pair's startup_speed is this over its base
# probe's time
REF_BASE_S = 0.14
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
PROBE_SHARE = 0.15  # share of an untraced run spent in set-up probes
CHILD_TIMEOUT_S = 150.0
WORKLOADS = ("census", "sweep", "portrait")
END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("items_per_s", "1/s"),
              ("peak_rss_mb", "MB")]
# per-child times; each child has its own Gamma, so these are averaged
MEANS = {"wall_s", "items_per_s", "wall_raw_s"}
# printed and kept in the report, not in the JSON result line
AS_MEASURED = [("wall_raw_s", "s"), ("setup_raw_s", "s"), ("base_setup_s", "s"),
               ("host_speed", "1"), ("startup_speed", "1")]
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def workload_spec(name: str, seed: int, size: str = "full",
                  child: int = 0) -> dict:
    """CLI arguments, item count and check parameters of one child's run.

    The seed picks Gamma for child 0; child k adds k times the golden
    ratio (mod 1) to its position in the range, so the children of one
    run spread evenly over the range and a run's median does not hinge
    on where a single Gamma falls (portrait's step count varies by 50%
    over its range).  size "tiny" shrinks every workload to a smoke test
    of the same path.
    """
    start = random.Random(f"{name}:{seed}").random()

    def draw(lo, hi, default):
        if seed == DEFAULT_SEED:
            return default
        return round(lo + (hi - lo) * ((start + child * GOLDEN) % 1.0), 3)

    tiny = size == "tiny"
    if name == "census":
        gamma = draw(0.3, 0.9, 0.6)
        n = 12 if tiny else 200
        params = {"window": [0.0, 3.0, -2.0, 2.0], "resolution": [n, n],
                  "omega": 1.0, "gamma": gamma, "refine_tol": 1e-3}
        argv = ["regimes", "--window", "0,3,-2,2", "--resolution", str(n),
                "--omega", "1", "--refine-tol", "1e-3", f"--gamma={gamma!r}"]
        items = n * n
    elif name == "sweep":
        g = draw(0.3, 0.7, 0.5)
        betas = [1.0] if tiny else [0.1, 0.2, 0.5, 1.0]
        gammas = [-g, 0.0, g]
        params = {"betas": betas, "gammas": gammas}
        argv = ["sweep", "--beta", ",".join(map(repr, betas)),
                "--gamma=" + ",".join(map(repr, gammas))]
        items = len(betas) * len(gammas)
    elif name == "portrait":
        gamma = draw(-0.4, 0.4, 0.0)
        n_s, n_theta, t_span = (2, 3, 2.0) if tiny else (5, 8, 20.0)
        params = {"c": 0.0, "omega": 1.0, "r": 0.0, "gamma": gamma,
                  "n_s": n_s, "n_theta": n_theta, "t_span": t_span}
        argv = ["portrait", "--c", "0", "--omega", "1", "--r", "0",
                f"--gamma={gamma!r}", "--n-s", str(n_s), "--n-theta",
                str(n_theta), "--t-span", repr(t_span)]
        items = n_s * n_theta
    else:
        raise ValueError(f"unknown workload {name!r}")
    return {"workload": name, "seed": seed, "size": size, "argv": argv,
            "items": items, "params": params}


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def spawn(cmd: list[str], stderr_path: Path,
          timeout_s: float = CHILD_TIMEOUT_S) -> dict:
    """Run one child to its end; wall time and os.wait4 resource usage."""
    lock = threading.Lock()
    state = {"exited": False, "timed_out": False}
    t_spawn = _now_ns()
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)

    def kill():
        with lock:
            if not state["exited"]:
                state["timed_out"] = True
                os.kill(proc.pid, signal.SIGKILL)

    timer = threading.Timer(timeout_s, kill)
    timer.start()
    try:
        # wait without reaping, so the pid cannot be reused while the
        # timer may still signal it
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        t_exit = _now_ns()
    except BaseException:
        os.kill(proc.pid, signal.SIGKILL)
        raise
    finally:
        with lock:
            state["exited"] = True
        timer.cancel()
        timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "t_spawn_ns": t_spawn,
        "elapsed_s": (t_exit - t_spawn) * 1e-9,
        "wall_s": (t_exit - t_spawn) * 1e-9,
        "rc": proc.returncode,
        "timed_out": state["timed_out"],
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
    }


def _child_cmd(result: Path, extra: list[str]) -> list[str]:
    return [sys.executable, str(CHILD), "--src", str(SRC),
            "--result", str(result)] + extra


def _tail(path: Path, n: int = 400) -> str:
    try:
        return path.read_text(encoding="utf-8", errors="replace")[-n:].strip()
    except OSError:
        return ""


def _run_child(work: Path, args: list[str]) -> dict:
    """Spawn child.py; the sample with its set-up time and any problems."""
    result = work / "child.json"
    result.unlink(missing_ok=True)
    sample = spawn(_child_cmd(result, args), work / "child.err")
    problems = []
    try:
        stamps = json.loads(result.read_text(encoding="utf-8"))
        sample["setup_s"] = (stamps["ready_ns"] - sample["t_spawn_ns"]) * 1e-9
        sample["tracer_loaded"] = stamps["tracer_loaded"]
        if "calib_s" in stamps:
            # the calibration is not the program's time
            sample["wall_s"] -= stamps["calib_total_s"]
            sample["cpu_s"] -= stamps["calib_total_s"]
            sample["host_speed"] = REF_CAL_S / statistics.median(stamps["calib_s"])
    except (OSError, ValueError, KeyError):
        sample["setup_s"] = None
        problems.append("child wrote no time stamps")
    if sample["timed_out"]:
        problems.append(f"timed out after {CHILD_TIMEOUT_S} s")
    elif sample["rc"] != 0:
        problems.append(f"exit code {sample['rc']}: " + _tail(work / "child.err"))
    sample["problems"] = problems
    return sample


def run_probe(work: Path, base: bool = False) -> dict:
    """A child that only imports atomol.cli (base: only numpy): one
    set-up sample."""
    return _run_child(work, ["--base" if base else "--probe"])


def run_workload_child(spec: dict, work: Path, reference: dict | None,
                       trace_out: Path | None = None) -> tuple[dict, Path]:
    """One CLI child on the workload; the sample and its output directory."""
    out = work / ("out-traced" if trace_out else "out")
    shutil.rmtree(out, ignore_errors=True)
    extra = ["--trace-out", str(trace_out)] if trace_out else []
    sample = _run_child(work, extra + ["--"] + spec["argv"] + ["--output", str(out)])
    problems = sample["problems"]
    if not problems:
        problems += checks.CHECKS[spec["workload"]](out, spec["params"])
        sample["fingerprints"] = checks.fingerprints(out)
        if reference is not None:
            problems += checks.compare_reference(spec["workload"], out, reference)
    if sample["setup_s"] is not None and "host_speed" in sample:
        busy = (sample["wall_s"] - sample["setup_s"]) * sample["host_speed"]
        sample["items_per_s"] = spec["items"] / busy if busy > 0 else 0.0
    sample["ok"] = not problems
    return sample, out


def io_stats(outdir: Path) -> dict:
    """Bytes of every file the run wrote and data rows of its CSV tables."""
    n_bytes = rows = 0
    for path in outdir.iterdir():
        n_bytes += path.stat().st_size
        if path.suffix == ".csv":
            with open(path, "rb") as fh:
                rows += sum(1 for _ in fh) - 1
    return {"bytes": n_bytes, "rows": rows}


def _median(values):
    return statistics.median(values) if values else 0.0


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def _quartiles(values):
    if len(values) < 2:
        return None
    q = statistics.quantiles(values, n=4)
    return [q[0], q[2]]


def measure_untraced(spec_for, seconds: float, work: Path,
                     reference: dict | None) -> dict:
    t_start = time.monotonic()
    run_probe(work)  # warm-up: byte-code caches, page cache
    pairs, children = [], []
    probe_s = 0.0
    while True:
        # set-up probe pairs spread over the run, so drift averages out
        while not pairs or probe_s < PROBE_SHARE * (time.monotonic() - t_start):
            t = time.monotonic()
            pairs.append((run_probe(work, base=True), run_probe(work)))
            probe_s += time.monotonic() - t
        spec = spec_for(len(children))
        sample, _ = run_workload_child(spec, work, reference)
        sample["argv"] = spec["argv"]
        children.append(sample)
        # one more child if it is expected to end less than half a child
        # past --seconds, so that runs last --seconds on average
        expected = _median([c["elapsed_s"] for c in children]) * (1 + PROBE_SHARE)
        if time.monotonic() - t_start + expected / 2 > seconds:
            break
    timed = [(base["setup_s"], probe["setup_s"]) for base, probe in pairs
             if base["setup_s"] and probe["setup_s"]]
    columns = {
        "wall_s": [c["wall_s"] * c["host_speed"] for c in children
                   if "host_speed" in c],
        "setup_s": [probe * REF_BASE_S / base for base, probe in timed],
        "items_per_s": [c.get("items_per_s") for c in children],
        "peak_rss_mb": [c["rss_mb"] for c in children],
        "wall_raw_s": [c["wall_s"] for c in children],
        "setup_raw_s": [probe for _, probe in timed],
        "base_setup_s": [base for base, _ in timed],
        "host_speed": [c.get("host_speed") for c in children],
        "startup_speed": [REF_BASE_S / base for base, _ in timed],
    }
    failed = sum(1 for c in children if not c["ok"])
    metrics = {}
    for name, unit in END_TO_END + AS_MEASURED:
        vals = [v for v in columns[name] if v is not None]
        centre = _mean if name in MEANS else _median
        metrics[name] = {"value": centre(vals), "unit": unit, "n": len(vals),
                         "quartiles": _quartiles(vals)}
    metrics["fail_ratio"] = {"value": failed / len(children), "unit": "1",
                             "n": len(children), "quartiles": None}
    probe_problems = [p for pair in pairs for probe in pair
                      for p in probe["problems"]]
    return {"metrics": metrics, "children": children, "probes": pairs,
            "attempted": len(children), "failed": failed,
            "correct": failed == 0 and not probe_problems,
            "problems": probe_problems}


def measure_traced(spec: dict, work: Path, reference: dict | None) -> dict:
    import layers  # imports the tracer; untraced runs never load it

    run_probe(work)  # warm-up, as in the untraced run
    plain, out = run_workload_child(spec, work, reference)
    stats = io_stats(out) if out.is_dir() else {"bytes": 0, "rows": 0}
    spans = work / "spans.bin"
    spans.unlink(missing_ok=True)
    traced, _ = run_workload_child(spec, work, reference, trace_out=spans)
    children = [plain, traced]
    problems = []
    if plain.get("tracer_loaded"):
        problems.append("the untraced child imported the tracer")
    unmeasured: list[str] = []
    values = {}
    if spans.exists():
        trace = layers.load_trace(spans)
        values, unmeasured = layers.layer_metrics(trace, spec["items"], plain,
                                                  traced, stats)
    else:
        problems.append("the traced child left no spans")
        unmeasured = [name for name, _, _ in layers.PER_LAYER]
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit, "n": 1,
                      "quartiles": None}
               for name, unit, _ in layers.PER_LAYER}
    failed = sum(1 for c in children if not c["ok"])
    return {"metrics": metrics, "children": children, "probes": [],
            "attempted": len(children), "failed": failed,
            "correct": failed == 0 and not problems, "problems": problems,
            "unmeasured": unmeasured,
            "wall_s": {"untraced": plain["wall_s"], "traced": traced["wall_s"]}}


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": _git_commit(),
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: str) -> dict:
    spec = workload_spec(name, seed, size)  # child 0
    reference = None
    if seed == DEFAULT_SEED and size == "full":
        reference = checks.load_reference()[name]
    work = WORK_DIR / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if trace:
            report = measure_traced(spec, work, reference)
        else:
            report = measure_untraced(
                lambda k: workload_spec(name, seed, size, k), seconds, work,
                reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report["spec"] = spec
    fps = [c["fingerprints"] for c in report["children"] if "fingerprints" in c]
    report["fingerprints"] = fps[0] if fps else {}
    if reference is not None:
        want = reference["fingerprints"]
        report["fingerprints_changed"] = sorted(
            k for k in set(want) | set(report["fingerprints"])
            if want.get(k) != report["fingerprints"].get(k))
    return report


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_report(name: str, report: dict) -> None:
    for metric, entry in report["metrics"].items():
        spread = ""
        if entry["quartiles"]:
            q1, q3 = entry["quartiles"]
            spread = f"  quartiles {_fmt(q1)} .. {_fmt(q3)}"
        print(f"{name:9s} {metric:38s} {_fmt(entry['value']):>14s} "
              f"{entry['unit']:6s} n={entry['n']}{spread}")
    if report.get("unmeasured"):
        print(f"{name:9s} unmeasured: {', '.join(report['unmeasured'])}")
    if "wall_s" in report:
        print(f"{name:9s} tracing overhead: traced "
              f"{report['wall_s']['traced']:.3f} s vs untraced "
              f"{report['wall_s']['untraced']:.3f} s")
    if report.get("fingerprints_changed"):
        print(f"{name:9s} fingerprints changed against the reference: "
              f"{', '.join(report['fingerprints_changed'])}")
    for child in report["children"]:
        for problem in child["problems"][:5]:
            print(f"{name:9s} FAILED: {problem}")
    for problem in report["problems"]:
        print(f"{name:9s} FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: smoke-test sizes")
    args = parser.parse_args(argv)

    if not (SRC / "atomol" / "cli.py").is_file():
        print(f"no atomol sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    env = environment(args.seed)
    print("environment: " + json.dumps(env, sort_keys=True))
    reports = {}
    for name in names:
        report = run_workload(name, args.seed, args.seconds, bool(args.trace),
                              args.size)
        report["environment"] = env
        reports[name] = report
        print_report(name, report)
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")

    unlisted = {"fail_ratio"} | {name for name, _ in AS_MEASURED}

    def result_metrics(report, prefix=""):
        return {prefix + key: {"value": entry["value"], "unit": entry["unit"]}
                for key, entry in report["metrics"].items()
                if key not in unlisted}

    if len(names) == 1:
        metrics = result_metrics(reports[names[0]])
    else:
        metrics = {}
        for name in names:
            metrics.update(result_metrics(reports[name], name + "."))
    summary = {
        "correct": all(r["correct"] for r in reports.values()),
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
