"""Output checks, reference values and fingerprints for each workload.

Each `check_<workload>(outdir, params)` reads the files one CLI run
wrote and returns a list of problems; an empty list means the output is
correct.  The checks test properties every correct run has, whatever
the seed.  At the default seed the run is also compared with the values
stored in reference.json, within the tolerances stored there.

Fingerprints are sha256 digests of the data files (never of
manifest.json, which carries a timestamp).  A changed fingerprint is
reported, not counted as a failure: a legitimate change of the step
sequence changes the last bits of the data.

To record the reference after a deliberate change of the program's
results, run one untraced benchmark run at the default seed, keep its
output directory and call

    python3 bench/checks.py --record <workload> <outdir>
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

CENSUS_LABELS = {"I", "II", "III", "IV", "boundary", "none"}
# regime label -> the interior fixed-point count it implies
CENSUS_COUNT = {"I": 1, "IV": 1, "II": 3, "III": 2, "none": 0}
POLE_S = 1.0 - 1e-12        # EPS_POLE guard of the reduced flow
POLE_S_TOL = 1e-12
RESIDUAL_MAX = 1e-9
M_REL_TOL = 1e-9            # m against (w - w0)/w0 from the written rows
MIN_BASELINE_W = 1e-12


def _read_csv(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path.name} is empty")
    return rows[0], rows[1:]


def _as_bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"not a boolean: {text!r}")
    return text == "true"


def _guard(check):
    """Turn a parse error in a check into a reported problem."""
    def wrapper(outdir, params):
        try:
            return check(Path(outdir), params)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]
    wrapper.__name__ = check.__name__
    wrapper.__doc__ = check.__doc__
    return wrapper


@_guard
def check_census(outdir: Path, params: dict) -> list[str]:
    """cells.csv and boundaries.json of `atomol regimes`."""
    problems = []
    c_min, c_max, r_min, r_max = params["window"]
    nc, nr = params["resolution"]
    omega = params["omega"]
    c_axis = np.linspace(c_min, c_max, nc)
    r_axis = np.linspace(r_min, r_max, nr)
    header, rows = _read_csv(outdir / "cells.csv")
    if header != ["c", "r", "label", "n_interior", "has_boundary_fp"]:
        return [f"cells.csv header {header}"]
    if len(rows) != nc * nr:
        return [f"cells.csv has {len(rows)} rows, expected {nc * nr}"]
    for k, row in enumerate(rows):
        i, j = divmod(k, nr)
        c, r = float(row[0]), float(row[1])
        if c != float(c_axis[i]) or r != float(r_axis[j]):
            problems.append(f"row {k}: ({c}, {r}) is not cell ({i}, {j}) "
                            "in row-major order")
        label, n_int = row[2], int(row[3])
        if label not in CENSUS_LABELS:
            problems.append(f"row {k}: unknown label {label!r}")
        elif label in CENSUS_COUNT and CENSUS_COUNT[label] != n_int:
            problems.append(f"row {k}: label {label} with n_interior {n_int}")
        has_bfp = _as_bool(row[4])
        if has_bfp != (abs(math.sqrt(2.0) * (c + r)) <= omega):
            problems.append(f"row {k}: has_boundary_fp {has_bfp} contradicts "
                            "|sqrt2 (C+R)| <= Omega")
        if len(problems) > 20:
            break
    bnd = json.loads((outdir / "boundaries.json").read_text(encoding="utf-8"))
    slack = 1e-12 * max(1.0, abs(c_min), abs(c_max), abs(r_min), abs(r_max))
    for n, poly in enumerate(bnd["polylines"]):
        for c, r in poly["points"]:
            if not (c_min - slack <= c <= c_max + slack
                    and r_min - slack <= r <= r_max + slack):
                problems.append(f"polyline {n}: point ({c}, {r}) outside "
                                "the window")
                break
    return problems


@_guard
def check_sweep(outdir: Path, params: dict) -> list[str]:
    """efficiency.csv of `atomol sweep`."""
    problems = []
    header, rows = _read_csv(outdir / "efficiency.csv")
    if header != ["beta", "gamma", "w", "m", "m_defined", "molecular_fraction"]:
        return [f"efficiency.csv header {header}"]
    expected = [(b, g) for b in params["betas"] for g in params["gammas"]]
    if len(rows) != len(expected):
        return [f"efficiency.csv has {len(rows)} rows, expected {len(expected)}"]
    baseline = {}
    for (beta, gamma), row in zip(expected, rows):
        if (float(row[0]), float(row[1])) != (beta, gamma):
            problems.append(f"row ({row[0]}, {row[1]}) is not ({beta}, {gamma})")
        if gamma == 0.0:
            baseline[beta] = float(row[2])
    for (beta, gamma), row in zip(expected, rows):
        w = float(row[2])
        where = f"beta={beta} gamma={gamma}"
        if not (math.isfinite(w) and 0.0 <= w <= 0.5):
            problems.append(f"{where}: w = {w} outside [0, 0.5]")
            continue
        if float(row[5]) != 2.0 * w:
            problems.append(f"{where}: molecular_fraction {row[5]} != 2w")
        defined = _as_bool(row[4])
        if gamma == 0.0:
            if not defined or float(row[3]) != 0.0:
                problems.append(f"{where}: zero-loss row has m = {row[3]!r}")
            continue
        w0 = baseline.get(beta)
        if w0 is None:
            problems.append(f"{where}: no zero-loss row for this beta")
            continue
        if w0 <= MIN_BASELINE_W:
            if defined or row[3] != "":
                problems.append(f"{where}: m defined over baseline w0 = {w0}")
            continue
        want = (w - w0) / w0
        if not defined or abs(float(row[3]) - want) > M_REL_TOL * max(1.0, abs(want)):
            problems.append(f"{where}: m = {row[3]!r}, (w - w0)/w0 = {want!r}")
    return problems


@_guard
def check_portrait(outdir: Path, params: dict) -> list[str]:
    """portrait.csv, fixed_points.csv and portrait_summary.json."""
    problems = []
    n_traj = params["n_s"] * params["n_theta"]
    t_span = params["t_span"]
    header, rows = _read_csv(outdir / "portrait.csv")
    if header != ["traj_id", "t", "s", "theta"]:
        return [f"portrait.csv header {header}"]
    events = json.loads((outdir / "portrait_summary.json")
                        .read_text(encoding="utf-8"))["pole_events"]
    if len(events) != n_traj:
        problems.append(f"{len(events)} pole-event entries, expected {n_traj}")
    ids = np.array([int(r[0]) for r in rows])
    t = np.array([float(r[1]) for r in rows])
    s = np.array([float(r[2]) for r in rows])
    if not np.all(np.isfinite(t)) or not np.all(np.isfinite(s)):
        problems.append("non-finite t or S")
    if np.any(np.abs(s) > 1.0):
        problems.append(f"|S| > 1 in {int(np.sum(np.abs(s) > 1.0))} rows")
    if ids.size == 0 or np.any(np.diff(ids) < 0) or np.any(np.diff(ids) > 1) \
            or ids[0] != 0 or ids[-1] != n_traj - 1:
        return problems + ["trajectory ids are not 0..n-1 in order"]
    cuts = np.flatnonzero(np.diff(ids)) + 1
    for k, (lo, hi) in enumerate(zip(np.r_[0, cuts], np.r_[cuts, ids.size])):
        tk, sk = t[lo:hi], s[lo:hi]
        if tk[0] != 0.0 or np.any(np.diff(tk) <= 0.0):
            problems.append(f"trajectory {k}: t does not increase from 0")
            continue
        ev = events[k] if k < len(events) else None
        if ev is None:
            if abs(tk[-1] - t_span) > 1e-12 * t_span:
                problems.append(f"trajectory {k}: ends at t = {tk[-1]} "
                                f"without a pole event")
        elif not (ev["time"] == tk[-1] and ev["s"] == sk[-1]
                  and sk[-1] >= POLE_S - POLE_S_TOL):
            problems.append(f"trajectory {k}: pole event {ev} does not match "
                            f"the last row (t={tk[-1]}, S={sk[-1]})")
    fp_header, fp_rows = _read_csv(outdir / "fixed_points.csv")
    col = fp_header.index("residual")
    for row in fp_rows:
        if not float(row[col]) < RESIDUAL_MAX:
            problems.append(f"fixed point S={row[0]}: residual {row[col]}")
    return problems


CHECKS = {"census": check_census, "sweep": check_sweep,
          "portrait": check_portrait}


def reference_values(workload: str, outdir) -> dict:
    """The values compared with reference.json at the default seed."""
    outdir = Path(outdir)
    if workload == "census":
        _, rows = _read_csv(outdir / "cells.csv")
        return {"label_counts": dict(sorted(Counter(r[2] for r in rows).items()))}
    if workload == "sweep":
        _, rows = _read_csv(outdir / "efficiency.csv")
        return {"w": [[float(r[0]), float(r[1]), float(r[2])] for r in rows]}
    events = json.loads((outdir / "portrait_summary.json")
                        .read_text(encoding="utf-8"))["pole_events"]
    return {"pole_events": [[k, ev["time"]] for k, ev in enumerate(events)
                            if ev is not None]}


def compare_reference(workload: str, outdir, reference: dict) -> list[str]:
    """Problems against the stored reference values of one workload."""
    try:
        got = reference_values(workload, outdir)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
    tol = reference["tolerance"]
    want = reference["values"]
    problems = []
    if workload == "census":
        labels = set(got["label_counts"]) | set(want["label_counts"])
        for lab in sorted(labels):
            a = got["label_counts"].get(lab, 0)
            b = want["label_counts"].get(lab, 0)
            if abs(a - b) > tol["label_count"]:
                problems.append(f"label {lab}: {a} cells, reference {b}")
    elif workload == "sweep":
        if len(got["w"]) != len(want["w"]):
            return [f"{len(got['w'])} sweep rows, reference {len(want['w'])}"]
        for (b, g, w), (_, _, w_ref) in zip(got["w"], want["w"]):
            if abs(w - w_ref) > tol["w_abs"]:
                problems.append(f"beta={b} gamma={g}: w = {w!r}, "
                                f"reference {w_ref!r}")
    else:
        ids = [k for k, _ in got["pole_events"]]
        ref_ids = [k for k, _ in want["pole_events"]]
        if ids != ref_ids:
            return [f"pole events on trajectories {ids}, reference {ref_ids}"]
        for (k, t), (_, t_ref) in zip(got["pole_events"], want["pole_events"]):
            if abs(t - t_ref) > tol["time_abs"]:
                problems.append(f"trajectory {k}: pole at t = {t!r}, "
                                f"reference {t_ref!r}")
    return problems


def fingerprints(outdir) -> dict[str, str]:
    """sha256 of every data file (manifest.json excluded)."""
    out = {}
    for path in sorted(Path(outdir).iterdir()):
        if path.is_file() and path.name != "manifest.json":
            out[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def _record(workload: str, outdir: str) -> None:
    ref = load_reference() if REFERENCE_PATH.exists() else {}
    entry = ref.setdefault(workload, {})
    entry["values"] = reference_values(workload, outdir)
    entry["fingerprints"] = fingerprints(outdir)
    REFERENCE_PATH.write_text(json.dumps(ref, indent=2, sort_keys=True) + "\n",
                              encoding="utf-8")


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] != "--record" or sys.argv[2] not in CHECKS:
        sys.exit("usage: python3 bench/checks.py --record <workload> <outdir>")
    _record(sys.argv[2], sys.argv[3])
