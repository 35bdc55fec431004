"""Per-layer metrics from the spans of one traced run.

A layer is an atomol module.  A span's self time is its duration minus
the part covered by its child spans; calls are nested on one thread, so
that is its duration minus the summed durations of its direct children.

Each metric names the wrapped functions it is computed from.  If one of
them no longer exists in the program, the metric is reported as
unmeasured (value 0, listed under "unmeasured") instead of failing.
"""

from __future__ import annotations

import json
from array import array

import numpy as np

from tracer import RHS_NAME

# (name, unit, better); BENCHMARK.json lists the same metrics
PER_LAYER = [
    ("cli.self_s", "s", "lower"),
    ("cli.cpu_s", "s", "lower"),
    ("io.write_s", "s", "lower"),
    ("io.bytes_written", "B", "lower"),
    ("io.rows_written", "count", "lower"),
    ("regimes.scan_self_s", "s", "lower"),
    ("regimes.trace_self_s", "s", "lower"),
    ("regimes.classify_calls", "count", "lower"),
    ("regimes.bisect_probes", "count", "lower"),
    ("regimes.classify_us_p50", "us", "lower"),
    ("regimes.classify_us_p99", "us", "lower"),
    ("fixed_points.root_solves", "count", "lower"),
    ("fixed_points.root_solves_per_classify", "ratio", "lower"),
    ("fixed_points.roots_self_s", "s", "lower"),
    ("fixed_points.interior_self_s", "s", "lower"),
    ("fixed_points.boundary_self_s", "s", "lower"),
    ("integrate.solves", "count", "lower"),
    ("integrate.steps_accepted", "count", "lower"),
    ("integrate.rhs_per_step", "ratio", "lower"),
    ("integrate.us_per_step", "us", "lower"),
    ("integrate.self_s", "s", "lower"),
    ("integrate.events", "count", "lower"),
    ("model.rhs_evals", "count", "lower"),
    ("model.rhs_s", "s", "lower"),
    ("model.rhs_us", "us", "lower"),
    ("experiments.integrations_per_point", "ratio", "lower"),
    ("experiments.self_s", "s", "lower"),
    ("experiments.trajectory_ms_p50", "ms", "lower"),
    ("experiments.trajectory_ms_p75", "ms", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]

# counts that repeat exactly from run to run
EXACT_COUNTS = ["regimes.classify_calls", "regimes.bisect_probes",
                "fixed_points.root_solves", "integrate.solves",
                "integrate.steps_accepted", "integrate.events",
                "model.rhs_evals", "io.rows_written"]

CLASSIFY = "regimes.classify_regime"
SCAN = "regimes.scan_plane"
TRACE_BOUNDARIES = "regimes.trace_boundaries"
ROOTS = "fixed_points.real_cubic_roots"
INTERIOR = "fixed_points.interior_fixed_points"
BOUNDARY = "fixed_points.boundary_fixed_point"

# metric -> the wrapped functions it is computed from
NEEDS = {
    "cli.self_s": {"cli.main"},
    "io.write_s": {"io.write_table", "io.write_json"},
    "regimes.scan_self_s": {SCAN},
    "regimes.trace_self_s": {TRACE_BOUNDARIES},
    "regimes.classify_calls": {CLASSIFY},
    "regimes.bisect_probes": {CLASSIFY, TRACE_BOUNDARIES},
    "regimes.classify_us_p50": {CLASSIFY},
    "regimes.classify_us_p99": {CLASSIFY},
    "fixed_points.root_solves": {ROOTS},
    "fixed_points.root_solves_per_classify": {ROOTS, CLASSIFY},
    "fixed_points.roots_self_s": {ROOTS},
    "fixed_points.interior_self_s": {INTERIOR},
    "fixed_points.boundary_self_s": {BOUNDARY},
}
# need an integrate function that takes an RHS `f`
SOLVER_METRICS = {"integrate.solves", "integrate.self_s", "model.rhs_evals",
                  "model.rhs_s", "model.rhs_us",
                  "experiments.integrations_per_point"}
# also need the solver to return (times, states, event_state)
STEP_METRICS = {"integrate.steps_accepted", "integrate.rhs_per_step",
                "integrate.us_per_step", "integrate.events"}
EXPERIMENT_METRICS = {"experiments.integrations_per_point",
                      "experiments.self_s", "experiments.trajectory_ms_p50",
                      "experiments.trajectory_ms_p75"}


def load_trace(path) -> dict:
    """Read a span file written by tracer.Tracer.dump."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["n_spans"]
        cols = {}
        for spec in header["arrays"]:
            key, code = spec.split(":")
            arr = array(code)
            arr.fromfile(fh, n)
            cols[key] = np.frombuffer(arr, dtype=np.int32 if code == "i" else np.int64)
    names = header["names"]
    unique = sorted(set(names))
    gid_of_idx = np.array([unique.index(nm) for nm in names], dtype=np.int64)
    gid = gid_of_idx[cols["name_idx"]] if n else np.zeros(0, dtype=np.int64)
    dur = (cols["end"] - cols["start"]).astype(np.float64) * 1e-9
    parent = cols["parent"]
    has_parent = parent >= 0
    child_sum = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=n)
    return {
        "run_id": header["run_id"],
        "wrapped": set(header["wrapped"]),
        "solvers": set(header["solvers"]),
        "solves": header["solves"],
        "names": unique,
        "gid": gid,
        "parent": parent,
        "dur": dur,
        "self": dur - child_sum,
        "n": n,
    }


def _mask(trace, pred) -> np.ndarray:
    ids = [k for k, nm in enumerate(trace["names"]) if pred(nm)]
    return np.isin(trace["gid"], ids)


def _name_mask(trace, name) -> np.ndarray:
    return _mask(trace, lambda nm: nm == name)


def _module_mask(trace, module) -> np.ndarray:
    return _mask(trace, lambda nm: nm != RHS_NAME and nm.split(".")[0] == module)


def _parent_in(trace, mask) -> np.ndarray:
    """Spans whose direct parent is in mask."""
    parent = trace["parent"]
    return np.where(parent >= 0, mask[np.maximum(parent, 0)], False)


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0


def _percentile(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _under(trace, ids, ancestor_mask) -> np.ndarray:
    """Which of the spans `ids` have an ancestor in ancestor_mask."""
    parent = trace["parent"]
    hit = np.zeros(len(ids), dtype=bool)
    p = parent[ids]
    while np.any(p >= 0):
        live = p >= 0
        hit[live] |= ancestor_mask[p[live]]
        p = np.where(live, parent[np.maximum(p, 0)], -1)
    return hit


def layer_metrics(trace: dict, items: int, untraced: dict, traced: dict,
                  io_stats: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics {name: value} and the names left unmeasured."""
    dur, self_t = trace["dur"], trace["self"]
    m: dict[str, float] = {}

    def layer_self(module):
        return float(self_t[_module_mask(trace, module)].sum())

    m["cli.self_s"] = layer_self("cli")
    m["cli.cpu_s"] = untraced["cpu_s"]
    writes = _mask(trace, lambda nm: nm.startswith("io.write"))
    m["io.write_s"] = float(dur[writes & ~_parent_in(trace, _module_mask(trace, "io"))].sum())
    m["io.bytes_written"] = io_stats["bytes"]
    m["io.rows_written"] = io_stats["rows"]

    classify = _name_mask(trace, CLASSIFY)
    classify_ids = np.flatnonzero(classify)
    m["regimes.scan_self_s"] = float(self_t[_name_mask(trace, SCAN)].sum())
    m["regimes.trace_self_s"] = float(self_t[_name_mask(trace, TRACE_BOUNDARIES)].sum())
    m["regimes.classify_calls"] = len(classify_ids)
    m["regimes.bisect_probes"] = int(_under(
        trace, classify_ids, _name_mask(trace, TRACE_BOUNDARIES)).sum())
    m["regimes.classify_us_p50"] = _percentile(dur[classify] * 1e6, 50)
    m["regimes.classify_us_p99"] = _percentile(dur[classify] * 1e6, 99)

    roots = _name_mask(trace, ROOTS)
    m["fixed_points.root_solves"] = int(roots.sum())
    m["fixed_points.root_solves_per_classify"] = _ratio(roots.sum(), len(classify_ids))
    m["fixed_points.roots_self_s"] = float(self_t[roots].sum())
    m["fixed_points.interior_self_s"] = float(self_t[_name_mask(trace, INTERIOR)].sum())
    m["fixed_points.boundary_self_s"] = float(self_t[_name_mask(trace, BOUNDARY)].sum())

    solver = _mask(trace, lambda nm: nm in trace["solvers"])
    rhs = _name_mask(trace, RHS_NAME)
    solves = trace["solves"]
    steps = sum(samples - 1 - int(event) for _, samples, event in solves)
    m["integrate.solves"] = int(solver.sum())
    m["integrate.steps_accepted"] = steps
    m["integrate.rhs_per_step"] = _ratio(rhs.sum(), steps)
    m["integrate.us_per_step"] = _ratio(dur[solver].sum() * 1e6, steps)
    m["integrate.self_s"] = layer_self("integrate")
    m["integrate.events"] = sum(int(event) for _, _, event in solves)
    m["model.rhs_evals"] = int(rhs.sum())
    m["model.rhs_s"] = float(dur[rhs].sum())
    m["model.rhs_us"] = _ratio(dur[rhs].sum() * 1e6, rhs.sum())

    exp = _module_mask(trace, "experiments")
    # one trajectory: one call from experiments into integrate
    traj_ms = dur[_module_mask(trace, "integrate") & _parent_in(trace, exp)] * 1e3
    m["experiments.integrations_per_point"] = _ratio(m["integrate.solves"], items)
    m["experiments.self_s"] = float(self_t[exp].sum())
    m["experiments.trajectory_ms_p50"] = _percentile(traj_ms, 50)
    m["experiments.trajectory_ms_p75"] = _percentile(traj_ms, 75)

    m["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    m["trace.spans"] = trace["n"]

    wrapped = trace["wrapped"]
    unmeasured = {k for k, need in NEEDS.items() if not need <= wrapped}
    if not trace["solvers"]:
        unmeasured |= SOLVER_METRICS | STEP_METRICS
    elif m["integrate.solves"] and not solves:
        unmeasured |= STEP_METRICS
    if not any(nm.startswith("experiments.") for nm in wrapped):
        unmeasured |= EXPERIMENT_METRICS
    for key in unmeasured:
        m[key] = 0.0
    return m, sorted(unmeasured)
