"""Tests of the benchmark itself.

    python3 -m pytest bench/

Smoke runs of every workload at tiny size, the output checks against
corrupted outputs, exact repetition of the traced counts, and the
failure modes a benchmark run must have.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import child  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

SEED = 7


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def tiny_outputs(tmp_path_factory):
    """Output directories of one tiny CLI run per workload."""
    base = tmp_path_factory.mktemp("outputs")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = {}
    for name in run.WORKLOADS:
        spec = run.workload_spec(name, SEED, "tiny")
        outdir = base / name
        subprocess.run([sys.executable, "-m", "atomol", *spec["argv"],
                        "--output", str(outdir)], env=env, check=True,
                       capture_output=True, timeout=120)
        out[name] = (outdir, spec)
    return out


def _copy(tiny_outputs, name, tmp_path):
    outdir, spec = tiny_outputs[name]
    dest = tmp_path / name
    shutil.copytree(outdir, dest)
    return dest, spec


def _edit_csv(path, edit):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(edit(lines)) + "\n")


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_default_seed_gives_the_documented_gammas():
    for k in range(3):
        assert run.workload_spec("census", 0, child=k)["params"]["gamma"] == 0.6
        assert run.workload_spec("sweep", 0, child=k)["params"]["gammas"] == [-0.5, 0.0, 0.5]
        assert run.workload_spec("portrait", 0, child=k)["params"]["gamma"] == 0.0
    assert run.workload_spec("census", 5, child=2) == run.workload_spec("census", 5, child=2)
    for seed in range(1, 30):
        for k in range(10):
            assert 0.3 <= run.workload_spec("census", seed, child=k)["params"]["gamma"] <= 0.9
            assert 0.3 <= run.workload_spec("sweep", seed, child=k)["params"]["gammas"][2] <= 0.7
            assert -0.4 <= run.workload_spec("portrait", seed, child=k)["params"]["gamma"] <= 0.4


def test_children_of_a_run_spread_over_the_gamma_range():
    for seed in range(1, 30):
        gammas = [run.workload_spec("portrait", seed, child=k)["params"]["gamma"]
                  for k in range(8)]
        assert min(gammas) < -0.2 and max(gammas) > 0.2


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_smoke_run(workload):
    res = _result(_bench("--workload", workload, "--size", "tiny",
                         "--seconds", "1", "--seed", str(SEED), "--trace", "0"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert list(res["metrics"]) == [n for n, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in res["metrics"].values())
    report = json.loads((ROOT / ".bench_results" /
                         f"{workload}-seed{SEED}-trace0.json").read_text())
    for name, _ in run.AS_MEASURED:
        assert report["metrics"][name]["value"] > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_clean_outputs_pass(tiny_outputs, workload):
    outdir, spec = tiny_outputs[workload]
    assert checks.CHECKS[workload](outdir, spec["params"]) == []


def test_flipped_label_fails(tiny_outputs, tmp_path):
    outdir, spec = _copy(tiny_outputs, "census", tmp_path)

    def flip(lines):
        for k, line in enumerate(lines[1:], start=1):
            c, r, label, n_int, bfp = line.split(",")
            if label in ("I", "IV"):
                lines[k] = ",".join([c, r, "II", n_int, bfp])
                return lines
        raise AssertionError("no single-point cell to flip")

    _edit_csv(outdir / "cells.csv", flip)
    assert checks.check_census(outdir, spec["params"])


def test_perturbed_w_fails(tiny_outputs, tmp_path):
    outdir, spec = _copy(tiny_outputs, "sweep", tmp_path)

    def perturb(lines):
        beta, gamma, w, *rest = lines[1].split(",")
        lines[1] = ",".join([beta, gamma, repr(float(w) * (1 + 1e-6)), *rest])
        return lines

    _edit_csv(outdir / "efficiency.csv", perturb)
    assert checks.check_sweep(outdir, spec["params"])


def test_truncated_portrait_fails(tiny_outputs, tmp_path):
    outdir, spec = _copy(tiny_outputs, "portrait", tmp_path)
    _edit_csv(outdir / "portrait.csv", lambda lines: lines[:-5])
    assert checks.check_portrait(outdir, spec["params"])


def test_missing_file_is_a_problem_not_a_crash(tiny_outputs, tmp_path):
    outdir, spec = _copy(tiny_outputs, "portrait", tmp_path)
    (outdir / "fixed_points.csv").unlink()
    assert checks.check_portrait(outdir, spec["params"])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_reference_comparison(tiny_outputs, tmp_path, workload):
    outdir, _ = _copy(tiny_outputs, workload, tmp_path)
    reference = {"values": checks.reference_values(workload, outdir),
                 "tolerance": {"label_count": 0, "w_abs": 1e-7,
                               "time_abs": 1e-7}}
    assert checks.compare_reference(workload, outdir, reference) == []
    if workload == "census":
        reference["values"]["label_counts"]["III"] = 10 ** 6
    elif workload == "sweep":
        reference["values"]["w"][0][2] += 1e-3
    else:
        reference["values"]["pole_events"].append([99, 1.0])
    assert checks.compare_reference(workload, outdir, reference)


def test_two_traced_runs_give_identical_counts():
    counts = []
    for _ in range(2):
        res = _result(_bench("--workload", "census", "--size", "tiny",
                             "--seed", str(SEED), "--trace", "1"))
        assert res["correct"]
        assert [n for n, _, _ in layers.PER_LAYER] == list(res["metrics"])
        counts.append({k: res["metrics"][k]["value"] for k in layers.EXACT_COUNTS})
    assert counts[0] == counts[1]
    assert counts[0]["regimes.classify_calls"] > 144
    assert counts[0]["fixed_points.root_solves"] > 0


def test_traced_portrait_counts_solver_work():
    res = _result(_bench("--workload", "portrait", "--size", "tiny",
                         "--seed", str(SEED), "--trace", "1"))
    m = {k: v["value"] for k, v in res["metrics"].items()}
    for key in ("integrate.solves", "integrate.steps_accepted",
                "model.rhs_evals", "experiments.trajectory_ms_p50"):
        assert m[key] > 0, key
    assert m["regimes.classify_calls"] == 0


def test_untraced_child_never_imports_the_tracer(tmp_path):
    spec = run.workload_spec("portrait", SEED, "tiny")
    result = tmp_path / "child.json"
    subprocess.run([sys.executable, str(BENCH / "child.py"), "--src",
                    str(ROOT / "src"), "--result", str(result), "--",
                    *spec["argv"], "--output", str(tmp_path / "out")],
                   check=True, capture_output=True, timeout=120)
    stamps = json.loads(result.read_text())
    assert stamps["tracer_loaded"] is False
    assert stamps["rc"] == 0 and stamps["main_ns"] > stamps["ready_ns"]
    assert len(stamps["calib_s"]) >= 2 * child.CAL_REPS
    assert stamps["calib_total_s"] >= sum(stamps["calib_s"]) > 0


def test_time_metrics_are_at_the_reference_speed(tmp_path):
    spec = run.workload_spec("census", SEED, "tiny")
    sample, _ = run.run_workload_child(spec, tmp_path, None)
    assert sample["ok"], sample["problems"]
    # the calibration is taken out of the child's wall and CPU time
    assert 0 < sample["wall_s"] < sample["elapsed_s"]
    assert sample["host_speed"] > 0
    busy = (sample["wall_s"] - sample["setup_s"]) * sample["host_speed"]
    assert sample["items_per_s"] == pytest.approx(spec["items"] / busy)


def test_missing_wrapped_names_are_unmeasured():
    empty = np.zeros(0, dtype=np.int64)
    trace = {"wrapped": {"cli.main", "regimes.classify_regime",
                         "regimes.scan_plane", "regimes.trace_boundaries"},
             "solvers": set(), "solves": [], "names": [], "gid": empty,
             "parent": empty, "dur": empty.astype(float),
             "self": empty.astype(float), "n": 0}
    sample = {"wall_s": 1.0, "cpu_s": 1.0}
    values, unmeasured = layers.layer_metrics(trace, 10, sample, sample,
                                              {"bytes": 0, "rows": 0})
    assert "integrate.steps_accepted" in unmeasured
    assert "model.rhs_evals" in unmeasured
    assert "fixed_points.root_solves" in unmeasured
    assert "regimes.classify_calls" not in unmeasured
    assert set(values) == {n for n, _, _ in layers.PER_LAYER}


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "portrait", "--size", "tiny", "--seconds", "1",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
