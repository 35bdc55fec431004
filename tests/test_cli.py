"""Command-line driver: outputs, configs, manifests, exit codes."""

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomol import cli, integrate
from atomol.cli import main
from atomol.experiments import (
    PORTRAIT_N_T,
    PORTRAIT_THINNING,
    SweepProtocol,
    default_ic_grid,
)
from atomol.io import (
    SCHEMA,
    ConfigError,
    default_config,
    load_config,
    resolve_config,
)
from atomol.model import NumericalError, ReducedParams

from oracles import serialize_config, solve_adaptive, sweep_rhs

SQRT6 = math.sqrt(6.0)
SRC = Path(__file__).resolve().parents[1] / "src"


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def column(header, rows, name, conv=float):
    k = header.index(name)
    return [conv(row[k]) for row in rows]


class TestConfigRoundTrip:
    def test_parse_serialize_identity(self, tmp_path):
        cfg = default_config()
        cfg["model.v"] = 1.25
        cfg["sweep.betas"] = [0.1, 0.7]
        cfg["integrator.rtol"] = 3e-9
        cfg["output.format"] = "json"
        text = serialize_config(cfg)
        path = tmp_path / "run.ini"
        path.write_text(text)
        parsed = load_config(path)
        assert resolve_config(parsed) == cfg

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[model]\nspeed = 3\n")
        with pytest.raises(ConfigError, match="speed"):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[universe]\nanswer = 42\n")
        with pytest.raises(ConfigError, match="universe"):
            load_config(path)

    def test_bad_value_reports_field(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[model]\nv = fast\n")
        with pytest.raises(ConfigError, match=r"\[model\] v"):
            load_config(path)


# every subcommand's option strings, pinned because bench/run.py and
# saved command lines use them
OPTION_STRINGS = {
    "evolve": ["-h", "--help", "--config", "--from-manifest", "--v", "--u",
               "--r", "--gamma-a", "--gamma-b", "--rtol", "--atol",
               "--t-final", "--a0-sq", "--theta0", "--output", "--format"],
    "fixed-points": ["-h", "--help", "--config", "--from-manifest", "--c",
                     "--omega", "--r", "--gamma", "--output", "--format"],
    "regimes": ["-h", "--help", "--config", "--from-manifest", "--omega",
                "--gamma", "--refine-tol", "--output", "--format",
                "--window", "--resolution"],
    "sweep": ["-h", "--help", "--config", "--from-manifest", "--v", "--u",
              "--r-max", "--rtol", "--atol", "--output", "--format",
              "--beta", "--gamma"],
    "trap": ["-h", "--help", "--config", "--from-manifest", "--v", "--u",
             "--r", "--gamma", "--a0-sq", "--theta0", "--t-span", "--rtol",
             "--atol", "--output", "--format"],
    "portrait": ["-h", "--help", "--config", "--from-manifest", "--c",
                 "--omega", "--r", "--gamma", "--t-span", "--n-s",
                 "--n-theta", "--rtol", "--atol", "--output", "--format"],
}


class TestFlagTable:
    def test_every_flag_key_is_a_config_key(self):
        for keys in [*cli._FLAGS.values(), cli._COMMON_KEYS]:
            for key in keys:
                section, name = key.split(".")
                assert name in SCHEMA[section], key

    def test_option_strings_are_unchanged(self):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert sorted(sub.choices) == sorted(OPTION_STRINGS)
        for command, sp in sub.choices.items():
            options = [o for a in sp._actions for o in a.option_strings]
            # only the help order may differ
            assert sorted(options) == sorted(OPTION_STRINGS[command]), command
            assert len(options) == len(set(options)), command


class TestEvolveCommand:
    def test_trajectory_output(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["evolve", "--t-final", "10", "--output", str(out)])
        assert rc == 0
        header, rows = read_csv(out / "trajectory.csv")
        assert header == ["t", "re_a", "im_a", "re_b", "im_b", "n", "s",
                          "theta", "hx", "hy", "hz", "energy"]
        ts = column(header, rows, "t")
        assert all(a < b for a, b in zip(ts, ts[1:]))
        assert ts[-1] == 10.0
        # zero-loss run conserves the particle number
        ns = column(header, rows, "n")
        assert max(abs(n - ns[0]) for n in ns) < 1e-8

    def test_manifest_echoes_parameters(self, tmp_path):
        out = tmp_path / "run"
        main(["evolve", "--t-final", "2", "--u", "1.5", "--gamma-a", "0.3",
              "--output", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "evolve"
        assert manifest["parameters"]["model.u"] == 1.5
        assert manifest["parameters"]["model.gamma_a"] == 0.3
        assert manifest["derived"]["gamma_plus"] == 0.15
        assert manifest["derived"]["gamma_minus"] == 0.15
        assert manifest["outputs"] == ["trajectory.csv"]

    def test_rerun_from_manifest_is_byte_identical(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        main(["evolve", "--t-final", "3", "--u", "2.0", "--a0-sq", "0.7",
              "--output", str(out1)])
        rc = main(["evolve", "--from-manifest", str(out1 / "manifest.json"),
                   "--output", str(out2)])
        assert rc == 0
        assert (out1 / "trajectory.csv").read_bytes() == \
            (out2 / "trajectory.csv").read_bytes()

    def test_manifest_command_mismatch(self, tmp_path):
        out = tmp_path / "run"
        main(["evolve", "--t-final", "1", "--output", str(out)])
        rc = main(["trap", "--from-manifest", str(out / "manifest.json"),
                   "--output", str(tmp_path / "x")])
        assert rc == 2

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[model]\nr = 1.0\n[integrator]\nt_final = 2.0\n")
        out = tmp_path / "run"
        rc = main(["evolve", "--config", str(cfg), "--r", "0.25",
                   "--output", str(out)])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parameters"]["model.r"] == 0.25  # flag wins
        assert manifest["parameters"]["integrator.t_final"] == 2.0

    def test_json_format(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["evolve", "--t-final", "1", "--format", "json",
                   "--output", str(out)])
        assert rc == 0
        records = json.loads((out / "trajectory.json").read_text())
        assert records[0]["t"] == 0.0 and "energy" in records[0]

    def test_floats_round_trip_through_csv(self, tmp_path):
        out = tmp_path / "run"
        main(["evolve", "--t-final", "1", "--output", str(out)])
        header, rows = read_csv(out / "trajectory.csv")
        for row in rows[:20]:
            for text in row:
                assert repr(float(text)) == text


class TestFixedPointsCommand:
    def test_analytic_pair(self, tmp_path):
        out = tmp_path / "fp"
        rc = main(["fixed-points", "--c", "0", "--omega", "1", "--gamma", "1",
                   "--output", str(out)])
        assert rc == 0
        header, rows = read_csv(out / "fixed_points.csv")
        assert header == ["s", "theta", "kind", "eig1_re", "eig1_im",
                          "eig2_re", "eig2_im", "residual", "on_boundary"]
        interior = [r for r in rows if r[header.index("on_boundary")] == "false"]
        assert len(interior) == 2
        thetas = sorted(float(r[header.index("theta")]) for r in interior)
        assert thetas[0] == pytest.approx(math.pi + math.asin(1.0 / SQRT6),
                                          abs=1e-9)
        assert thetas[1] == pytest.approx(2.0 * math.pi - math.asin(1.0 / SQRT6),
                                          abs=1e-9)
        for r in interior:
            assert float(r[header.index("s")]) == pytest.approx(1.0 / 3.0,
                                                                abs=1e-9)

    def test_census_kinds(self, tmp_path):
        out = tmp_path / "fp"
        main(["fixed-points", "--c", "2", "--omega", "1", "--gamma", "0",
              "--output", str(out)])
        header, rows = read_csv(out / "fixed_points.csv")
        interior = [r for r in rows if r[header.index("on_boundary")] == "false"]
        kinds = sorted(r[header.index("kind")] for r in interior)
        assert kinds == ["center", "center", "saddle"]

    def test_no_boundary_row_when_absent(self, tmp_path):
        out = tmp_path / "fp"
        main(["fixed-points", "--c", "0", "--r", "1", "--omega", "1",
              "--gamma", "0", "--output", str(out)])
        header, rows = read_csv(out / "fixed_points.csv")
        assert len(rows) == 1
        assert rows[0][header.index("on_boundary")] == "false"


class TestRegimesCommand:
    def test_small_scan(self, tmp_path):
        out = tmp_path / "reg"
        rc = main(["regimes", "--resolution", "21,29", "--output", str(out)])
        assert rc == 0
        header, rows = read_csv(out / "cells.csv")
        assert header == ["c", "r", "label", "n_interior", "has_boundary_fp"]
        labels = {r[header.index("label")] for r in rows}
        assert {"I", "II", "III", "IV"} <= labels
        boundaries = json.loads((out / "boundaries.json").read_text())
        assert boundaries["polylines"]
        assert boundaries["boundary_fp_exists"]
        for curve in boundaries["boundary_fp_exists"]:
            for c, r in curve[::5]:
                assert abs(math.sqrt(2.0) * (c + r)) == pytest.approx(
                    1.0, abs=1e-9)

    def test_loss_compresses_regime_three(self, tmp_path):
        counts = {}
        for gamma in ("0", "1.2"):
            out = tmp_path / f"reg{gamma}"
            main(["regimes", "--resolution", "21", "--gamma", gamma,
                  "--output", str(out)])
            header, rows = read_csv(out / "cells.csv")
            counts[gamma] = sum(1 for r in rows
                                if r[header.index("label")] == "III")
        assert counts["1.2"] < counts["0"]

    def test_window_flag(self, tmp_path):
        out = tmp_path / "reg"
        rc = main(["regimes", "--window", "0,1,-1,1", "--resolution", "5",
                   "--output", str(out)])
        assert rc == 0
        header, rows = read_csv(out / "cells.csv")
        cs = column(header, rows, "c")
        rs = column(header, rows, "r")
        assert min(cs) == 0.0 and max(cs) == 1.0
        assert min(rs) == -1.0 and max(rs) == 1.0


class TestSweepCommand:
    def test_cardinality_and_ordering(self, tmp_path):
        out = tmp_path / "sw"
        rc = main(["sweep", "--beta", "0.5,1.0", "--gamma=-0.5,0,0.5",
                   "--r-max", "3", "--rtol", "1e-9", "--atol", "1e-9",
                   "--output", str(out)])
        assert rc == 0
        header, rows = read_csv(out / "efficiency.csv")
        assert header == ["beta", "gamma", "w", "m", "m_defined",
                          "molecular_fraction"]
        assert len(rows) == 6
        for beta in ("0.5", "1.0"):
            w = {r[1]: float(r[2]) for r in rows if r[0] == beta}
            assert w["0.5"] > w["0.0"] > w["-0.5"]
        baseline = [r for r in rows if r[1] == "0.0"]
        assert all(float(r[3]) == 0.0 for r in baseline)
        assert all(r[4] == "true" for r in rows)
        for r in rows:
            assert float(r[5]) == pytest.approx(2.0 * float(r[2]), abs=0.0)

    def test_undefined_relative_efficiency_sentinel(self, tmp_path):
        # v = 0 means w = 0 for every run: baseline cannot normalize
        out = tmp_path / "sw"
        rc = main(["sweep", "--v", "0", "--beta", "0.5", "--gamma", "0.4",
                   "--output", str(out)])
        assert rc == 0
        header, rows = read_csv(out / "efficiency.csv")
        assert rows[0][header.index("m")] == ""
        assert rows[0][header.index("m_defined")] == "false"

    def test_default_sweep_pairs_agree(self, tmp_path):
        # the sweep solves with the 8(5,3) pair; the oracle loop's 4(5)
        # pair gives w within 1e-9 at the default tolerance
        out = tmp_path / "sw"
        assert main(["sweep", "--output", str(out)]) == 0
        header, rows = read_csv(out / "efficiency.csv")
        w = [float(r[header.index("w")]) for r in rows]
        cfg, w45 = default_config(), []
        for beta in cfg["sweep.betas"]:
            pr = SweepProtocol(beta=beta, r_max=cfg["sweep.r_max"])
            for gamma in cfg["sweep.gammas"]:
                f = sweep_rhs(cfg["model.u"], cfg["model.v"], gamma, beta,
                              pr._half_duration)
                _, states, _ = solve_adaptive(f, 0.0, (1.0 + 0j, 0j),
                                              pr.duration)
                mod_a, mod_b = map(abs, states[-1])
                w45.append(mod_b * mod_b / (mod_a * mod_a
                                            + 2.0 * mod_b * mod_b))
        assert len(w) == 12
        assert w != w45
        assert max(abs(a - b) for a, b in zip(w, w45)) < 1e-9

    def test_rerun_matches(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        main(["sweep", "--beta", "1.0", "--gamma", "0.5", "--r-max", "2",
              "--output", str(out1)])
        main(["sweep", "--from-manifest", str(out1 / "manifest.json"),
              "--output", str(out2)])
        assert (out1 / "efficiency.csv").read_bytes() == \
            (out2 / "efficiency.csv").read_bytes()


class TestTrapCommand:
    def test_trapped_flag_flips_with_loss_sign(self, tmp_path):
        flags = {}
        for gamma in ("-0.5", "0.5"):
            out = tmp_path / f"trap{gamma}"
            rc = main(["trap", "--u", "1.5", "--gamma", gamma,
                       "--a0-sq", "0.9", "--t-span", "20",
                       "--rtol", "1e-9", "--atol", "1e-9",
                       "--output", str(out)])
            assert rc == 0
            summary = json.loads((out / "summary.json").read_text())
            flags[gamma] = summary["trapped"]
            header, rows = read_csv(out / "population.csv")
            assert header == ["t", "p_atom", "s", "theta"]
        assert flags["-0.5"] is True
        assert flags["0.5"] is False


class TestPortraitCommand:
    def test_portrait_files(self, tmp_path):
        out = tmp_path / "pp"
        rc = main(["portrait", "--c", "0", "--omega", "1", "--gamma", "0",
                   "--n-s", "3", "--n-theta", "4", "--t-span", "5",
                   "--rtol", "1e-8", "--atol", "1e-8", "--output", str(out)])
        assert rc == 0
        header, rows = read_csv(out / "portrait.csv")
        assert header == ["traj_id", "t", "s", "theta"]
        ids = {r[0] for r in rows}
        assert len(ids) == 12
        summary = json.loads((out / "portrait_summary.json").read_text())
        assert len(summary["pole_events"]) == 12
        fp_header, fp_rows = read_csv(out / "fixed_points.csv")
        assert len(fp_rows) >= 2

    def test_portrait_stops_at_the_pole(self, tmp_path):
        # the three starts on the S = 1 side of the grid reach the pole
        # guard: each orbit halts with a pole event there, and every row
        # written is finite
        out = tmp_path / "out"
        rc = main(["portrait", "--n-s", "3", "--n-theta", "4", "--t-span", "5",
                   "--output", str(out)])
        assert rc == 0
        header, rows = read_csv(out / "portrait.csv")
        assert rows and all(math.isfinite(x) for row in rows
                            for x in map(float, row))
        summary = json.loads((out / "portrait_summary.json").read_text())
        events = [e for e in summary["pole_events"] if e is not None]
        assert len(events) == 3
        assert all(1.0 - 1e-9 < e["s"] < 1.0 for e in events)

    def test_each_orbit_is_written_on_the_time_grid(self, tmp_path):
        # every orbit's t column is the grid t_span k / (n_t - 1) up to
        # its end, n_t the cap or a quarter of the solves' mean states
        # per orbit, and an orbit with a pole event ends on its event row
        out = tmp_path / "out"
        t_span = 5.0
        rc = main(["portrait", "--n-s", "3", "--n-theta", "4",
                   "--t-span", repr(t_span), "--output", str(out)])
        assert rc == 0
        cfg = integrate.IntegratorConfig(t_final=t_span)
        q = ReducedParams(c=0.0, omega=1.0, r=0.0, gamma=0.0)
        states = sum(len(integrate.evolve_reduced(s0, theta0, q, cfg).times)
                     for s0, theta0 in default_ic_grid(3, 4))
        n_t = min(PORTRAIT_N_T, max(2, states // 12 // PORTRAIT_THINNING))
        header, rows = read_csv(out / "portrait.csv")
        assert header == ["traj_id", "t", "s", "theta"]
        assert all(abs(float(row[2])) <= 1.0 for row in rows)
        events = json.loads(
            (out / "portrait_summary.json").read_text())["pole_events"]
        assert len(events) == 12 and sum(ev is not None for ev in events) == 3
        grid = [t_span * k / (n_t - 1) for k in range(n_t - 1)] + [t_span]
        orbits = {}
        for row in rows:
            orbits.setdefault(int(row[0]), []).append(
                [float(x) for x in row[1:]])
        assert sorted(orbits) == list(range(12))
        for k, ev in enumerate(events):
            t = [row[0] for row in orbits[k]]
            if ev is None:
                assert t == grid
            else:
                assert t[:-1] == [g for g in grid if g < ev["time"]]
                assert orbits[k][-1] == [ev["time"], ev["s"], ev["theta"]]
        assert len(rows) <= states // PORTRAIT_THINNING + 3


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[model]\nwarp = 9\n")
        rc = main(["evolve", "--config", str(bad),
                   "--output", str(tmp_path / "o")])
        assert rc == 2

    def test_numerical_failure_is_3(self, tmp_path):
        # tolerances far below machine precision stall the controller
        rc = main(["evolve", "--t-final", "1", "--rtol", "1e-300",
                   "--atol", "1e-300", "--u", "2.0", "--a0-sq", "0.6",
                   "--output", str(tmp_path / "o")])
        assert rc == 3

    def test_sweep_step_underflow_is_3(self, tmp_path, capsys):
        # the sweep's solves take the 8(5,3) pair, which must stall the
        # same way
        rc = main(["sweep", "--rtol", "1e-300", "--atol", "1e-300",
                   "--output", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 3
        assert "step size underflow" in err and "Traceback" not in err

    def test_overflow_mid_solve_is_3(self, tmp_path, capsys):
        # the phase overflows inside a solve and math.sin raises a
        # domain error: a numerical failure, not a config error and
        # not a pole event
        rc = main(["portrait", "--omega", "1e300", "--r", "1e300",
                   "--gamma", "1e-12", "--output", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 3
        assert "numerical failure" in err and "config error" not in err
        assert not list((tmp_path / "o").iterdir())  # no data file

    @pytest.mark.parametrize("argv", [
        ["regimes", "--resolution", "20000"],  # 2.2 GiB of grid arrays
    ])
    def test_out_of_memory_is_5(self, tmp_path, argv):
        # a child under a 2 GiB address-space limit, so the run fails
        # the same way on any host; the limit is set in the child only
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run(
            [sys.executable, "-m", "atomol", *argv, "--output",
             str(tmp_path / "o")], env=env, preexec_fn=limit,
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 5, proc.stderr
        assert proc.stderr.startswith("out of memory: ")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("n_s, n_theta", [
        ("100000", "100000"),  # 1e10 starts, 2 GiB before the cap
        (str(cli.MAX_ORBITS + 1), "1"),
    ])
    def test_oversized_portrait_grid_is_2(self, tmp_path, capsys,
                                          monkeypatch, n_s, n_theta):
        def no_grid(*args, **kwargs):
            raise AssertionError("the start grid was built")

        monkeypatch.setattr(cli, "default_ic_grid", no_grid)
        rc = main(["portrait", "--n-s", n_s, "--n-theta", n_theta,
                   "--output", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == (f"config error: [portrait] n_s * n_theta must be <= "
                       f"{cli.MAX_ORBITS} orbits, got {n_s} * {n_theta}\n")

    def test_io_error_is_4(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        rc = main(["evolve", "--t-final", "1",
                   "--output", str(blocker / "sub")])
        assert rc == 4

    def test_bad_format_is_2(self, tmp_path):
        rc = main(["evolve", "--format", "yaml",
                   "--output", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize("argv, field", [
        (["evolve", "--v", "abc"], "[model] v"),
        (["portrait", "--n-s", "x"], "[portrait] n_s"),
        (["sweep", "--beta", "0.1,abc"], "[sweep] betas"),
        (["regimes", "--window", "0,3,x,2"], "[scan] r_min"),
        (["regimes", "--resolution", "3.5"], "[scan] resolution_c"),
    ])
    def test_bad_flag_value_names_its_field(self, tmp_path, capsys, argv,
                                            field):
        # a flag value is parsed and reported as a config-file value is
        rc = main(argv + ["--output", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"config error: bad value for {field}:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, field", [
        (["fixed-points", "--c", "inf"], "c"),
        (["fixed-points", "--gamma", "nan"], "gamma"),
        (["portrait", "--r=-inf"], "r"),
        (["evolve", "--t-final", "inf"], "t_final"),
        (["evolve", "--rtol", "nan"], "rtol"),
        (["sweep", "--r-max", "inf"], "r_max"),
        (["sweep", "--beta", "nan"], "[sweep] betas"),
        (["trap", "--atol", "inf"], "atol"),
        (["portrait", "--omega", "inf"], "omega"),
        (["regimes", "--omega", "nan"], "omega"),
        (["evolve", "--theta0", "nan"], "theta0"),
        (["trap", "--theta0", "inf"], "theta0"),
        (["trap", "--u", "nan"], "u"),
        (["trap", "--gamma", "inf"], "[trap] gamma"),
        # t_span stands in for t_final, but is named as itself
        (["trap", "--t-span", "inf"], "[trap] t_span"),
        (["portrait", "--t-span", "nan"], "[portrait] t_span"),
    ])
    def test_non_finite_input_is_2(self, tmp_path, capsys, monkeypatch,
                                   argv, field):
        # rejected while the run is configured: no solve may start
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve started on non-finite input")

        monkeypatch.setattr(integrate, "solve_adaptive", no_solve)
        rc = main(argv + ["--output", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{field} must be finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--gamma=nan"], "[sweep] gammas must be finite, got nan"),
        (["sweep", "--gamma=0.3,inf"],
         "[sweep] gammas must be finite, got inf"),
        (["sweep", "--beta", "0.5,0"],
         "[sweep] betas must be nonzero, got 0.0"),
        (["sweep", "--r-max", "nan"],
         "[sweep] r_max must be finite and > 0, got nan"),
        (["sweep", "--r-max", "0"],
         "[sweep] r_max must be finite and > 0, got 0.0"),
        (["sweep", "--u", "nan"], "[model] u must be finite, got nan"),
        (["sweep", "--v", "inf"], "[model] v must be finite, got inf"),
        (["sweep", "--v=-1"], "[model] v must be >= 0, got -1.0"),
        (["trap", "--gamma=nan"], "[trap] gamma must be finite, got nan"),
        (["trap", "--u", "nan"], "[model] u must be finite, got nan"),
        (["trap", "--v=-1"], "[model] v must be >= 0, got -1.0"),
        (["trap", "--a0-sq", "2"], "[trap] a0_sq must be in [0, 1], got 2.0"),
        (["evolve", "--v", "inf"], "[model] v must be finite, got inf"),
        (["evolve", "--gamma-b", "nan"],
         "[model] gamma_b must be finite, got nan"),
        (["evolve", "--rtol", "0"],
         "[integrator] rtol must be finite and > 0, got 0.0"),
        (["regimes", "--refine-tol", "0"],
         "[scan] refine_tol must be finite and > 0, got 0.0"),
        # the text after --config is the config file's
        (["sweep", "--config", "[integrator]\nmethod = bogus\n"],
         "[integrator] method was retired: it may only be adaptive, "
         "got 'bogus'"),
        (["trap", "--config", "[integrator]\nrecord_every = 0\n"],
         "[integrator] record_every was retired: it may only be 1, "
         "got '0'"),
        # a value is checked whichever command runs: in a section the
        # command does not read, or where a flag or a key overrides it
        (["fixed-points", "--config", "[sweep]\nr_max = 0\n"],
         "[sweep] r_max must be finite and > 0, got 0.0"),
        (["evolve", "--config", "[portrait]\nn_s = 0\n"],
         "[portrait] n_s must be >= 1, got 0"),
        (["evolve", "--rtol", "1e-9", "--config",
          "[integrator]\nrtol = nan\n"],
         "[integrator] rtol must be finite and > 0, got nan"),
        (["trap", "--config", "[integrator]\nt_final = 0\n"],
         "[integrator] t_final must be finite and > 0, got 0.0"),
    ])
    def test_config_error_names_its_key(self, tmp_path, capsys, monkeypatch,
                                        argv, message):
        # each key is checked before the first solve, and the message
        # names the key that the user set
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve started on bad input")

        monkeypatch.setattr(integrate, "solve_adaptive", no_solve)
        if "--config" in argv:
            k = argv.index("--config") + 1
            ini = tmp_path / "run.ini"
            ini.write_text(argv[k])
            argv = argv[:k] + [str(ini)] + argv[k + 1:]
        rc = main(argv + ["--output", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_bad_manifest_value_is_2_before_any_directory(self, tmp_path,
                                                          capsys):
        # a fixed-points manifest records every key, [integrator] too
        assert main(["fixed-points", "--output", str(tmp_path / "a")]) == 0
        path = tmp_path / "a" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["parameters"]["integrator.rtol"] = 0.0
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        out = tmp_path / "new" / "b"
        rc = main(["fixed-points", "--from-manifest", str(path),
                   "--output", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == ("config error: [integrator] rtol "
                                           "must be finite and > 0, got 0.0\n")
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("command", ["evolve", "sweep", "trap"])
    def test_negative_v_writes_nothing(self, tmp_path, capsys, command):
        # V < 0 is a config error for each command that builds Params:
        # exit 2 before the output directory is made
        out = tmp_path / "o"
        assert main([command, "--v=-1", "--output", str(out)]) == 2
        assert capsys.readouterr().out == ""
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["trap", "--t-span", "0"],
                                      ["portrait", "--t-span", "-1"]])
    def test_non_positive_t_span_is_2(self, tmp_path, capsys, monkeypatch,
                                      argv):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve started on a non-positive t_span")

        monkeypatch.setattr(integrate, "solve_adaptive", no_solve)
        rc = main(argv + ["--output", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"[{argv[0]}] t_span must be finite and > 0" in err
        assert "t_final" not in err

    @pytest.mark.parametrize("document, name", [
        ({"command": "fixed-points", "parameters": {"reduced.c": "abc"}},
         "[reduced] c"),
        ({"command": "fixed-points", "parameters": {"reduced.c": None}},
         "[reduced] c"),
        ({"command": "fixed-points", "parameters": [1.0, 2.0]},
         "parameters"),
        (5, "not a JSON object"),
        # int() would truncate 21.9 to 21 and run
        ({"command": "regimes", "parameters": {"scan.resolution_c": 21.9}},
         "[scan] resolution_c"),
        ({"command": "regimes", "parameters": {"scan.resolution_r": True}},
         "[scan] resolution_r"),
        ({"command": "fixed-points", "parameters": {"reduced.c": False}},
         "[reduced] c"),
        ({"command": "sweep", "parameters": {"sweep.betas": [0.5, True]}},
         "[sweep] betas"),
    ])
    def test_bad_manifest_is_2(self, tmp_path, capsys, document, name):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(document))
        command = (document["command"] if isinstance(document, dict)
                   else "fixed-points")
        rc = main([command, "--from-manifest", str(manifest),
                   "--output", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert name in err and "Traceback" not in err

    @pytest.mark.parametrize("argv, key", [
        (["--n-theta", "-1"], "n_theta"),
        (["--n-theta", "0"], "n_theta"),
        (["--n-s", "0"], "n_s"),
        (["--n-s", "-3", "--n-theta", "4"], "n_s"),
    ])
    def test_bad_portrait_grid_is_2(self, tmp_path, capsys, monkeypatch,
                                    argv, key):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve started on an empty grid")

        monkeypatch.setattr(integrate, "solve_adaptive", no_solve)
        rc = main(["portrait"] + argv + ["--output", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"[portrait] {key} must be >= 1" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_bad_refine_tol_is_2(self, tmp_path, capsys, value):
        rc = main(["regimes", f"--refine-tol={value}",
                   "--output", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "refine_tol must be finite and > 0" in err
        assert not (tmp_path / "o" / "boundaries.json").exists()

    @pytest.mark.parametrize("window, axis", [
        ("0,1e308,-1e308,1e308", "r"),
        ("-1e308,1e308,-2,2", "c"),
        ("0,inf,-2,2", "c"),
        ("0,3,nan,2", "r"),
    ])
    def test_window_of_infinite_span_is_2(self, tmp_path, capsys, window,
                                          axis):
        # np.linspace overflows on such a span, with warnings and a grid
        # point's error; the span is checked first, under its keys
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["regimes", "--resolution", "9", f"--window={window}",
                       "--output", str(tmp_path / "o")])
        err = capsys.readouterr().err.splitlines()
        assert rc == 2 and caught == []
        assert len(err) == 1
        assert err[0].startswith(f"config error: [scan] {axis}_min and "
                                 f"{axis}_max must be finite with a finite span")
        assert not (tmp_path / "o" / "cells.csv").exists()

    def test_config_with_manifest_is_2(self, tmp_path, capsys):
        # a replay took the manifest's t_final = 1 and dropped the file's
        main(["evolve", "--t-final", "1", "--output", str(tmp_path / "a")])
        ini = tmp_path / "longer.ini"
        ini.write_text("[integrator]\nt_final = 3\n")
        capsys.readouterr()
        rc = main(["evolve", "--from-manifest", str(tmp_path / "a" / "manifest.json"),
                   "--config", str(ini), "--output", str(tmp_path / "b")])
        err = capsys.readouterr().err.splitlines()
        assert rc == 2 and len(err) == 1
        assert err[0].startswith("config error: ")
        assert "--config" in err[0] and "--from-manifest" in err[0]
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("resolution, key", [
        ("1", "resolution_c"), ("1,5", "resolution_c"), ("5,1", "resolution_r"),
    ])
    def test_resolution_below_two_names_its_key(self, tmp_path, capsys,
                                                resolution, key):
        rc = main(["regimes", "--resolution", resolution,
                   "--output", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == \
            f"config error: [scan] {key} must be >= 2, got 1\n"

    @pytest.mark.parametrize("command", ["fixed-points", "regimes", "portrait"])
    def test_zero_omega_is_2_before_any_solve(self, tmp_path, capsys,
                                              monkeypatch, command):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve started at omega = 0")

        monkeypatch.setattr(cli, "phase_portrait", no_solve)
        monkeypatch.setattr(cli, "scan_plane", no_solve)
        rc = main([command, "--omega", "0", "--output", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == \
            "config error: [reduced] omega must be > 0, got 0.0\n"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command, key", [
        ("regimes", "omega"), ("regimes", "gamma"),
        *[(command, key) for command in ("fixed-points", "portrait")
          for key in ("c", "omega", "r", "gamma")]])
    def test_non_finite_reduced_input_names_its_section(
            self, tmp_path, capsys, monkeypatch, command, key, value):
        # checked before the scan allocates its grid and samples the set,
        # and before any fixed point or orbit is computed; "--r=-inf",
        # since argparse reads a bare "-inf" as a flag
        def no_work(*args, **kwargs):
            raise AssertionError("work started on non-finite input")

        for name in ("scan_plane", "all_fixed_points", "phase_portrait"):
            monkeypatch.setattr(cli, name, no_work)
        rc = main([command, f"--{key}={value}", "--output",
                   str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == \
            f"config error: [reduced] {key} must be finite, got {value}\n"

    @pytest.mark.parametrize("argv", [
        ["regimes", "--resolution", "1"],  # a ConfigError of the command
        ["regimes", "--omega", "nan"],
        ["fixed-points", "--c", "inf"],  # a ValueError of the library
        ["portrait", "--n-s", "0"],
    ])
    @pytest.mark.parametrize("output", ["fo1", "new/deeper/fo1"])
    def test_a_config_error_removes_the_directories_it_made(
            self, tmp_path, capsys, monkeypatch, argv, output):
        monkeypatch.chdir(tmp_path)
        assert main(argv + ["--output", output]) == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("keep", [[], ["notes.txt"]])
    def test_a_config_error_keeps_a_directory_that_was_there(
            self, tmp_path, capsys, keep):
        # an output directory that existed, empty or holding a file, stays
        out = tmp_path / "parent" / "o"
        out.mkdir(parents=True)
        for name in keep:
            (out / name).write_text("kept")
        assert main(["regimes", "--resolution", "1", "--output", str(out)]) == 2
        assert sorted(p.name for p in out.iterdir()) == keep
        assert [(out / name).read_text() for name in keep] == ["kept"] * len(keep)

    def test_a_numerical_failure_keeps_the_directory(self, tmp_path, capsys):
        rc = main(["evolve", "--t-final", "1", "--rtol", "1e-300", "--atol",
                   "1e-300", "--u", "2.0", "--a0-sq", "0.6",
                   "--output", str(tmp_path / "o")])
        assert rc == 3 and (tmp_path / "o").is_dir()

    @pytest.mark.parametrize("betas", ["1e-300", "0.5,1e-300"])
    def test_infinite_sweep_time_names_its_keys(self, tmp_path, capsys,
                                                monkeypatch, betas):
        # 2 r_max / |beta| overflows; every beta is checked before the
        # first solve, under the keys that set it
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve started on an infinite sweep")

        monkeypatch.setattr(integrate, "solve_adaptive", no_solve)
        rc = main(["sweep", "--r-max", "1e308", "--beta", betas,
                   "--output", str(tmp_path / "o")])
        err = capsys.readouterr().err.splitlines()
        assert rc == 2 and len(err) == 1
        assert err[0].startswith("config error: [sweep] r_max and betas must ")

    @pytest.mark.parametrize("argv", [
        ["evolve", "--t-final", "1e9"],
        ["sweep", "--beta", "1e-300"],
        ["trap", "--t-span", "1e9"],
        ["portrait", "--n-s", "2", "--n-theta", "3", "--t-span", "1e9"],
    ])
    def test_adaptive_step_budget_is_3(self, tmp_path, capsys, monkeypatch,
                                       argv):
        monkeypatch.setattr(integrate, "MAX_STEPS", 1000)
        rc = main(argv + ["--output", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 3
        assert "step budget" in err and "Traceback" not in err


class TestRetiredKeys:
    """[integrator] method, dt and record_every are retired: a config
    file or manifest that holds method = adaptive, any dt or
    record_every = 1 reads as one without them, and any other method or
    record_every exits 2."""

    @pytest.mark.parametrize("argv", [
        ["evolve", "--u", "2", "--t-final", "1"],
        ["sweep", "--beta", "1.0", "--gamma", "0.5", "--r-max", "2"],
        ["trap", "--u", "1.5", "--t-span", "2"],
        ["portrait", "--n-s", "2", "--n-theta", "3", "--t-span", "2"],
    ])
    def test_an_older_manifest_replays_byte_for_byte(self, tmp_path, argv):
        # manifests written while the keys were read hold them, the
        # record_every of the last of them as the int 1
        first = tmp_path / "first"
        assert main(argv + ["--output", str(first)]) == 0
        path = first / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["parameters"].update({"integrator.method": "adaptive",
                                       "integrator.dt": 0.001,
                                       "integrator.record_every": 1})
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
        again = tmp_path / "again"
        assert main([argv[0], "--from-manifest", str(path),
                     "--output", str(again)]) == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in again.iterdir())
        for name in names:
            if name != "manifest.json":
                assert ((first / name).read_bytes()
                        == (again / name).read_bytes()), name
        replayed = json.loads((again / "manifest.json").read_text())
        for key in ("method", "dt", "record_every"):
            assert f"integrator.{key}" not in replayed["parameters"]

    @pytest.mark.parametrize("argv, names", [
        (["evolve", "--u", "2", "--t-final", "2"], ["trajectory.csv"]),
        (["trap", "--u", "1.5", "--t-span", "2"],
         ["population.csv", "summary.json"]),
    ])
    def test_a_config_file_with_them_runs_as_one_without(self, tmp_path,
                                                         argv, names):
        # record_every = 1 is the text "1" in a config file
        ini = tmp_path / "old.ini"
        ini.write_text("[integrator]\nmethod = adaptive\ndt = 0.5\n"
                       "record_every = 1\n")
        assert main(argv + ["--output", str(tmp_path / "a")]) == 0
        assert main(argv + ["--config", str(ini),
                            "--output", str(tmp_path / "b")]) == 0
        for name in names:
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())

    @pytest.mark.parametrize("key, value, kept", [
        ("method", "rk4", "adaptive"), ("method", "rk45", "adaptive"),
        ("record_every", 7, 1)])
    @pytest.mark.parametrize("source", ["--from-manifest", "--config"])
    def test_another_value_is_2(self, tmp_path, capsys, monkeypatch, key,
                                value, kept, source):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve started under a retired value")

        monkeypatch.setattr(integrate, "solve_adaptive", no_solve)
        if source == "--from-manifest":
            path = tmp_path / "manifest.json"
            path.write_text(json.dumps({"command": "evolve", "parameters": {
                f"integrator.{key}": value, "integrator.dt": 0.01}}))
            raw = value  # a manifest's 7 is the int 7
        else:
            path = tmp_path / "run.ini"
            path.write_text(f"[integrator]\n{key} = {value}\ndt = 0.01\n")
            raw = str(value)
        out = tmp_path / "o"
        assert main(["evolve", source, str(path), "--output", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: [integrator] {key} was retired: it may only "
            f"be {kept}, got {raw!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--method=rk4"], ["--dt=0.01"], ["--record-every", "1"]])
    def test_their_flags_are_gone(self, tmp_path, capsys, flags):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["evolve", *flags, "--output", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {' '.join(flags)}" in err
        assert "Traceback" not in err and not out.exists()


class TestFrozenExit:
    """main freezes the heap on every way out, so that the collections
    of the interpreter's exit skip it; importing the CLI freezes nothing,
    and the outputs and messages of a frozen exit are those of a run."""

    @pytest.mark.parametrize("argv, code", [
        (["regimes", "--resolution", "3"], 0),
        (["regimes", "--window", "0,1"], 2),
    ])
    def test_main_returns_with_the_heap_frozen(self, tmp_path, capsys, argv,
                                               code):
        assert gc.get_freeze_count() == 0
        assert main(argv + ["--output", str(tmp_path / "o")]) == code
        assert gc.get_freeze_count() > 0

    @pytest.mark.parametrize("error, code", [
        (NumericalError("x"), 3), (OSError("x"), 4), (MemoryError(), 5),
        (RuntimeError("x"), None), (SystemExit(2), None),
    ])
    def test_every_other_way_out_freezes(self, capsys, monkeypatch, error,
                                         code):
        def fail(args):
            raise error

        monkeypatch.setattr(cli, "run", fail)
        if code is None:  # an error main does not handle propagates
            with pytest.raises(type(error)):
                main(["evolve"])
        else:
            assert main(["evolve"]) == code
        assert gc.get_freeze_count() > 0

    def test_import_freezes_nothing(self):
        probe = ("import gc, atomol.cli; "
                 "print(gc.get_freeze_count(), gc.isenabled())")
        proc = subprocess.run([sys.executable, "-c", probe],
                              env={**os.environ, "PYTHONPATH": str(SRC)},
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0 True\n"

    def _child(self, argv, out):
        return subprocess.run(
            [sys.executable, "-m", "atomol", *argv, "--output", str(out)],
            env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True,
            text=True, timeout=120)

    def test_a_child_writes_what_main_writes(self, tmp_path, capsys):
        argv = ["regimes", "--resolution", "12"]
        proc = self._child(argv, tmp_path / "child")
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert proc.stdout.splitlines() == [
            f"wrote {tmp_path / 'child' / name}"
            for name in ("cells.csv", "boundaries.json", "manifest.json")]
        assert main(argv + ["--output", str(tmp_path / "main")]) == 0
        for name in ("cells.csv", "boundaries.json"):
            assert ((tmp_path / "child" / name).read_bytes()
                    == (tmp_path / "main" / name).read_bytes())

    def test_a_child_config_error_is_one_line(self, tmp_path):
        proc = self._child(["regimes", "--window", "0,1"], tmp_path / "o")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == ("config error: --window takes "
                               "cmin,cmax,rmin,rmax\n")


# CLI fuzz: each example runs one subcommand with a random subset of its
# flags, finite values mixed with extremes; each subcommand gets its own
# examples, so that a change of another's flags leaves its draws as
# they were.  The flags that set the
# amount of work are always given, and kept small or just over their
# cap, which must exit 2 before any work; the step budget is patched
# down, so every run is bounded, and a longer solve must exit 3.  The
# portrait's grid sizes are mostly legal, so that its solves and time
# grid are fuzzed too.
FUZZ_FLOAT = st.one_of(
    st.sampled_from([1e300, -1e300, 1e-300, -1e-300, 0.0]),
    st.floats(1e-3, 5.0), st.floats(-5.0, 5.0))


def mostly_legal(bad):
    """A portrait grid size: 1 to 3, or bad in one draw of six."""
    return st.integers(0, 5).map(lambda k: bad if k == 5 else 1 + k % 3)


FUZZ_WORK = {  # flag -> strategy, always given
    "regimes": {"--resolution": st.integers(1, 12)},
    "portrait": {"--n-s": mostly_legal(cli.MAX_ORBITS + 1),
                 "--n-theta": mostly_legal(0)},
    "sweep": {"--beta": FUZZ_FLOAT, "--gamma": FUZZ_FLOAT},
}
FUZZ_CHOICES = {"--format": ["csv", "json", "xml"]}


@st.composite
def cli_argv(draw, command):
    work = FUZZ_WORK.get(command, {})
    flags = []
    for key in cli._FLAGS[command] + cli._COMMON_KEYS:
        flag = cli._flag_name(key)
        section, name = key.split(".")
        if flag not in work and flag != "--output":
            flags.append((flag, SCHEMA[section][name][0]))
    argv = [command] + [f"{flag}={draw(strategy)!r}"
                        for flag, strategy in work.items()]
    for flag, typ in draw(st.lists(st.sampled_from(flags), max_size=4,
                                   unique=True)):
        if flag in FUZZ_CHOICES:
            value = draw(st.sampled_from(FUZZ_CHOICES[flag]))
        else:
            value = draw(st.integers(-1, 12) if typ == "int" else FUZZ_FLOAT)
        argv.append(f"{flag}={value}")
    if command == "regimes" and draw(st.booleans()):
        argv.append("--window=" + ",".join(repr(draw(FUZZ_FLOAT))
                                           for _ in range(4)))
    return argv


class TestCliFuzz:
    @pytest.mark.parametrize("command", sorted(cli._FLAGS))
    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_any_flags_exit_cleanly(self, command, data):
        argv = data.draw(cli_argv(command))
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(integrate, "MAX_STEPS", 10 ** 4), \
                contextlib.redirect_stderr(err):
            try:
                rc = main(argv + ["--output", tmp])
            except SystemExit as exc:  # argparse rejects the flags
                rc = exc.code
        assert rc in (0, 2, 3, 4), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue(), argv
