"""Command-line driver for the conversion-dynamics toolkit.

Subcommands: evolve, fixed-points, regimes, sweep, trap, portrait.
Every run writes its data files plus a manifest.json carrying the full
resolved parameter set; rerunning with --from-manifest reproduces the
data files byte for byte.  Flags mirror config keys and override the
config file: a flag is its key's name with - for _ (--t-final sets
[integrator] t_final), except --output, --beta and sweep's --gamma
(_FLAG_NAMES), and regimes' --window and --resolution, which split
into the [scan] keys.  Flag values are parsed, checked against their
key's rules and reported like config-file values (io._parse_value), so
every bad value fails before the output directory is made; the
commands check only what reads two keys (a scan window's span, a
sweep's 2 r_max / |beta|, a portrait's orbit count).

Exit codes: 0 success, 2 config error (bad input only, a portrait of
more than MAX_ORBITS starts included), 3 numerical failure
(model.NumericalError), 4 I/O error, 5 out of memory (a run too large
for the memory it may take, such as a grid whose arrays cannot be
allocated).
"""

from __future__ import annotations

import argparse
import gc
import math
import sys
from pathlib import Path

import numpy as np

from . import io as aio
from .experiments import (
    SweepProtocol,
    default_ic_grid,
    oscillation_amplitude,
    phase_portrait,
    self_trapping_run,
    sweep_conversion,
)
from .fixed_points import all_fixed_points
from .integrate import IntegratorConfig, evolve
from .io import ConfigError
from .model import CanonicalState, NumericalError, Params, ReducedParams, \
    amplitudes_from_canonical
from .regimes import boundary_fp_existence_curve, scan_plane, trace_boundaries

# per-command config keys; a key's flag is --name with - for _, where
# name is the key within its section, save the few in _FLAG_NAMES
_MODEL_KEYS = [f"model.{key}" for key in aio.SCHEMA["model"]]
_REDUCED_KEYS = [f"reduced.{key}" for key in aio.SCHEMA["reduced"]]
_INTEGRATOR_KEYS = [f"integrator.{key}" for key in aio.SCHEMA["integrator"]]
_TOL_KEYS = ["integrator.rtol", "integrator.atol"]
_COMMON_KEYS = ["output.path", "output.format"]

_FLAGS = {
    "evolve": _MODEL_KEYS + _INTEGRATOR_KEYS + ["initial.a0_sq",
                                                "initial.theta0"],
    "fixed-points": _REDUCED_KEYS,
    "regimes": ["reduced.omega", "reduced.gamma", "scan.refine_tol"],
    "sweep": ["model.v", "model.u", "sweep.r_max", "sweep.betas",
              "sweep.gammas"] + _TOL_KEYS,
    "trap": ["model.v", "model.u", "model.r", "trap.gamma", "trap.a0_sq",
             "trap.theta0", "trap.t_span"] + _TOL_KEYS,
    "portrait": _REDUCED_KEYS + ["portrait.t_span", "portrait.n_s",
                                 "portrait.n_theta"] + _TOL_KEYS,
}
_FLAG_NAMES = {"output.path": "--output", "sweep.betas": "--beta",
               "sweep.gammas": "--gamma"}


def _flag_name(key: str) -> str:
    """Command-line flag of a config key."""
    return _FLAG_NAMES.get(key, "--" + key.split(".")[1].replace("_", "-"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atomol",
        description="Mean-field dynamics of dissipative atom-molecule conversion.")
    parser.add_argument("--version", action="version",
                        version=f"{aio.TOOL_NAME} {aio.__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in ("evolve", "fixed-points", "regimes", "sweep", "trap",
                    "portrait"):
        sp = sub.add_parser(command)
        sp.add_argument("--config", help="INI config file")
        sp.add_argument("--from-manifest",
                        help="replay the resolved parameters of a manifest")
        for key in _FLAGS[command] + _COMMON_KEYS:
            sp.add_argument(_flag_name(key), dest=key)
        if command == "regimes":
            sp.add_argument("--window", default=None,
                            help="scan window as cmin,cmax,rmin,rmax")
            sp.add_argument("--resolution", default=None,
                            help="grid points per axis: n or nc,nr")
    return parser


def _collect_overrides(args) -> dict:
    """Flag values parsed as config values, by config key."""
    overrides = {key: aio._parse_value(*key.split("."), getattr(args, key))
                 for key in _FLAGS[args.command] + _COMMON_KEYS
                 if getattr(args, key) is not None}
    if args.command == "regimes":
        if args.window is not None:
            parts = [p for p in args.window.split(",") if p.strip()]
            if len(parts) != 4:
                raise ConfigError("--window takes cmin,cmax,rmin,rmax")
            for key, raw in zip(("c_min", "c_max", "r_min", "r_max"), parts):
                overrides[f"scan.{key}"] = aio._parse_value("scan", key, raw)
        if args.resolution is not None:
            parts = [p for p in args.resolution.split(",") if p.strip()]
            if len(parts) == 1:
                parts *= 2
            if len(parts) != 2:
                raise ConfigError("--resolution takes n or nc,nr")
            for key, raw in zip(("resolution_c", "resolution_r"), parts):
                overrides[f"scan.{key}"] = aio._parse_value("scan", key, raw)
    return overrides


def _resolve(args) -> dict:
    file_values = None
    if args.from_manifest and args.config:
        raise ConfigError("--config and --from-manifest do not combine")
    if args.from_manifest:
        manifest = aio.load_manifest(args.from_manifest)
        if manifest["command"] != args.command:
            raise ConfigError(
                f"manifest records command {manifest['command']!r}, "
                f"not {args.command!r}")
        file_values = {}
        for flat_key, raw in manifest["parameters"].items():
            section, _, key = flat_key.partition(".")
            file_values[flat_key] = aio._parse_value(section, key, raw)
    elif args.config:
        file_values = aio.load_config(args.config)
    return aio.resolve_config(file_values, _collect_overrides(args))


def _section(resolved, name, **override) -> dict:
    """The resolved keys of one config section, by key name, with the
    given values in place of the resolved ones."""
    return {**{key: resolved[f"{name}.{key}"] for key in aio.SCHEMA[name]},
            **override}


def _finish(command, resolved, derived, outdir, outputs):
    manifest = aio.build_manifest(command, resolved, derived,
                                  [p.name for p in outputs])
    aio.write_json(outdir / "manifest.json", manifest)
    for p in outputs:
        print(f"wrote {p}")
    print(f"wrote {outdir / 'manifest.json'}")
    return 0


def cmd_evolve(resolved, outdir, fmt):
    p = Params(**_section(resolved, "model"))
    x0 = amplitudes_from_canonical(CanonicalState(
        s=2.0 * resolved["initial.a0_sq"] - 1.0,
        theta=resolved["initial.theta0"], n=1.0))
    tr = evolve(x0, p, IntegratorConfig(**_section(resolved, "integrator")))
    header = ["t", "re_a", "im_a", "re_b", "im_b", "n", "s", "theta",
              "hx", "hy", "hz", "energy"]
    a, b = tr.states[:, 0], tr.states[:, 1]
    columns = [tr.times, a.real, a.imag, b.real, b.imag, tr.n, tr.s,
               tr.theta, tr.hx, tr.hy, tr.hz, tr.energy]
    out = aio.write_table(outdir, "trajectory", header,
                          [col.tolist() for col in columns], fmt)
    derived = {"gamma_plus": p.gamma_plus, "gamma_minus": p.gamma_minus,
               "c": p.u, "omega": p.v}
    return _finish("evolve", resolved, derived, outdir, [out])


_FIXED_POINT_HEADER = ["s", "theta", "kind", "eig1_re", "eig1_im", "eig2_re",
                      "eig2_im", "residual", "on_boundary"]


def _fixed_point_columns(points):
    rows = []
    for fp in points:
        e1, e2 = fp.eigenvalues
        rows.append([float(fp.s), float(fp.theta), fp.kind,
                     float(e1.real), float(e1.imag), float(e2.real),
                     float(e2.imag), float(fp.residual), fp.on_boundary])
    return list(zip(*rows)) or [()] * len(_FIXED_POINT_HEADER)


def cmd_fixed_points(resolved, outdir, fmt):
    q = ReducedParams(**_section(resolved, "reduced"))
    points = all_fixed_points(q)
    out = aio.write_table(outdir, "fixed_points", _FIXED_POINT_HEADER,
                          _fixed_point_columns(points), fmt)
    derived = {"gamma_plus": None, "gamma_minus": q.gamma, "c": q.c,
               "omega": q.omega}
    return _finish("fixed-points", resolved, derived, outdir, [out])


def _write_cells(outdir, rmap, fmt):
    """cells.csv or cells.json of a regime map: c and r coded by axis
    index, the label fields by the map's codes into its label table
    (whose equal entries may format differently: n_interior 1 and 1.0)."""
    header = ["c", "r", "label", "n_interior", "has_boundary_fp"]
    nc, nr = len(rmap.c_axis), len(rmap.r_axis)
    axis = np.arange(max(nc, nr), dtype=np.int32)  # half the bytes of int64
    columns = [aio.Coded(rmap.c_axis.tolist(), np.repeat(axis[:nc], nr)),
               aio.Coded(rmap.r_axis.tolist(), np.tile(axis[:nr], nc))]
    codes = rmap.codes.ravel()  # one object: write_table fuses the fields
    columns += [aio.Coded([getattr(lab, name) for lab in rmap.table], codes)
                for name in header[2:]]
    return aio.write_table(outdir, "cells", header, columns, fmt)


def cmd_regimes(resolved, outdir, fmt):
    omega, gamma = resolved["reduced.omega"], resolved["reduced.gamma"]
    c_range = (resolved["scan.c_min"], resolved["scan.c_max"])
    r_range = (resolved["scan.r_min"], resolved["scan.r_max"])
    for axis, (lo, hi) in (("c", c_range), ("r", r_range)):
        if not math.isfinite(hi - lo):  # or np.linspace overflows
            raise ConfigError(f"[scan] {axis}_min and {axis}_max must be finite "
                              f"with a finite span, got {lo} and {hi}")
    resolution = [resolved["scan.resolution_c"], resolved["scan.resolution_r"]]
    rmap = scan_plane(c_range=c_range, r_range=r_range, resolution=resolution,
                      omega=omega, gamma=gamma)
    cells_out = _write_cells(outdir, rmap, fmt)
    polylines = trace_boundaries(rmap, refine_tol=resolved["scan.refine_tol"])
    aux = boundary_fp_existence_curve(omega, c_range, r_range)
    boundaries = {
        "window": {"c": list(c_range), "r": list(r_range)},
        "omega": omega,
        "gamma": gamma,
        "refine_tol": resolved["scan.refine_tol"],
        "polylines": [
            {"labels": list(poly.labels),
             "points": [[float(c), float(r)] for c, r in poly.points]}
            for poly in polylines
        ],
        "boundary_fp_exists": [
            [[float(c), float(r)] for c, r in curve] for curve in aux
        ],
    }
    bnd_out = outdir / "boundaries.json"
    aio.write_json(bnd_out, boundaries)
    derived = {"gamma_plus": None, "gamma_minus": gamma, "c": None,
               "omega": omega}
    return _finish("regimes", resolved, derived, outdir, [cells_out, bnd_out])


def cmd_sweep(resolved, outdir, fmt):
    v, u = resolved["model.v"], resolved["model.u"]
    cfg = IntegratorConfig(**_section(resolved, "integrator"))
    # w tops out at 1/2 (a pure molecular state has |b|^2 = n/2);
    # molecular_fraction = 2w rescales it to [0, 1] for readability
    header = ["beta", "gamma", "w", "m", "m_defined", "molecular_fraction"]
    protocols = [SweepProtocol(beta=beta, r_max=resolved["sweep.r_max"])
                 for beta in resolved["sweep.betas"]]
    for pr in protocols:
        if not math.isfinite(pr.duration):
            raise ConfigError(f"[sweep] r_max and betas must give a finite "
                              f"2 r_max / |beta|, got {pr.r_max} and {pr.beta}")
    rows = []
    for protocol in protocols:
        for gamma in resolved["sweep.gammas"]:
            p = Params(v=v, u=u, gamma_a=gamma, gamma_b=-gamma)
            report = sweep_conversion(protocol, p, cfg)
            m, defined = (report.m, True) if report.m is not None else ("", False)
            rows.append([protocol.beta, gamma, report.w, m, defined, 2.0 * report.w])
    columns = list(zip(*rows)) or [()] * len(header)
    out = aio.write_table(outdir, "efficiency", header, columns, fmt)
    derived = {"gamma_plus": 0.0, "gamma_minus": resolved["sweep.gammas"],
               "c": u, "omega": v}
    return _finish("sweep", resolved, derived, outdir, [out])


def cmd_trap(resolved, outdir, fmt):
    trap = _section(resolved, "trap")
    cfg = IntegratorConfig(**_section(resolved, "integrator",
                                      t_final=trap["t_span"]))
    run = self_trapping_run(u=resolved["model.u"], v=resolved["model.v"],
                            r=resolved["model.r"], gamma_minus=trap["gamma"],
                            a0_sq=trap["a0_sq"], t_span=trap["t_span"],
                            theta0=trap["theta0"], cfg=cfg)
    header = ["t", "p_atom", "s", "theta"]
    columns = [run.times.tolist(), run.p_atom.tolist(), run.s.tolist(),
               run.theta.tolist()]
    out = aio.write_table(outdir, "population", header, columns, fmt)
    summary = {
        "trapped": run.trapped,
        "min_p_atom": run.min_p_atom,
        "oscillation_amplitude": oscillation_amplitude(run.p_atom),
        "gamma_minus": run.gamma,
        "u": run.u,
    }
    sum_out = outdir / "summary.json"
    aio.write_json(sum_out, summary)
    derived = {"gamma_plus": 0.0, "gamma_minus": resolved["trap.gamma"],
               "c": resolved["model.u"], "omega": resolved["model.v"]}
    return _finish("trap", resolved, derived, outdir, [out, sum_out])


# most orbits one portrait may take: every trajectory is held until
# the table is written, about 30 kB each at the default t_span
MAX_ORBITS = 10 ** 5


def cmd_portrait(resolved, outdir, fmt):
    n_s, n_theta = resolved["portrait.n_s"], resolved["portrait.n_theta"]
    if n_s * n_theta > MAX_ORBITS:
        raise ConfigError(f"[portrait] n_s * n_theta must be <= {MAX_ORBITS} "
                          f"orbits, got {n_s} * {n_theta}")
    q = ReducedParams(**_section(resolved, "reduced"))
    t_span = resolved["portrait.t_span"]
    cfg = IntegratorConfig(**_section(resolved, "integrator", t_final=t_span))
    grid = default_ic_grid(n_s=n_s, n_theta=n_theta)
    portrait = phase_portrait(q, ic_grid=grid, t_span=t_span, cfg=cfg)
    header = ["traj_id", "t", "s", "theta"]
    trajectories = portrait.trajectories
    ids = np.repeat(np.arange(len(trajectories)),
                    [len(tr.times) for tr in trajectories])
    columns = [aio.Coded(list(range(len(trajectories))), ids)]
    columns += [np.concatenate([getattr(tr, name) for tr in trajectories]).tolist()
                for name in ("times", "s", "theta")]
    out = aio.write_table(outdir, "portrait", header, columns, fmt)
    fp_out = aio.write_table(outdir, "fixed_points", _FIXED_POINT_HEADER,
                             _fixed_point_columns(portrait.fixed_points), fmt)
    events = [
        None if ev is None else {"time": ev.time, "s": ev.s, "theta": ev.theta}
        for ev in portrait.pole_events
    ]
    sum_out = outdir / "portrait_summary.json"
    aio.write_json(sum_out, {"pole_events": events})
    derived = {"gamma_plus": None, "gamma_minus": q.gamma, "c": q.c,
               "omega": q.omega}
    return _finish("portrait", resolved, derived, outdir,
                   [out, fp_out, sum_out])


_HANDLERS = {
    "evolve": cmd_evolve,
    "fixed-points": cmd_fixed_points,
    "regimes": cmd_regimes,
    "sweep": cmd_sweep,
    "trap": cmd_trap,
    "portrait": cmd_portrait,
}


def run(args) -> int:
    resolved = _resolve(args)
    fmt = resolved["output.format"]
    outdir = Path(resolved["output.path"])
    made = [p for p in (outdir, *outdir.parents) if not p.exists()]
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        return _HANDLERS[args.command](resolved, outdir, fmt)
    except (ConfigError, ValueError):  # exit 2: remove what this run made
        for p in made:  # deepest first; one that holds a file stays
            if not any(p.iterdir()):
                p.rmdir()
        raise


def main(argv=None) -> int:
    """Run one subcommand; return its exit code (see the module docstring).

    The heap is frozen (gc.freeze) on every way out: a return, an
    exception or argparse's SystemExit.  The ~22,000 objects left from
    importing numpy and atomol, and those the run leaves, move to the
    collector's permanent generation, so the collections the interpreter
    runs at exit skip them; those took 20-30 ms, up to a tenth of a
    default regimes run.  Every output is closed before main returns.
    """
    try:
        return run(build_parser().parse_args(argv))
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        print(f"out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 5
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
