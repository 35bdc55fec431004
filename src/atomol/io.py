"""Config handling, run manifests, and bit-stable serialization.

Configs are flat INI files with one section per concern; unknown
sections or keys are errors, missing keys take the documented defaults.
All floating-point output uses the shortest round-trip representation
(repr), so emitted files are reproducible and diffable; manifests carry
the full resolved parameter set so any run can be replayed
byte-identically.
"""

from __future__ import annotations

import configparser
import datetime
import hashlib
import itertools
import json
import math
from dataclasses import fields
from pathlib import Path

from .integrate import IntegratorConfig
from .model import Params, ReducedParams

__version__ = "0.1.0"
TOOL_NAME = "atomol"


class ConfigError(Exception):
    """Invalid, unknown, or malformed configuration input."""


def _float(raw):
    # float(True) is 1.0: a JSON boolean is not a number
    if isinstance(raw, bool):
        raise ValueError("a boolean is not a number")
    return float(raw)


def _int(raw):
    if isinstance(raw, bool):
        raise ValueError("a boolean is not a number")
    # int(21.9) truncates: a JSON number must be integral
    if isinstance(raw, float) and not raw.is_integer():
        raise ValueError("not an integer")
    return int(raw)


def _float_list(text):
    if isinstance(text, (list, tuple)):
        return [_float(v) for v in text]
    parts = [p.strip() for p in str(text).split(",")]
    return [float(p) for p in parts if p]


_PARSERS = {
    "float": _float,
    "int": _int,
    "str": str,
    "floatlist": _float_list,
}


def _dataclass_section(cls) -> dict:
    # the annotations are strings (postponed evaluation), so a field's
    # annotation is its type name
    return {f.name: (f.type, f.default) for f in fields(cls)}


# section -> key -> (type name, default); the sections that build a
# dataclass take its fields, names, types and defaults
SCHEMA = {
    "model": _dataclass_section(Params),
    "reduced": _dataclass_section(ReducedParams),
    "integrator": _dataclass_section(IntegratorConfig),
    "initial": {
        "a0_sq": ("float", 1.0),
        "theta0": ("float", 0.0),
    },
    "scan": {
        "c_min": ("float", 0.0),
        "c_max": ("float", 3.0),
        "r_min": ("float", -2.0),
        "r_max": ("float", 2.0),
        "resolution_c": ("int", 200),
        "resolution_r": ("int", 200),
        "refine_tol": ("float", 1e-3),
    },
    "sweep": {
        "betas": ("floatlist", [0.1, 0.2, 0.5, 1.0]),
        "gammas": ("floatlist", [-0.5, 0.0, 0.5]),
        "r_max": ("float", 5.0),
    },
    "trap": {
        "gamma": ("float", -0.5),
        "a0_sq": ("float", 0.9),
        "theta0": ("float", math.pi),
        "t_span": ("float", 20.0),
    },
    "portrait": {
        "n_s": ("int", 5),
        "n_theta": ("int", 8),
        "t_span": ("float", 20.0),
    },
    "output": {
        "path": ("str", "out"),
        "format": ("str", "csv"),
    },
}


def default_config() -> dict:
    """Fully populated config with every documented default."""
    return {f"{sec}.{key}": default
            for sec, keys in SCHEMA.items()
            for key, (_type, default) in keys.items()}


def _parse_value(section: str, key: str, raw):
    try:
        type_name, _ = SCHEMA[section][key]
    except KeyError:
        raise ConfigError(f"unknown config key [{section}] {key}") from None
    try:
        return _PARSERS[type_name](raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(
            f"bad value for [{section}] {key}: {raw!r} ({exc})") from None


def load_config(path) -> dict:
    """Parse an INI config file against the schema (strict keys)."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from None
    values = {}
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser[section].items():
            values[f"{section}.{key}"] = _parse_value(section, key, raw)
    return values


def serialize_config(values: dict) -> str:
    """Render a flat config dict back to INI text."""
    by_section: dict[str, dict] = {}
    for flat_key, val in values.items():
        section, key = flat_key.split(".", 1)
        if section not in SCHEMA or key not in SCHEMA[section]:
            raise ConfigError(f"unknown config key [{section}] {key}")
        by_section.setdefault(section, {})[key] = val
    lines = []
    for section in SCHEMA:
        if section not in by_section:
            continue
        lines.append(f"[{section}]")
        for key in SCHEMA[section]:
            if key in by_section[section]:
                lines.append(f"{key} = {format_value(by_section[section][key])}")
        lines.append("")
    return "\n".join(lines)


def resolve_config(file_values: dict | None = None,
                   overrides: dict | None = None) -> dict:
    """defaults < config file < explicit overrides."""
    resolved = default_config()
    for source in (file_values or {}), (overrides or {}):
        for flat_key, val in source.items():
            section, key = flat_key.split(".", 1)
            if section not in SCHEMA or key not in SCHEMA[section]:
                raise ConfigError(f"unknown config key [{section}] {key}")
            resolved[flat_key] = val
    return resolved


def format_value(val) -> str:
    """Shortest round-trip text form of a config/output value."""
    if isinstance(val, bool):
        return "true" if val else "false"
    if isinstance(val, float):
        return repr(float(val))  # plain float: numpy scalars repr differently
    if isinstance(val, (list, tuple)):
        return ",".join(format_value(v) for v in val)
    return str(val)


# exact type -> format_value for a value of that type
_COLUMN_FORMATS = {float: float.__repr__, int: int.__repr__, str: str,
                   bool: {True: "true", False: "false"}.__getitem__}
_BLOCK = 4096  # rows formatted at once: bounds the value strings held


def _column_text(column):
    """format_value of every value, by the column's type when it has one."""
    types = set(map(type, column))
    fmt = _COLUMN_FORMATS.get(types.pop()) if len(types) == 1 else None
    return list(map(fmt or format_value, column))


def _checked_rows(header, rows) -> list:
    """rows as a list; ValueError naming the first row whose length
    differs from the header's."""
    rows = list(rows)
    if set(map(len, rows)) - {len(header)}:
        bad = next(k for k, row in enumerate(rows) if len(row) != len(header))
        raise ValueError(f"row {bad} has {len(rows[bad])} values for "
                         f"{len(header)} columns")
    return rows


def write_csv(path, header, rows):
    """Write rows of already-typed values with repr-exact floats.

    Formatting is per column, _BLOCK rows at a time: a column of one
    exact type (float, int, str or bool) maps its formatter, any other
    column (numpy scalars, float subclasses, mixed) takes format_value
    per value.  A row whose length differs from the header's raises
    ValueError (_checked_rows) before anything is written.
    """
    rows = _checked_rows(header, rows)
    parts = [",".join(header)]
    for i in range(0, len(rows), _BLOCK):
        texts = map(_column_text, zip(*rows[i:i + _BLOCK]))
        parts.append("\n".join(map(",".join, zip(*texts))))
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")


def write_json(path, obj):
    Path(path).write_text(
        json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_table(directory, stem, header, rows, fmt):
    """Write a table as stem.csv or stem.json depending on fmt.

    A row whose length differs from the header's raises ValueError,
    naming the first such row, before anything is written.
    """
    directory = Path(directory)
    if fmt == "csv":
        out = directory / f"{stem}.csv"
        write_csv(out, header, rows)
    elif fmt == "json":
        out = directory / f"{stem}.json"
        records = [dict(zip(header, row)) for row in _checked_rows(header, rows)]
        write_json(out, records)
    else:
        raise ConfigError(f"unknown output format {fmt!r}")
    return out


def _record_layout(header, fmt):
    """How write_table lays out one row: (column, text before its value)
    per value in file order, the text after the last value, the value
    formatter, the text between rows, and the file's text before the
    first row, after the last and when there are none."""
    if fmt == "csv":
        fields = [(k, "," if k else "") for k in range(len(header))]
        line = ",".join(header) + "\n"
        return fields, "", format_value, "\n", (line, "\n", line)
    if fmt == "json":
        order = sorted(range(len(header)), key=header.__getitem__)
        fields = [(k, (",\n" if n else "  {\n") + f"    {json.dumps(header[k])}: ")
                  for n, k in enumerate(order)]
        return fields, "\n  }", json.dumps, ",\n", ("[\n", "\n]\n", "[]\n")
    raise ConfigError(f"unknown output format {fmt!r}")


def write_grid(directory, stem, header, x_axis, y_axis, cells, values, fmt):
    """Write a grid as stem.csv or stem.json: the bytes write_table gives
    for the rows (x_axis[i], y_axis[j], *values(cells[i][j])), row-major.

    header names the x, the y and then the cell columns, all distinct;
    values(cell) gives a cell's column values, each a scalar that
    format_value (csv) or json.dumps (json) formats.  Each axis value
    and each distinct cell object, by identity, is formatted once; a
    row is joined from those texts, and the file is written one grid
    row at a time.  A grid whose shape is not (len(x_axis),
    len(y_axis)), or a cell whose values do not fill the header, raises
    ValueError before anything is written.
    """
    if len(cells) != len(x_axis) or any(len(row) != len(y_axis) for row in cells):
        raise ValueError(f"cells are not a {len(x_axis)} x {len(y_axis)} grid")
    distinct = {}
    for row in cells:
        distinct.update(zip(map(id, row), row))
    cell_values = {key: tuple(values(cell)) for key, cell in distinct.items()}
    for vals in cell_values.values():
        if len(vals) != len(header) - 2:
            raise ValueError(f"a cell has {len(vals)} values for "
                             f"{len(header) - 2} cell columns")
    fields, close, text, sep, (head, tail, empty) = _record_layout(header, fmt)
    # one piece per run of fields from one source: 0 x, 1 y, 2 the cell
    runs = [(source, list(run)) for source, run in
            itertools.groupby(fields, key=lambda field: min(field[0], 2))]

    def piece(run, texts, last):
        return "".join(lit + texts[k] for k, lit in run) + (close if last else "")

    pieces = []
    for n, (source, run) in enumerate(runs):
        last = n == len(runs) - 1
        if source == 2:
            pieces.append({key: piece(run, dict(enumerate(map(text, vals), 2)), last)
                           for key, vals in cell_values.items()})
        else:
            pieces.append([piece(run, {source: text(v)}, last)
                           for v in (x_axis, y_axis)[source]])
    out = Path(directory) / f"{stem}.{fmt}"
    with out.open("w", encoding="utf-8") as fh:
        if not (len(x_axis) and len(y_axis)):
            fh.write(empty)
            return out
        fh.write(head)
        for i, row in enumerate(cells):
            ids = list(map(id, row))
            columns = [itertools.repeat(p[i]) if source == 0 else
                       p if source == 1 else map(p.__getitem__, ids)
                       for (source, _), p in zip(runs, pieces)]
            fh.write((sep if i else "") + sep.join(map("".join, zip(*columns))))
        fh.write(tail)
    return out


def config_digest(command: str, parameters: dict) -> str:
    """Stable digest of the fully resolved run parameters."""
    canonical = json.dumps({"command": command, "parameters": parameters},
                           sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def build_manifest(command: str, parameters: dict, derived: dict,
                   outputs: list[str]) -> dict:
    return {
        "tool": TOOL_NAME,
        "version": __version__,
        "command": command,
        "parameters": parameters,
        "derived": derived,
        "outputs": outputs,
        "config_digest": config_digest(command, parameters),
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def load_manifest(path) -> dict:
    try:
        manifest = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read manifest {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed manifest {path}: {exc}") from None
    if not isinstance(manifest, dict):
        raise ConfigError(f"manifest {path} is not a JSON object")
    for field in ("command", "parameters"):
        if field not in manifest:
            raise ConfigError(f"manifest {path} missing field {field!r}")
    if not isinstance(manifest["parameters"], dict):
        raise ConfigError(f"manifest {path}: parameters is not an object")
    return manifest
