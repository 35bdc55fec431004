"""Config handling, run manifests, and bit-stable serialization.

Configs are flat INI files with one section per concern; unknown
sections or keys are errors, missing keys take the documented defaults.
Each key's rules (finite, > 0, in [0, 1], one of a few names, ...) sit
in SCHEMA next to its type and default, and _parse_value checks them
on every value it parses, from a config file, a flag or a manifest, so
a bad value fails under its [section] key before any command runs.
All floating-point output uses the shortest round-trip representation
(repr), so emitted files are reproducible and diffable; manifests carry
the full resolved parameter set so any run can be replayed
byte-identically.  Every data table, CSV or JSON, goes through one
column writer (write_table); a column may be dictionary-encoded
(Coded), so that a value shared by many rows, such as a grid's axis
value or a regime map's label, is formatted once.
"""

from __future__ import annotations

import configparser
import datetime
import hashlib
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, fields
from itertools import groupby
from pathlib import Path

import numpy as np

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


# rule -> the test a value (each item of a list) must pass; the rule's
# text is the "must be" of its error message
_RULES = {
    "finite": math.isfinite,
    "finite and > 0": lambda v: 0.0 < v < math.inf,
    "> 0": lambda v: v > 0.0,
    ">= 0": lambda v: v >= 0.0,
    ">= 1": lambda v: v >= 1,
    ">= 2": lambda v: v >= 2,
    "in [0, 1]": lambda v: 0.0 <= v <= 1.0,
    "nonzero": lambda v: v != 0.0,
    "adaptive, rk45 or rk4": ("adaptive", "rk45", "rk4").__contains__,
    "csv or json": ("csv", "json").__contains__,
}
_FINITE, _POSITIVE = ("finite",), ("finite and > 0",)


def _dataclass_section(cls, **rules) -> dict:
    # the annotations are strings (postponed evaluation), so a field's
    # annotation is its type name; rules gives each field's rules
    return {f.name: (f.type, f.default, rules[f.name]) for f in fields(cls)}


# section -> key -> (type name, default, rules); the sections that build
# a dataclass take its fields, names, types and defaults.  A rule reads
# one key; the checks that read two are the CLI's
SCHEMA = {
    "model": _dataclass_section(Params, v=("finite", ">= 0"), u=_FINITE,
                                r=_FINITE, gamma_a=_FINITE, gamma_b=_FINITE),
    "reduced": _dataclass_section(ReducedParams, c=_FINITE,
                                  omega=("finite", "> 0"), r=_FINITE,
                                  gamma=_FINITE),
    "integrator": _dataclass_section(
        IntegratorConfig, method=("adaptive, rk45 or rk4",), rtol=_POSITIVE,
        atol=_POSITIVE, dt=_POSITIVE, t_final=_POSITIVE,
        record_every=(">= 1",)),
    "initial": {
        "a0_sq": ("float", 1.0, ("in [0, 1]",)),
        "theta0": ("float", 0.0, _FINITE),
    },
    "scan": {
        "c_min": ("float", 0.0, ()),
        "c_max": ("float", 3.0, ()),
        "r_min": ("float", -2.0, ()),
        "r_max": ("float", 2.0, ()),
        "resolution_c": ("int", 200, (">= 2",)),
        "resolution_r": ("int", 200, (">= 2",)),
        "refine_tol": ("float", 1e-3, _POSITIVE),
    },
    "sweep": {
        "betas": ("floatlist", [0.1, 0.2, 0.5, 1.0], ("finite", "nonzero")),
        "gammas": ("floatlist", [-0.5, 0.0, 0.5], _FINITE),
        "r_max": ("float", 5.0, _POSITIVE),
    },
    "trap": {
        "gamma": ("float", -0.5, _FINITE),
        "a0_sq": ("float", 0.9, ("in [0, 1]",)),
        "theta0": ("float", math.pi, _FINITE),
        "t_span": ("float", 20.0, _POSITIVE),
    },
    "portrait": {
        "n_s": ("int", 5, (">= 1",)),
        "n_theta": ("int", 8, (">= 1",)),
        "t_span": ("float", 20.0, _POSITIVE),
    },
    "output": {
        "path": ("str", "out", ()),
        "format": ("str", "csv", ("csv or json",)),
    },
}


def default_config() -> dict:
    """Fully populated config with every documented default."""
    return {f"{sec}.{key}": default
            for sec, keys in SCHEMA.items()
            for key, (_type, default, _rules) in keys.items()}


def _parse_value(section: str, key: str, raw):
    """raw as a value of [section] key: parsed as its type, then checked
    against each of its rules in turn (a list item by item), the first
    failure a ConfigError naming the key, the rule and the bad value."""
    try:
        type_name, _, rules = SCHEMA[section][key]
    except KeyError:
        raise ConfigError(f"unknown config key [{section}] {key}") from None
    try:
        value = _PARSERS[type_name](raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(
            f"bad value for [{section}] {key}: {raw!r} ({exc})") from None
    for rule in rules:
        for item in value if isinstance(value, list) else (value,):
            if not _RULES[rule](item):
                raise ConfigError(
                    f"[{section}] {key} must be {rule}, got {item!r}")
    return value


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
    """Shortest round-trip text form of a table value."""
    if isinstance(val, bool):
        return "true" if val else "false"
    if isinstance(val, float):
        return repr(float(val))  # plain float: numpy scalars repr differently
    return str(val)


# exact type -> format_value for a value of that type
_COLUMN_FORMATS = {float: float.__repr__, int: int.__repr__, str: str,
                   bool: {True: "true", False: "false"}.__getitem__}
_BLOCK = 4096  # rows joined at once: bounds the value strings held


@dataclass(frozen=True)
class Coded:
    """A dictionary-encoded table column: row k holds values[codes[k]].

    values may hold equal values more than once; codes is a sequence
    of ints (a list or an integer array), one per row.
    """

    values: Sequence
    codes: Sequence


def write_json(path, obj):
    Path(path).write_text(
        json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_table(directory, stem, header, columns, fmt):
    """Write a table as stem.csv or stem.json depending on fmt.

    columns holds one column per header name, in header order: a plain
    sequence of one value per row, or a Coded column of distinct values
    and a code per row.  A column that repeats a few values over many
    rows (a grid's axes, a regime map's label codes) is best coded,
    as each of its values is formatted once, not once per row.

    The bytes are those of one line per row of format_value's texts
    (csv), or of json.dumps(records, indent=2, sort_keys=True) and a
    newline for one record per row (json; header names distinct).  Each
    value is formatted by format_value (csv; a column of one exact type,
    float, int, str or bool, maps its type's formatter) or json.dumps
    (json), with its field's layout text (the csv comma, the json
    indent and key) joined on; adjacent coded columns that share one
    codes object (by identity) and have as many values are one field,
    whose texts per code are joined before the codes index them; rows
    are then joined _BLOCK at a time, with the json record's close in
    the text between rows.
    Columns whose count differs from the header's, or whose lengths
    differ, raise ValueError before the file is opened; a plain json
    column's value that json.dumps cannot encode raises its TypeError
    once the file is open, and the partial file is removed.
    """
    lengths = {len(col.codes if isinstance(col, Coded) else col)
               for col in columns}
    if len(columns) != len(header) or len(lengths) > 1:
        raise ValueError(f"{len(columns)} columns for {len(header)} names, "
                         f"of lengths {sorted(lengths)}")
    if fmt == "csv":
        order, text = range(len(header)), None
        leads = [""] + [","] * (len(header) - 1)
        sep, tail = "\n", "\n"
        head = empty = ",".join(header) + "\n"
    elif fmt == "json":
        order, text = sorted(range(len(header)), key=header.__getitem__), json.dumps
        leads = [(",\n" if n else "  {\n") + f"    {json.dumps(header[k])}: "
                 for n, k in enumerate(order)]
        sep, head, tail, empty = "\n  },\n", "[\n", "\n  }\n]\n", "[]\n"
    else:
        raise ConfigError(f"unknown output format {fmt!r}")

    def texts(values, lead):  # lead + the text of each value
        fmt_value = text
        if fmt_value is None:
            types = set(map(type, values))
            fmt_value = (_COLUMN_FORMATS.get(types.pop()) if len(types) == 1
                         else None) or format_value
        return [lead + t for t in map(fmt_value, values)]

    def field(run):  # i -> the texts of rows i to i + _BLOCK
        col, lead = run[0]
        if not isinstance(col, Coded):
            return lambda i: texts(col[i:i + _BLOCK], lead)
        # the run's columns share col.codes: each code's texts are
        # joined once, and the codes are indexed once for them all
        joined = zip(*(texts(c.values, c_lead) for c, c_lead in run))
        coded = np.array(list(map("".join, joined)), dtype=object)
        codes = np.asarray(col.codes)
        return lambda i: coded[codes[i:i + _BLOCK]].tolist()

    def run_key(pair):
        col = pair[0]
        if isinstance(col, Coded):
            return id(col.codes), len(col.values)
        return id(pair)

    # the fields in runs: adjacent coded columns of one codes object and
    # as many values, or one plain column
    pairs = [(columns[k], lead) for k, lead in zip(order, leads)]
    blocks = [field(list(run)) for _, run in groupby(pairs, key=run_key)]
    n_rows = lengths.pop() if lengths else 0
    out = Path(directory) / f"{stem}.{fmt}"
    fh = out.open("w", encoding="utf-8")
    try:
        with fh:
            fh.write(head if n_rows else empty)
            for i in range(0, n_rows, _BLOCK):
                rows = map("".join, zip(*(block(i) for block in blocks)))
                fh.write((sep if i else "") + sep.join(rows))
            fh.write(tail if n_rows else "")
    except BaseException:
        out.unlink(missing_ok=True)  # no partial table is left behind
        raise
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
