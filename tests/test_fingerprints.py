"""Output fingerprints: sha256 of the data files of a fixed set of CLI runs.

Refactors must leave every data file byte-identical.  The recorded
digests live in fingerprints.json next to this file; manifest.json is
left out because it carries a timestamp.

The bytes depend on the numpy version, so every check is skipped when
the installed numpy differs from the recorded one, and on the
platform's libm (atan2, hypot, sin, cos, exp, pow).  They do not depend
on the SIMD loops numpy dispatches to on this CPU (AVX-512, AVX2):
every magnitude and phase whose numpy loops differ from libm in the
last bit is taken in Python, and
test_data_files_do_not_depend_on_simd_dispatch reruns every run in a
child whose numpy has those targets switched off.

glibc picks FMA variants of sin, cos, atan2, exp and pow at load time,
and they round differently; GLIBC_TUNABLES=glibc.cpu.hwcaps=-FMA,-AVX2
switches them off (hypot and sqrt gave the same bits either way).
test_data_files_but_the_portraits_do_not_depend_on_fma_dispatch reruns
the runs of FMA_FREE_RUNS, the 16 of the 19 runs that are not
portraits, in a child with the tunable set.  Only the 8(5,3) sweeps
(sweep, sweep-bench, sweep-json) call none of those functions; the
other runs call atan2, pow (err ** -0.2 in the 4(5) step size), sin,
cos or exp, and were only seen to keep their bits.  The portrait runs (the chart's sin and cos,
and err ** -0.2) change under the tunable.

Re-record (only when an output change is intended and explained):

    PYTHONPATH=src python tests/test_fingerprints.py

which prints every run/file whose digest differs from the old record.
"""

import hashlib
import json
import math
import os
import platform
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import atomol
from atomol.cli import main

RECORD = Path(__file__).with_name("fingerprints.json")

# run name -> CLI arguments
RUNS = {
    "regimes-g0": ["regimes", "--resolution", "41", "--gamma", "0"],
    "regimes-g0.6": ["regimes", "--resolution", "41", "--gamma", "0.6"],
    # the default map at Gamma = 2.5: its cell (C, R) = (2.8643..., 0.9547...)
    # sits next to R = C/3, which carries no regime flip (1/3 < S*)
    "regimes-g2.5": ["regimes", "--gamma", "2.5"],
    "regimes-json": ["regimes", "--resolution", "41", "--gamma", "0.6",
                     "--format", "json"],
    # the census bench grid: 200x200 cells at Gamma = 0.6
    "regimes-bench": ["regimes", "--gamma", "0.6"],
    # a grid with n_c != n_r: the axis codes and the row fill read both
    "regimes-rect": ["regimes", "--resolution", "37,53", "--gamma", "0.3"],
    "regimes-rect-json": ["regimes", "--resolution", "37,53", "--gamma", "0.3",
                          "--format", "json"],
    "fixed-points": ["fixed-points", "--c", "1", "--gamma", "0.3"],
    "portrait": ["portrait", "--n-s", "3", "--n-theta", "4",
                 "--t-span", "5"],
    # the portrait bench grid: pole events and the grazing orbit
    "portrait-g0.4": ["portrait", "--gamma", "0.4", "--n-s", "5",
                      "--n-theta", "8", "--t-span", "20"],
    "sweep": ["sweep", "--beta", "1.0", "--gamma=-0.5,0,0.5",
              "--r-max", "2"],
    # the sweep bench grid: the long beta = 0.1 solves dominate it
    "sweep-bench": ["sweep", "--beta", "0.1,0.2,0.5,1.0",
                    "--gamma=-0.5,0,0.5"],
    "trap": ["trap", "--u", "1.5", "--t-span", "5"],
    "evolve": ["evolve", "--u", "2", "--a0-sq", "0.7", "--t-final", "3"],
    # the JSON table of each table-writing command; at v = 0 the sweep's
    # m is undefined for Gamma != 0, an empty-string cell
    "evolve-json": ["evolve", "--u", "2", "--a0-sq", "0.7", "--t-final", "1",
                    "--format", "json"],
    "fixed-points-json": ["fixed-points", "--c", "1", "--gamma", "0.3",
                          "--format", "json"],
    "sweep-json": ["sweep", "--v", "0", "--beta", "0.5", "--gamma=0,0.4",
                   "--format", "json"],
    "trap-json": ["trap", "--u", "1.5", "--t-span", "2", "--format", "json"],
    "portrait-json": ["portrait", "--n-s", "2", "--n-theta", "3",
                      "--t-span", "3", "--format", "json"],
}


def fingerprints(workdir: Path, names=RUNS) -> dict:
    """Run the named entries of RUNS (all by default) under workdir;
    {run: {file: sha256}}."""
    out = {}
    for name in names:
        outdir = workdir / name
        assert main(RUNS[name] + ["--output", str(outdir)]) == 0, name
        out[name] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                     for p in sorted(outdir.iterdir())
                     if p.name != "manifest.json"}
    return out


# numpy's x86 dispatch targets above the baseline: with them on, its
# complex abs and arctan2 loops differed from libm in the last bit
SIMD_TARGETS = ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")

# the runs whose data files kept their bits with glibc's FMA variants
# switched off: every run but the portraits.  Of them only the 8(5,3)
# sweeps (sweep, sweep-bench, sweep-json) take no libm function that
# glibc dispatches on FMA: their solves step with products, sums and
# square roots only, and their efficiencies read abs, libm's hypot
FMA_FREE_RUNS = tuple(name for name in RUNS
                      if not name.startswith("portrait"))

# the child: fingerprints() of the runs named in argv[3:] (every run
# when none is named) and libm_probe(), as JSON to the file argv[2]
CHILD = """
import json, sys
from pathlib import Path
from test_fingerprints import RUNS, fingerprints, libm_probe
runs = fingerprints(Path(sys.argv[1]), sys.argv[3:] or RUNS)
Path(sys.argv[2]).write_text(json.dumps({"runs": runs,
                                         "libm": libm_probe()}))
"""


def libm_probe() -> str:
    """sha256 of x ** -0.2 and sin(x) on 20,000 fixed x in (0, 10]: on
    glibc 2.36 and an x86-64 CPU with FMA, 13 and 17 of them differed
    with glibc's FMA variants on and off."""
    rng = random.Random(0)
    xs = [rng.uniform(0.001, 10.0) for _ in range(20000)]
    text = " ".join([(x ** -0.2).hex() for x in xs]
                    + [math.sin(x).hex() for x in xs])
    return hashlib.sha256(text.encode()).hexdigest()


def run_child(tmp_path, env: dict, names=()) -> dict:
    """The CHILD's JSON, run under os.environ updated by env, with this
    checkout's src/ and tests/ on its path."""
    src = Path(atomol.__file__).resolve().parents[1]
    env = dict(os.environ, **env,
               PYTHONPATH=os.pathsep.join([str(src), str(RECORD.parent)]))
    out = tmp_path / "digests.json"
    subprocess.run([sys.executable, "-c", CHILD, str(tmp_path), str(out),
                    *names], env=env, check=True, stdout=subprocess.DEVNULL,
                   timeout=600)
    return json.loads(out.read_text())


def recorded_runs() -> dict:
    """The recorded digests; skips unless this numpy recorded them."""
    record = json.loads(RECORD.read_text())
    if record["numpy"] != np.__version__:
        pytest.skip(f"fingerprints recorded with numpy {record['numpy']}, "
                    f"installed {np.__version__}")
    return record["runs"]


def test_data_files_match_recorded_fingerprints(tmp_path):
    assert fingerprints(tmp_path) == recorded_runs()


def test_data_files_do_not_depend_on_simd_dispatch(tmp_path):
    # NPY_DISABLE_CPU_FEATURES acts on the child's numpy only; a target
    # this numpy was not built with cannot be switched off
    runs = recorded_runs()
    from numpy._core._multiarray_umath import __cpu_dispatch__
    targets = [t for t in SIMD_TARGETS if t in __cpu_dispatch__]
    if not targets:
        pytest.skip(f"numpy dispatches to none of {SIMD_TARGETS}")
    child = run_child(tmp_path, {"NPY_DISABLE_CPU_FEATURES": " ".join(targets)})
    assert child["runs"] == runs


def test_data_files_but_the_portraits_do_not_depend_on_fma_dispatch(
        tmp_path):
    # glibc picks FMA variants of pow, sin, cos, exp and atan2 at load
    # time; the tunable switches them off in the child only
    if (platform.machine() not in ("x86_64", "AMD64")
            or platform.libc_ver()[0] != "glibc"):
        pytest.skip("glibc's FMA dispatch is an x86-64 glibc feature")
    runs = recorded_runs()
    child = run_child(tmp_path,
                      {"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-FMA,-AVX2"},
                      FMA_FREE_RUNS)
    if child["libm"] == libm_probe():
        pytest.skip("the tunable changed no libm result: this CPU or "
                    "glibc has no FMA variants to switch off")
    assert child["runs"] == {name: runs[name] for name in FMA_FREE_RUNS}


if __name__ == "__main__":
    old = json.loads(RECORD.read_text())["runs"] if RECORD.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        runs = fingerprints(Path(tmp))
    for name, files in runs.items():
        for fname, digest in files.items():
            if old.get(name, {}).get(fname) != digest:
                print(f"changed: {name}/{fname}", file=sys.stderr)
    RECORD.write_text(json.dumps({"numpy": np.__version__, "runs": runs},
                                 indent=2, sort_keys=True) + "\n")
    print(f"wrote {RECORD}", file=sys.stderr)
