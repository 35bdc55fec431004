"""The README's library example and example configs run against the
current API."""

import re
from pathlib import Path

from atomol.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert blocks, "no python block under 'Library quick start'"
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out


def test_example_configs_run(tmp_path, capsys):
    # configparser keeps an inline "; comment" as part of the value
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```ini\n(.*?)```", text, flags=re.S)
    assert blocks, "no ini block in the README"
    for k, block in enumerate(blocks):
        ini = tmp_path / f"example{k}.ini"
        ini.write_text(block, encoding="utf-8")
        rc = main(["evolve", "--config", str(ini), "--t-final", "1",
                   "--output", str(tmp_path / f"out{k}")])
        assert rc == 0, (block, capsys.readouterr().err)
