"""The README's library example runs as documented, and its config-key table
states what the spec fields do."""
from __future__ import annotations

import re
from pathlib import Path

from collectsim.cli import KEYS

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library example"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README}:library example", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == [
        "simulated", "formula", "lower"]


def test_readme_key_table_matches_the_spec_fields():
    # README states each key's default and meaning a third time, next to
    # the ExperimentSpec field metadata that build_spec reads
    def row(key, meta):
        default = meta["default"]
        if default is None:
            required, shown = "yes", "—"
        else:
            required, shown = "no", f"`{default}`" if default else "empty"
        return f"| `{key}` | {required} | {shown} | {meta['help']} |"

    text = README.read_text()
    table = text[text.index("| Key | Required | Default | Meaning |"):]
    rows = table.split("\n\n", 1)[0].splitlines()[2:]
    assert rows == [row(key, f.metadata) for key, f in KEYS.items()]
