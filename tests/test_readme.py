"""The README's code examples and command table match the package as it is."""

import dataclasses
import re
from pathlib import Path

from shapeinv import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    # a public name the example uses cannot vanish unnoticed
    text = README.read_text(encoding="utf-8")
    (code,) = re.findall(r"^## Library\n\n```python\n(.*?)^```", text, re.S | re.M)
    exec(compile(code, f"{README}:Library", "exec"), {})
    assert capsys.readouterr().out


def test_command_table_matches_commands():
    # each row of the README's command table against cli.COMMANDS: the
    # default m list (m - t for each t of m_translates) and the settings read
    text = README.read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(\w+)` \| `([^`]*)` \| (.*) \|$", text, re.M)
    assert [name for name, _, _ in rows] == list(cli.COMMANDS)
    for name, m_list, reads in rows:
        command = cli.COMMANDS[name]
        translates = tuple(float(m.partition("-")[2] or 0) for m in m_list.split(", "))
        assert translates == command.m_translates, name
        if reads == "every field of `RunConfig`":
            assert command.reads == tuple(f.name for f in dataclasses.fields(cli.RunConfig))
        else:
            assert tuple(re.findall(r"`(\w+)`", reads)) == command.reads, name
