"""The README's code examples run against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    # a public name the example uses cannot vanish unnoticed
    text = README.read_text(encoding="utf-8")
    (code,) = re.findall(r"^## Library\n\n```python\n(.*?)^```", text, re.S | re.M)
    exec(compile(code, f"{README}:Library", "exec"), {})
    assert capsys.readouterr().out
