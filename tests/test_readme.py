"""README's "Library quick start" runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(code, f"{README.name} (Library quick start)", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("0.24085458")     # the digits the README comment gives
    assert [line.split()[0] for line in lines[1:]] == ["3f2", "exact"]
