import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_snippet_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README}:Library use", "exec"), {})
    out = capsys.readouterr().out
    assert '{"tick": 2, "input": "-", "state": "MILD"' in out
    assert "deterministic" in out
    assert "HIGH (255, 0, 0)" in out
    assert "['MILD', 'MILD']" in out
