"""The README's code runs as written."""

import re

from conftest import REPO_ROOT


def test_readme_python_blocks_run(monkeypatch, capsys):
    """Every ```python block of the README runs from the repository root."""
    blocks = re.findall(r"^```python\n(.*?)^```$",
                        (REPO_ROOT / "README.md").read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    monkeypatch.chdir(REPO_ROOT)
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out
