"""The README's Python examples run as written (training shortened to one epoch)."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_python_block_runs(index, capsys):
    source = re.sub(r"\bepochs=\d+", "epochs=1", BLOCKS[index])
    exec(compile(source, f"README.md python block {index}", "exec"), {})
    assert capsys.readouterr().out.strip()
