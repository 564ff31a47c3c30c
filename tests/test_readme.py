import re
from pathlib import Path

import pytest

import nhlattice

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_example_runs_as_written(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    # the example ends by printing W of the topological pattern
    assert float(capsys.readouterr().out.splitlines()[-1]) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("name", nhlattice.__all__)
def test_public_name_imports(name):
    exec(f"from nhlattice import {name}", {})
