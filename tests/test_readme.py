"""The README's code examples run as written."""

import functools
import re
from pathlib import Path

import fddkit

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs(monkeypatch, capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    # the stock recipe takes minutes; the same code on a tiny one
    monkeypatch.setattr(fddkit, "ExperimentSpec", functools.partial(
        fddkit.ExperimentSpec, classes=(0, 1, 3, 11), incipient=(3, 11),
        n_series=1, n_series_level2=1, horizon=120, window=10, onset=40,
        epochs=2, encoder=(5,)))
    exec(compile(blocks[0], str(README), "exec"), {})
    assert 0.0 <= float(capsys.readouterr().out) <= 1.0
