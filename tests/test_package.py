import importlib
import sys
from pathlib import Path

import pytest


@pytest.mark.parametrize("module", ["dmst", "dmst.sparsify"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_console_script_runs_the_cli(tmp_path, monkeypatch):
    # the `dmst` command pyproject.toml declares, called as the installed script calls it
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    target = tomllib.loads((root / "pyproject.toml").read_text())["project"]["scripts"]["dmst"]
    module, _, attr = target.partition(":")
    entry = getattr(importlib.import_module(module), attr)
    csv = tmp_path / "p.csv"
    argv = ["dmst", "profile", "--op", "dmsa", "--tokens", "8", "--csv", str(csv)]
    monkeypatch.setattr(sys, "argv", argv)
    with pytest.raises(SystemExit) as done:
        entry()
    assert done.value.code == 0
    assert csv.read_text().startswith("op,tokens,peak_floats\n")
