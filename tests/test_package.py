import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

import dmst


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


def _names_read_by_the_library(root):
    # names loaded, attributes read and names imported: a definition, a
    # docstring or an ``__all__`` entry is not a use
    names = set()
    for path in (root / "src" / "dmst").glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_every_exported_name_has_a_caller_outside_the_tests():
    # the package, the benchmark harness and CI are the callers; a name only
    # tests reach is surface the library need not carry
    root = Path(__file__).resolve().parents[1]
    used = _names_read_by_the_library(root)
    # the harness and CI name their targets in dotted strings and shell lines
    texts = [p.read_text() for p in (root / "perfbench").glob("*.py")]
    texts += [p.read_text() for p in (root / ".github" / "workflows").glob("*.yml")]
    unused = [
        name for name in dmst.__all__
        if name not in used and not any(re.search(rf"\b{name}\b", t) for t in texts)
    ]
    assert unused == []
