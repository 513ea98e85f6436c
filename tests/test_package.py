"""The package surface that outside code relies on: the top-level exports,
README's library example and every function the benchmark tracer wraps."""
import importlib
import re
from pathlib import Path

import tsrg

REPO = Path(__file__).resolve().parents[1]


def test_every_exported_name_exists():
    missing = [name for name in tsrg.__all__ if not hasattr(tsrg, name)]
    assert missing == []


def test_readme_library_import():
    readme = (REPO / "README.md").read_text()
    statement = re.search(r"^from tsrg import \([^)]*\)", readme, re.MULTILINE)
    assert statement is not None, "README has no `from tsrg import (...)` example"
    exec(statement.group(0), {})


def test_every_tracer_hook_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    tracer = importlib.import_module("tracer")
    paths = [path for paths in tracer.HOOKS.values() for path in paths]
    assert paths
    for path in paths:
        owner, attr = tracer._resolve(path)
        assert callable(getattr(owner, attr)), path
