"""The package surface that outside code relies on: the top-level exports,
README's library example and every function the benchmark tracer wraps,
called as often as the tracer's layers assume."""
import argparse
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import tsrg
import tsrg.classifier
import tsrg.cli
from tsrg.classifier import LabeledDataset
from tsrg.kernels import FeatureMatrix

REPO = Path(__file__).resolve().parents[1]


def test_every_exported_name_exists():
    missing = [name for name in tsrg.__all__ if not hasattr(tsrg, name)]
    assert missing == []


def test_readme_library_import():
    readme = (REPO / "README.md").read_text()
    statement = re.search(r"^from tsrg import \([^)]*\)", readme, re.MULTILINE)
    assert statement is not None, "README has no `from tsrg import (...)` example"
    exec(statement.group(0), {})


def test_readme_library_example_runs_end_to_end():
    # the block draws synth_generate data, fits, regenerates and measures the MMD
    readme = (REPO / "README.md").read_text()
    block = re.search(r"^## Library\n+```python\n(.*?)^```", readme, re.MULTILINE | re.DOTALL)
    assert block is not None, "README's Library section opens with no python block"
    scope = {}
    exec(block.group(1), scope)
    assert scope["model"].x_s is scope["x_s"] and scope["model"].x_t is scope["x_t"]
    assert scope["x_t_regen"].data.shape == scope["x_t"].data.shape
    assert scope["gap_after"] < scope["gap_before"]


def test_readme_cli_flags_exist():
    readme = (REPO / "README.md").read_text()
    section = re.search(r"^## CLI\n(.*?)^## ", readme, re.MULTILINE | re.DOTALL)
    assert section is not None, "README has no `## CLI` section"
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section.group(1)))
    subcommands = next(action for action in tsrg.cli.build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    known = {option for parser in subcommands.choices.values()
             for action in parser._actions for option in action.option_strings}
    assert named and sorted(named - known) == []


def test_import_loads_neither_scipy_nor_pillow():
    """pyproject.toml declares numpy only; Pillow is imported when an image
    directory is read, not before."""
    code = ("import sys, tsrg, tsrg.cli; "
            "print(sorted({'scipy', 'PIL'} & {m.split('.')[0] for m in sys.modules}))")
    package_root = str(Path(tsrg.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=dict(os.environ, PYTHONPATH=package_root))
    assert proc.stdout == "[]\n"


def test_every_tracer_hook_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    tracer = importlib.import_module("tracer")
    paths = [path for paths in tracer.HOOKS.values() for path in paths]
    assert paths
    for path in paths:
        owner, attr = tracer._resolve(path)
        assert callable(getattr(owner, attr)), path


def test_train_calls_the_traced_binary_solver_once_per_class(monkeypatch):
    """The tracer's classifier.binary layer counts one call per binary problem."""
    solve = tsrg.classifier._dual_cd_hinge
    grams = []

    def counting(gram, *args, **kwargs):
        grams.append(gram)
        return solve(gram, *args, **kwargs)

    monkeypatch.setattr(tsrg.classifier, "_dual_cd_hinge", counting)
    k, n = 4, 24
    data = LabeledDataset(FeatureMatrix(np.random.default_rng(0).standard_normal((5, n))),
                          np.arange(n) % k, tuple("abcd"))
    tsrg.classifier.train(data, 1.0)
    assert len(grams) == k
    assert grams[0].shape == (n, n)
    assert all(gram is grams[0] for gram in grams)
