import os
import subprocess
import sys
from pathlib import Path

import pytest

import tsrg


@pytest.fixture
def run_cli():
    """Run ``python -m tsrg.cli`` in ``cwd`` on the test process's import path.

    The directory holding the imported ``tsrg`` goes first on PYTHONPATH as an
    absolute path, so the subprocess finds the same package from any working
    directory, whether it is installed or found through ``src``.  ``env``
    adds variables to, or overrides them in, the subprocess's environment.
    """
    package_root = str(Path(tsrg.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    base_env = dict(os.environ, PYTHONPATH=path)

    def run(args, cwd, env=None):
        return subprocess.run([sys.executable, "-m", "tsrg.cli", *args],
                              capture_output=True, text=True, cwd=cwd,
                              env={**base_env, **(env or {})})

    return run
