"""The package's public names, which resolve from layer modules that run on
first use: each check starts a fresh interpreter, where no layer has run."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import avoidance

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")


def fresh(code: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_dir_lists_every_public_name():
    out = fresh("import avoidance\nprint(sorted(set(avoidance.__all__) - set(dir(avoidance))))")
    assert out == "[]\n"
    assert "max_p" in dir(avoidance)


def test_star_import_binds_every_public_name():
    out = fresh(
        "import avoidance\n"
        "names = {}\n"
        "exec('from avoidance import *', names)\n"
        "print(sorted(set(avoidance.__all__) - set(names)))\n"
        "print([n for n in avoidance.__all__ if names[n] is not getattr(avoidance, n)])\n"
    )
    assert out == "[]\n[]\n"


def test_reexports_are_the_layers_own_objects():
    # each name is looked up through the package first, before its layer runs
    out = fresh(
        "import importlib, avoidance\n"
        "for name in avoidance.__all__[1:]:\n"
        "    obj = getattr(avoidance, name)\n"
        "    layer = importlib.import_module(f'avoidance.{avoidance._EXPORTS[name]}')\n"
        "    if name not in layer.__all__ or getattr(layer, name) is not obj:\n"
        "        print(name)\n"
        "print(avoidance.max_p is avoidance.bounds.max_p)\n"
    )
    assert out == "True\n"


@pytest.mark.parametrize("name", ["no_such_name", "DEFAULT_TOL", "_scales"])
def test_unknown_name_raises_attribute_error(name):
    # DEFAULT_TOL exists in a layer but is not re-exported; no layer has _scales
    with pytest.raises(AttributeError, match=rf"^module 'avoidance' has no attribute '{name}'$"):
        getattr(avoidance, name)
    assert not hasattr(avoidance, name)


@pytest.mark.parametrize("layer", avoidance._LAYERS)
def test_every_name_in_a_layers_all_is_defined(layer):
    # perfbench's tracer reads every name in each layer's __all__, so a stale
    # entry would stop every traced run
    module = importlib.import_module(f"avoidance.{layer}")
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_pyproject_version_is_the_package_version():
    # read with a regex: Python 3.10, which pyproject.toml allows, has no tomllib
    text = (ROOT / "pyproject.toml").read_text()
    version = re.search(r'^version\s*=\s*"([^"]+)"', text, re.M).group(1)
    assert version == avoidance.__version__
