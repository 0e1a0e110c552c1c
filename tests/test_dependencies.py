"""The package imports only the standard library and numpy, leaves the check battery out of its root, keeps dataclasses for validated inputs, exports what it binds, and reads each config key."""

import ast
import dataclasses
import importlib
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import nehari_fpl
from nehari_fpl import BubbleSpec, GridFunction, ParameterError
from nehari_fpl.config import DEFAULTS

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nehari_fpl"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def test_package_imports_only_stdlib_and_numpy():
    foreign = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno} {n}" for n in names if n.split(".")[0] not in ALLOWED]
    assert foreign == []


def test_package_import_leaves_out_the_check_battery():
    # only verify and energy-check run the battery; the CLI still imports it
    # when it loads, so a tracer installed after that finds run_battery
    probe = (
        "import sys, nehari_fpl; print('nehari_fpl.verification' in sys.modules); "
        "import nehari_fpl.cli; print('nehari_fpl.verification' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.split() == ["False", "True"]


def test_only_validated_inputs_are_dataclasses():
    # on Python 3.11 each frozen dataclass costs 0.5-1.5 ms of generated-method
    # compilation at every interpreter start (2-core Xeon), and the CLI starts
    # one per command; returned records are NamedTuples, and a dataclass is
    # kept only where dataclasses.replace must rerun __post_init__'s checks
    # (Grid also because the benchmark's tracer reads it through vars())
    found = set()
    for info in pkgutil.iter_modules(nehari_fpl.__path__):
        module = importlib.import_module(f"nehari_fpl.{info.name}")
        found |= {
            name for name, value in vars(module).items()
            if isinstance(value, type) and value.__module__ == module.__name__ and dataclasses.is_dataclass(value)
        }
    assert sorted(found) == ["BubbleSpec", "Grid", "GridFunction", "Params"]


def test_replace_revalidates_the_kept_dataclasses(params, grid48):
    # the reason they stay dataclasses: a NamedTuple's _replace would skip the checks
    u = GridFunction(grid48, np.ones(grid48.n))
    v = np.ones(grid48.n)
    v[grid48.n // 2] = np.nan
    with pytest.raises(ParameterError):
        dataclasses.replace(params, mu=-1.0)
    with pytest.raises(ParameterError):
        dataclasses.replace(BubbleSpec(0.1, 0.25), eps=0.0)
    with pytest.raises(ParameterError):
        dataclasses.replace(u, values=v)


def test_all_lists_exactly_the_public_bindings():
    # submodules are bound as attributes too, but are not part of __all__
    public = {
        name for name, value in vars(nehari_fpl).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(public - set(nehari_fpl.__all__)) == []
    assert sorted(set(nehari_fpl.__all__) - set(vars(nehari_fpl))) == []


def test_every_config_key_is_read_and_every_read_is_a_key():
    # a setting nothing reads is a knob that does nothing; a read of a key
    # DEFAULTS lacks would fail only when that line runs
    read = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if (
                isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Name)
                and node.value.id == "cfg"
                and isinstance(node.slice, ast.Constant)
                and isinstance(node.slice.value, str)
            ):
                read.add(node.slice.value)
    assert sorted(set(DEFAULTS) - read) == []
    assert sorted(read - set(DEFAULTS)) == []
