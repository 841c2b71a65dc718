"""The package runs on the standard library alone: no module of geomprod
imports a third-party package, and pyproject.toml declares no runtime
dependency (numpy and scipy belong to the `test` extra)."""

import ast
import sys
from pathlib import Path

import pytest

import geomprod

PACKAGE = Path(geomprod.__file__).parent


def _absolute_imports(path: Path):
    """(line, top-level name) of every absolute import in the module at path,
    function-level imports included; relative imports are skipped."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_the_standard_library(path):
    outside = [(line, name) for line, name in _absolute_imports(path)
               if name not in sys.stdlib_module_names]
    assert outside == []


def test_guard_sees_function_level_imports(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import math\n\ndef f():\n    import numpy as np\n"
                    "    from scipy.interpolate import PchipInterpolator\n"
                    "from . import core\n", encoding="utf-8")
    assert sorted(_absolute_imports(path)) == [(1, "math"), (4, "numpy"), (5, "scipy")]


def test_pyproject_declares_no_runtime_dependency():
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10, where the test extra installs tomli
        import tomli as tomllib
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == []
    test_extra = project["optional-dependencies"]["test"]
    assert any(req.startswith("numpy") for req in test_extra)
    assert any(req.startswith("scipy") for req in test_extra)
