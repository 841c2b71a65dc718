"""The checked value is the value used: no module of geomprod calls a number
check (check_real, check_reals, check_integer, check_n_max, _check_r,
_check_plan) as a bare statement that throws its result away, so the code
past an entry computes with the float or the int the check returns, never
with the caller's int, Fraction or numpy scalar."""

import ast
from pathlib import Path

import pytest

import geomprod

PACKAGE = Path(geomprod.__file__).parent
CHECKS = {"check_real", "check_reals", "check_integer", "check_n_max", "_check_r", "_check_plan"}


def _discarded_checks(path: Path):
    """(line, name) of every call to a check in CHECKS, by plain or dotted
    name, that stands alone as an expression statement in the module at path."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            func = node.value.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in CHECKS:
                yield node.lineno, name


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_keeps_every_checked_value(path):
    assert list(_discarded_checks(path)) == []


def test_guard_sees_bare_calls_only(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("def f(x, n, r):\n    check_real(x, 'x')\n    n = check_integer(n, 'n')\n"
                    "    if core._check_r(r) > 2:\n        combinatorics.check_n_max(n, 'S', 1)\n"
                    "    return [check_real(v, 'v') for v in (x, r)]\n", encoding="utf-8")
    assert list(_discarded_checks(path)) == [(2, "check_real"), (5, "check_n_max")]
