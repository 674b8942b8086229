"""Smoke tests of the demos: the quick ones run end to end, and every name
a demo imports from the package must exist (the dielectric demo samples two
200-point curves, so it is only checked for its imports)."""

import ast
import runpy
from pathlib import Path

import pytest

import casimir_laurent

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["vacuum_pipeline.py", "synthetic_recovery.py",
                                  "sensitivity_scan.py"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert "c0" in capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_imports_exist(name):
    tree = ast.parse((DEMOS / name).read_text())
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "casimir_laurent"
                for alias in node.names]
    assert imported
    assert [n for n in imported if not hasattr(casimir_laurent, n)] == []
