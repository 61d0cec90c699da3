"""The runtime needs nothing beyond the standard library: every module
of the package imports only stdlib modules and its own siblings."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "mizthf"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_imports_are_stdlib_or_package_relative(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        for module in modules:
            assert module.split(".")[0] in sys.stdlib_module_names, (
                f"{path.name}:{node.lineno} imports {module!r}, which is "
                "neither in the standard library nor package-relative")
