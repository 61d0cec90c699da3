"""The emitter and the checker stay independent, so a bug must be made
twice to pass unseen: ``thfcheck`` takes nothing from the modules that
build THF text but the types of ``hol``, ``thf`` never consults the
checker, and ``hol`` stands on the standard library alone."""

from __future__ import annotations

import ast
from pathlib import Path

from mizthf import hol

PACKAGE = Path(__file__).parent.parent / "src" / "mizthf"


def sibling_imports(module: str) -> dict[str, set[str]]:
    """The sibling modules ``module`` imports, each with the names it
    takes from that module (attributes read off a module import count)."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    out: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.level):
            continue
        if node.module:
            out.setdefault(node.module, set()).update(
                a.name for a in node.names)
        else:
            for a in node.names:
                out.setdefault(a.name, set())
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in out):
            out[node.value.id].add(node.attr)
    return out


def test_checker_uses_only_hol_types():
    imports = sibling_imports("thfcheck")
    assert not imports.keys() & {"thf", "translate", "declarations",
                                 "patterns"}
    for name in imports.get("hol", ()):
        obj = getattr(hol, name)
        assert isinstance(obj, hol.Type) or (
            isinstance(obj, type) and issubclass(obj, hol.Type)), name


def test_emitter_does_not_import_the_checker():
    assert "thfcheck" not in sibling_imports("thf")


def test_hol_imports_no_sibling():
    assert sibling_imports("hol") == {}
