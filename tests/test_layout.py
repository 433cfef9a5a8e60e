"""Package layering: the scalar oracles stay off the hot path.

`diffbeam.oracles` holds the scalar reference implementations the tests
check the vectorized code against. Only the package's ``__init__`` may
import it (to re-export the names the acceptance criteria reach); a hot
module that imported it would put an oracle back on a code path.
"""

import ast
from pathlib import Path

import pytest

import diffbeam

PACKAGE = Path(diffbeam.__file__).parent


def imported_modules(tree: ast.AST) -> set[str]:
    """Absolute names of the package modules an AST imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = ".".join(["diffbeam", node.module] if node.module else ["diffbeam"])
            else:
                base = node.module or ""
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_no_hot_module_imports_the_oracles(path):
    assert "diffbeam.oracles" not in imported_modules(ast.parse(path.read_text()))


def test_the_scan_sees_every_import_form():
    for source in (
        "from .oracles import bessel_j",
        "from . import oracles",
        "import diffbeam.oracles",
        "from diffbeam.oracles import bessel_j",
        "from diffbeam import oracles",
    ):
        assert "diffbeam.oracles" in imported_modules(ast.parse(source)), source


def test_every_exported_name_resolves():
    missing = [name for name in diffbeam.__all__ if not hasattr(diffbeam, name)]
    assert missing == []
    assert len(set(diffbeam.__all__)) == len(diffbeam.__all__)
