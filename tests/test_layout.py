"""Package layering: the scalar oracles stay off the hot path, the
process-wide allocator policy stays at the entry points, and there is one
design path and one scoring path.

`diffbeam.oracles` holds the scalar reference implementations the tests
check the vectorized code against. Only the package's ``__init__`` may
import it (to re-export the names the acceptance criteria reach); a hot
module that imported it would put an oracle back on a code path.

`keep_freed_memory` changes the allocator of the whole process, so only
the programs' ``main`` functions call it: a library caller's allocator is
left alone, and importing a module changes nothing.
"""

import ast
from pathlib import Path

import pytest

import diffbeam

PACKAGE = Path(diffbeam.__file__).parent
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


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


def calling_functions(tree: ast.AST, name: str) -> list[str]:
    """The innermost function around each call of ``name``; "<module>" outside any."""
    callers = []

    def visit(node, scope):
        if isinstance(node, ast.FunctionDef):
            scope = node.name
        elif isinstance(node, ast.Call):
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if called == name:
                callers.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "<module>")
    return callers


def test_allocator_policy_is_set_by_the_entry_points_only():
    callers = {}
    for path in sorted([*PACKAGE.glob("*.py"), *SCRIPTS.glob("*.py")]):
        for scope in calling_functions(ast.parse(path.read_text()), "keep_freed_memory"):
            callers.setdefault(path.name, []).append(scope)
    assert callers == {"cli.py": ["main"], "montecarlo_study.py": ["main"]}


def test_the_call_scan_sees_module_level_and_nested_calls():
    source = (
        "keep_freed_memory()\n"
        "def main():\n"
        "    montecarlo.keep_freed_memory()\n"
        "    def inner():\n"
        "        keep_freed_memory()\n"
        "class Runner:\n"
        "    flag = keep_freed_memory()\n"
    )
    assert calling_functions(ast.parse(source), "keep_freed_memory") == [
        "<module>", "main", "inner", "<module>",
    ]


def test_one_design_path_and_one_scoring_path():
    # every command and script designs through `design_weights` and scores
    # through `pattern_coefficients`; the harmonic tensors come from
    # `element_harmonics` alone, built by the callers that design or score,
    # the test-only oracles aside
    callers = {}
    for path in sorted([*PACKAGE.glob("*.py"), *SCRIPTS.glob("*.py")]):
        tree = ast.parse(path.read_text())
        for name in ("design_weights", "pattern_coefficients", "element_harmonics",
                     "harmonic_tensor"):
            for scope in calling_functions(tree, name):
                callers.setdefault(name, {}).setdefault(path.name, []).append(scope)
    assert callers == {
        "design_weights": {
            "fixed_geometry_study.py": ["sweep"],
            "montecarlo.py": ["_run_chunk"],
            "solver.py": ["design_filter"],
        },
        "pattern_coefficients": {
            "fixed_geometry_study.py": ["sweep"],
            "metrics.py": ["filter_coefficients"],
            "montecarlo.py": ["_run_chunk"],
        },
        "element_harmonics": {
            "fixed_geometry_study.py": ["sweep"],
            "metrics.py": ["filter_coefficients"],
            # the scoring tensor, and the omni model's own q = 0 rows
            "montecarlo.py": ["_run_chunk", "_run_chunk"],
            "oracles.py": ["harmonic_tensor"],
            "solver.py": ["design_filter"],
        },
        "harmonic_tensor": {"oracles.py": ["build_xi_matrix", "build_modal_system"]},
    }
