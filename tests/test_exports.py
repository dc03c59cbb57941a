"""Every public name of the package, and every module-level name, has a reader in the package itself."""

import ast
from pathlib import Path

import cptsim

SRC = Path(cptsim.__file__).resolve().parent

# Exported without a production caller on purpose: convergence_order is
# gate A5's computation, and the benchmark records backend_name().
ALLOWED_UNUSED = {"convergence_order", "backend_name"}


def _reads(node) -> set[str]:
    """Names loaded, and attributes read, anywhere under node."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _modules():
    """(file name, top-level statements) of each module but __init__.py."""
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":
            yield path.name, ast.parse(path.read_text(), filename=str(path)).body


def production_references() -> set[str]:
    """Names read in the package's modules, __init__.py left out.

    A definition or an import alone does not count: only a name that is
    loaded, or an attribute that is read, is a reference.
    """
    return set().union(*(_reads(stmt) for _, body in _modules() for stmt in body))


def _defined_names(stmt) -> set[str]:
    """Functions, classes and constants a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        return {t.id for t in stmt.targets if isinstance(t, ast.Name)}
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return {stmt.target.id}
    return set()


def test_every_export_has_a_production_caller():
    unused = set(cptsim.__all__) - production_references() - ALLOWED_UNUSED
    assert sorted(unused) == []


def test_every_module_level_name_is_read_outside_its_definition():
    statements = [(module, stmt, _reads(stmt)) for module, body in _modules() for stmt in body]
    unread = []
    for module, stmt, _ in statements:
        elsewhere = set().union(*(reads for _, other, reads in statements if other is not stmt))
        unread += [f"{module}:{name}" for name in _defined_names(stmt) - elsewhere - ALLOWED_UNUSED]
    assert sorted(unread) == []
