"""Every public name of the package has a caller in the package itself."""

import ast
from pathlib import Path

import cptsim

SRC = Path(cptsim.__file__).resolve().parent

# Exported without a production caller on purpose: convergence_order is
# gate A5's computation, and the benchmark records backend_name().
ALLOWED_UNUSED = {"convergence_order", "backend_name"}


def production_references() -> set[str]:
    """Names read in the package's modules, __init__.py left out.

    A definition or an import alone does not count: only a name that is
    loaded, or an attribute that is read, is a reference.
    """
    names = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_export_has_a_production_caller():
    unused = set(cptsim.__all__) - production_references() - ALLOWED_UNUSED
    assert sorted(unused) == []
