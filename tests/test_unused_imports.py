"""Every module-level import in src/vaughanlab is used by its module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "vaughanlab"


def unused_imports(source: str) -> list[str]:
    """The names bound by module-level imports that the module never reads.

    A name counts as read when it appears as a Name node anywhere in the
    module (annotations included) or as a string in __all__.
    ``from __future__`` imports bind no name.
    """
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant) and isinstance(e.value, str)}
    return [name for name in bound if name not in used]


def test_rule_on_a_sample():
    sample = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from math import log, sqrt\n"
        "from .a import exported, unused\n"
        "__all__ = ['exported']\n"
        "def f(x: np.ndarray) -> float:\n"
        "    return log(x)\n"
    )
    assert unused_imports(sample) == ["os", "sqrt", "unused"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_has_no_unused_import(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []
