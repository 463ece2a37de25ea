"""Source hygiene: every name a module imports is used in that module.

The package re-exports its API from __init__.py, so that file is exempt;
everywhere else an unused import is dead code, found with ast alone."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    f for f in [*ROOT.glob("src/pmat/*.py"), *ROOT.glob("tests/*.py")]
    if f.name != "__init__.py"
)


def unused_imports(source):
    """Names bound by import statements and never referenced."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "*":
                    imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_scan_flags_unused_and_spares_used():
    src = ("import os\nimport numpy as np\nfrom a.b import c, d as e\n"
           "import x.y\nprint(np.zeros(1), e, x.y)\n")
    assert unused_imports(src) == [(1, "os"), (3, "c")]


@pytest.mark.parametrize("path", FILES, ids=lambda f: str(f.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
