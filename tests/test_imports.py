"""Import hygiene of the package modules and the tests, contraction sites of
the package modules, and the package's freedom from functools caches,
checked with the stdlib ast module.

`__init__.py` is exempt from the unused-import check: its imports are
re-exports listed in `__all__`.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "quditsim"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`; `import a.b as c` binds `c`
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_checker_flags_an_unused_import():
    source = "import os\nfrom a.b import c, d as e\nimport x.y\nprint(c, x)\n"
    assert _unused_imports(source) == ["os (line 1)", "e (line 2)"]


@pytest.mark.parametrize(
    "path", MODULES + sorted(TESTS.glob("*.py")),
    ids=lambda p: p.name if p in MODULES else f"tests/{p.name}",
)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


# numpy contractions; only _tensor.apply_at may call them, so the package has
# one contraction path whose rounding the byte tests pin
CONTRACTIONS = {"tensordot", "moveaxis", "einsum", "dot"}

# process-wide memo decorators: the package keeps no state between calls, so
# a cached array (such as one planewave's roots at large d) is never held for
# the life of the process
CACHES = {"cache", "lru_cache"}


def _uses(source: str, module: str, names: set[str]) -> list[str]:
    """Each `<module or its alias>.<name>` and `from <module> import <name>`."""
    tree = ast.parse(source)
    bound = {module} | {
        alias.asname
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == module and alias.asname
    }
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in bound
            and node.attr in names
        ):
            found.append(f"{node.value.id}.{node.attr} (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and node.module == module:
            found += [
                f"from {module} import {alias.name} (line {node.lineno})"
                for alias in node.names
                if alias.name in names
            ]
    return sorted(found)


def test_checker_flags_a_contraction():
    source = (
        "import numpy as np\nfrom numpy import einsum\n"
        "x = np.dot(a, b) + np.vdot(a, b) + a @ b\ny = numpy.moveaxis(x, 0, 1)\n"
    )
    assert _uses(source, "numpy", CONTRACTIONS) == [
        "from numpy import einsum (line 2)",
        "np.dot (line 3)",
        "numpy.moveaxis (line 4)",
    ]


def test_contractions_only_in_tensor_module():
    found = {
        path.name: uses
        for path in sorted(SRC.glob("*.py"))
        if path.name != "_tensor.py"
        and (uses := _uses(path.read_text(), "numpy", CONTRACTIONS))
    }
    assert found == {}


def test_checker_flags_a_cache():
    source = (
        "import functools\nimport functools as ft\nfrom functools import lru_cache as lc\n"
        "@functools.cache\ndef f(): pass\n@ft.lru_cache(maxsize=None)\ndef g(): pass\n"
        "@lc\ndef h(): pass\n@functools.wraps(f)\ndef w(): pass\n"
    )
    assert _uses(source, "functools", CACHES) == [
        "from functools import lru_cache (line 3)",
        "ft.lru_cache (line 6)",
        "functools.cache (line 4)",
    ]


def test_no_caches_in_package():
    found = {
        path.name: uses
        for path in sorted(SRC.glob("*.py"))
        if (uses := _uses(path.read_text(), "functools", CACHES))
    }
    assert found == {}
