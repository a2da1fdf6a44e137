"""Import hygiene of the package modules and the tests, and contraction sites
of the package modules, checked with the stdlib ast module.

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


def _contraction_uses(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in {"np", "numpy"}
            and node.attr in CONTRACTIONS
        ):
            found.append(f"{node.value.id}.{node.attr} (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found += [
                f"from numpy import {alias.name} (line {node.lineno})"
                for alias in node.names
                if alias.name in CONTRACTIONS
            ]
    return sorted(found)


def test_checker_flags_a_contraction():
    source = (
        "import numpy as np\nfrom numpy import einsum\n"
        "x = np.dot(a, b) + np.vdot(a, b) + a @ b\ny = numpy.moveaxis(x, 0, 1)\n"
    )
    assert _contraction_uses(source) == [
        "from numpy import einsum (line 2)",
        "np.dot (line 3)",
        "numpy.moveaxis (line 4)",
    ]


def test_contractions_only_in_tensor_module():
    found = {
        path.name: uses
        for path in sorted(SRC.glob("*.py"))
        if path.name != "_tensor.py" and (uses := _contraction_uses(path.read_text()))
    }
    assert found == {}
