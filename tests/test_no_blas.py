"""No BLAS call in the package source.

A BLAS kernel picks its summation order by CPU, so one ``@`` or
``np.dot`` on the output path would make the CLI's bytes depend on the
machine.  ``tests/test_cli_reference.py`` only shows that on the
reference inputs; this check reads every module of ``src/sniplab`` and
rejects a matrix product or any reference to a BLAS-backed name.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "sniplab").glob("*.py"))
BLAS_NAMES = {"dot", "matmul", "inner", "vdot", "einsum", "tensordot", "linalg"}


def _blas_uses(source: str) -> list[tuple[int, str]]:
    """(line, name) of every matrix product or BLAS-backed name in ``source``."""
    uses = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            uses.append((node.lineno, "@"))
        elif isinstance(node, ast.Name) and node.id in BLAS_NAMES:
            uses.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            uses.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and BLAS_NAMES & set((node.module or "").split(".")):
            uses.append((node.lineno, node.module))
        elif isinstance(node, ast.alias) and BLAS_NAMES & set(node.name.split(".")):
            uses.append((node.lineno, node.name))
    return uses


@pytest.mark.parametrize(
    "source",
    [
        "c = a @ b",
        "c @= b",
        "np.dot(a, b)",
        "a.dot(b)",
        "np.linalg.norm(a)",
        "from numpy import einsum",
        "from numpy.linalg import norm",
        "import numpy.linalg",
        "f = inner",
    ],
)
def test_check_finds_blas_use(source):
    assert _blas_uses(source)


def test_check_ignores_text():
    assert _blas_uses('"""inner windows"""\nhelp = "the inner window length"') == []


def test_sources_found():
    assert {"zdist.py", "mpdist.py", "snippets.py"} <= {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_blas_call_in_source(path):
    assert _blas_uses(path.read_text()) == []
