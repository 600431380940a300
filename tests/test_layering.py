"""No module of ``src/qcert`` imports an underscored name from
``qcert.linalg``, ``qcert.measurement`` or ``qcert.rng``: whether a block is
held as its real diagonal or as a dense matrix is decided by
``linalg.block_form`` alone, the Haar kernels stay behind ``rng``'s samplers,
and other modules reach them through public names."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qcert"
GUARDED = {"linalg", "measurement", "rng"}


def private_imports(source: str) -> list[str]:
    """``module.name`` for every underscored name imported from a guarded
    module, relatively (``from .linalg``) or absolutely (``from qcert.linalg``)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            continue
        package, _, module = node.module.rpartition(".")
        if module in GUARDED and (node.level == 1 or package == "qcert"):
            found += [f"{node.module}.{a.name}" for a in node.names if a.name.startswith("_")]
    return found


def test_the_check_sees_relative_and_absolute_imports():
    source = ("from .linalg import DensityMatrix, _mat\n"
              "from qcert.measurement import (Basis,\n    _weights)\n"
              "from .rng import _householder, haar_blocks\n"
              "from .spectrum import _check_eps\n"
              "from .linalg import block_form\n")
    assert private_imports(source) == ["linalg._mat", "qcert.measurement._weights",
                                       "rng._householder"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_names_from_linalg_or_measurement(path):
    assert private_imports(path.read_text()) == []
