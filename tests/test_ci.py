"""CI runs every gate of ``benchmarks/gates.py``, so none drops out silently.

The workflow is read as text: CI does not install PyYAML.
"""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _gate_names() -> list[str]:
    spec = importlib.util.spec_from_file_location("gates", ROOT / "benchmarks" / "gates.py")
    gates = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gates)
    return list(gates.GATES)


def test_the_gate_matrix_lists_exactly_the_gate_names():
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    (matrix,) = re.findall(r"^\s+gate:\s*\[([^\]]*)\]\s*$", workflow, flags=re.MULTILINE)
    assert [name.strip() for name in matrix.split(",")] == _gate_names()
    assert "python benchmarks/gates.py ${{ matrix.gate }}" in workflow
