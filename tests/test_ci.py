"""CI and the docs stay in step with the code.

CI runs every gate of ``benchmarks/gates.py``, so none drops out silently,
and every CLI command the docs name is one the parser accepts.  The files
are read as text: CI does not install PyYAML.
"""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: ``drr-gossip <cmd>`` or ``python -m repro <cmd>``, in prose, code blocks and comments.
COMMAND = re.compile(r"(?:drr-gossip|python3? -m repro)[ \t]+([a-z][\w-]*)")


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


def _documented_commands() -> dict[str, set[str]]:
    from repro.harness import cli

    docs = {
        "README.md": (ROOT / "README.md").read_text(),
        "SKILL.md": (ROOT / ".claude" / "skills" / "verify" / "SKILL.md").read_text(),
        "cli.py docstring": cli.__doc__,
    }
    for path in sorted((ROOT / "examples").rglob("*")):
        if path.is_file():
            docs[str(path.relative_to(ROOT))] = path.read_text()
    found: dict[str, set[str]] = {}
    for where, text in docs.items():
        for command in COMMAND.findall(text):
            found.setdefault(command, set()).add(where)
    return found


def test_the_docs_name_only_commands_the_cli_has(capsys):
    from repro.harness.cli import build_parser

    documented = _documented_commands()
    assert {"run", "sweep", "results", "spec"} <= set(documented)
    unknown = {}
    for command, where in sorted(documented.items()):
        with pytest.raises(SystemExit) as exited:
            build_parser().parse_args([command, "--help"])
        if exited.value.code != 0:
            unknown[command] = sorted(where)
    capsys.readouterr()
    assert unknown == {}
