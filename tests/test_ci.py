"""CI and the docs stay in step with the code.

CI runs every gate of ``benchmarks/gates.py``, so none drops out silently,
every CLI command the docs name is one the parser accepts, every value
the CLI can set is set by a test or a CI step, and every name a module
exports in ``__all__`` exists.  The files are read as text: CI does not
install PyYAML.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import importlib.util
import io
import pkgutil
import re
import shlex
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


def test_every_all_entry_resolves_once():
    """A deletion that leaves its name in an ``__all__`` fails here.

    Importing the package does not notice one; ``from module import *`` would.
    """
    import repro

    problems = []
    modules = ["repro"] + [info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")]
    for module_name in modules:
        module = importlib.import_module(module_name)
        exported = list(getattr(module, "__all__", ()))
        problems += [f"{module_name}: {name} repeated" for name in set(exported) if exported.count(name) > 1]
        problems += [f"{module_name}: {name} missing" for name in exported if not hasattr(module, name)]
    assert problems == []


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


def _settable_values(parser: argparse.ArgumentParser, path: tuple[str, ...] = ()):
    """``("<command path> <option>", action)`` for every action of the parser tree but ``-h``."""
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _settable_values(sub, (*path, name))
            continue
        option = action.option_strings[0] if action.option_strings else action.metavar or action.dest
        yield " ".join((*path, option)), action


def _argv(node, lists: dict[str, ast.List]) -> list[str] | None:
    """The tokens of a list literal, or of a local name bound to one; None when unknown.

    An element that is not a string literal stands for some value; a list
    spliced in from elsewhere (``[*command, ...]`` over a parameter) is unknown.
    """
    if isinstance(node, ast.Name):
        node = lists.get(node.id)
    if not isinstance(node, ast.List):
        return None
    tokens = []
    for element in node.elts:
        if isinstance(element, ast.Starred):
            spliced = _argv(element.value, lists)
            if spliced is None:
                return None
            tokens.extend(spliced)
        elif isinstance(element, ast.Constant) and isinstance(element.value, str):
            tokens.append(element.value)
        else:
            tokens.append("VALUE")
    return tokens


def _cli_argvs_in_tests():
    """The argument lists that ``tests/`` give ``main``/``cli_main``."""
    for path in sorted((ROOT / "tests").glob("*.py")):
        for function in ast.walk(ast.parse(path.read_text())):
            if not isinstance(function, ast.FunctionDef):
                continue
            lists = {
                node.targets[0].id: node.value
                for node in ast.walk(function)
                if isinstance(node, ast.Assign)
                and isinstance(node.value, ast.List)
                and isinstance(node.targets[0], ast.Name)
            }
            for call in ast.walk(function):
                if not (isinstance(call, ast.Call) and call.args):
                    continue
                name = getattr(call.func, "id", getattr(call.func, "attr", None))
                argv = _argv(call.args[0], lists) if name in ("main", "cli_main") else None
                if argv is not None:
                    yield argv


def _cli_argvs_in_ci():
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    for line in re.findall(r"python3? -m repro[ \t]+([^|\n]*)", workflow):
        yield shlex.split(line)


def test_every_cli_value_is_set_by_a_test_or_a_ci_step():
    """A flag stays only if something runs it: a ``main([...])`` call in ``tests/`` or a CI line."""
    from repro.harness.cli import build_parser

    parser = build_parser()
    values = dict(_settable_values(parser))
    for key, action in values.items():
        # any token parses, and an action lands in the namespace only when given
        action.dest, action.default, action.type, action.choices = key, argparse.SUPPRESS, None, None
    passed = set()
    for argv in [*_cli_argvs_in_tests(), *_cli_argvs_in_ci()]:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                namespace, _ = parser.parse_known_args(argv)
            except SystemExit:
                continue
        passed |= set(vars(namespace)) & set(values)
    unset = sorted(set(values) - passed)
    assert not unset, f"{len(unset)} CLI values that no test or CI step sets: {', '.join(unset)}"
