"""Persisted benchmark trajectory: ``BENCH_substrate.json``.

The substrate benchmarks (``benchmarks/bench_substrate.py``) append one
machine-readable row per measured run — protocol, ``n``, backend, wall
time, message/round counts — stamped with the git SHA and a UTC
timestamp.  The file is an append-only JSON list, so the repository
accumulates a perf trajectory across commits (the py_experimenter-style
"keep the measurements, not just the pass/fail" discipline), and
``drr-gossip results --bench`` prints it as a table.
"""

from __future__ import annotations

import json
import subprocess
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Mapping, Sequence

__all__ = [
    "DEFAULT_BENCH_FILE",
    "append_bench_rows",
    "current_git_sha",
    "filter_bench_rows",
    "format_bench_table",
    "load_bench_rows",
]

DEFAULT_BENCH_FILE = "BENCH_substrate.json"

#: columns printed by :func:`format_bench_table`, in order
_COLUMNS = ("bench", "protocol", "n", "backend", "wall_s", "messages", "git_sha", "timestamp")


def current_git_sha(cwd: str | Path | None = None) -> str | None:
    """Short SHA of the checked-out commit, or ``None`` outside a repo."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=str(cwd) if cwd is not None else None,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def load_bench_rows(path: str | Path = DEFAULT_BENCH_FILE) -> list[dict[str, Any]]:
    """Read the trajectory file (an empty list when it does not exist)."""
    path = Path(path)
    if not path.exists():
        return []
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, list):
        raise ValueError(f"{path} must hold a JSON list of bench rows")
    return [row for row in data if isinstance(row, dict)]


def append_bench_rows(
    rows: Sequence[Mapping[str, Any]],
    path: str | Path = DEFAULT_BENCH_FILE,
) -> Path:
    """Append measurement rows (stamped with git SHA + UTC time) to ``path``."""
    path = Path(path)
    stamped = []
    sha = current_git_sha(path.parent if path.parent != Path("") else None)
    now = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    for row in rows:
        entry = dict(row)
        entry.setdefault("git_sha", sha)
        entry.setdefault("timestamp", now)
        stamped.append(entry)
    existing = load_bench_rows(path)
    existing.extend(stamped)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n")
    return path


def filter_bench_rows(
    rows: Sequence[Mapping[str, Any]],
    bench_name: str | None = None,
    since_sha: str | None = None,
) -> list[dict[str, Any]]:
    """Filter the trajectory by bench name and/or starting commit.

    ``bench_name`` keeps rows whose ``bench`` field equals the name.
    ``since_sha`` keeps the suffix of the append-ordered trajectory starting
    at the first row stamped with that commit; SHAs prefix-match in both
    directions, so short and full forms are interchangeable.  A ``since_sha``
    that never appears in the trajectory raises ``ValueError`` (a typo'd SHA
    silently matching nothing would read as "no regressions since then").
    """
    filtered = [dict(row) for row in rows]
    if since_sha is not None:
        want = str(since_sha).strip()
        start = None
        for index, row in enumerate(filtered):
            sha = str(row.get("git_sha") or "")
            if sha and (sha.startswith(want) or want.startswith(sha)):
                start = index
                break
        if start is None:
            raise ValueError(f"no bench row is stamped with commit {want!r}")
        filtered = filtered[start:]
    if bench_name is not None:
        filtered = [row for row in filtered if row.get("bench") == bench_name]
    return filtered


def format_bench_table(rows: Sequence[Mapping[str, Any]]) -> str:
    """Render the trajectory as a fixed-width table (newest rows last)."""
    if not rows:
        return "(no benchmark rows recorded yet)"
    table = [[_cell(row.get(col)) for col in _COLUMNS] for row in rows]
    widths = [
        max(len(_COLUMNS[i]), max(len(line[i]) for line in table))
        for i in range(len(_COLUMNS))
    ]
    header = "  ".join(name.ljust(widths[i]) for i, name in enumerate(_COLUMNS))
    rule = "  ".join("-" * widths[i] for i in range(len(_COLUMNS)))
    body = "\n".join("  ".join(line[i].ljust(widths[i]) for i in range(len(_COLUMNS))) for line in table)
    return "\n".join((header, rule, body))


def _cell(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)
