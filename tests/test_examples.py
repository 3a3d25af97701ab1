"""Every ``examples/*.py`` runs to completion, so a change that breaks one fails here."""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


@pytest.mark.parametrize(
    "name", ["lower_bound_demo.py", "p2p_chord.py", "quickstart.py", "sensor_network.py"]
)
def test_example_runs_as_main(name, capsys):
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    assert capsys.readouterr().out.strip()
