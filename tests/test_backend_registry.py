"""Backend registry round-trips and inputs naming a removed backend.

Every registered backend name must survive ``RunSpec`` validation, JSON
serialisation, and ``drr-gossip spec validate``; specs, spec files and
pipeline configs written for a removed backend must fail with the reason
instead of running on something else.  Also covers the persisted benchmark
trajectory (``BENCH_substrate.json``) and its ``results --bench`` view.
"""

from __future__ import annotations

import re

import pytest

from repro.api import RunSpec, SpecValidationError, load_specs
from repro.core import DRRGossipConfig
from repro.harness.cli import main as cli_main
from repro.simulator.errors import ConfigurationError
from repro.substrate import BACKENDS


# --------------------------------------------------------------------------- #
# every backend round-trips through spec machinery
# --------------------------------------------------------------------------- #
class TestBackendRoundTrip:
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_runspec_accepts_and_serialises_every_backend(self, backend):
        spec = RunSpec(protocol="drr", params={"n": 64}, backend=backend, seed=5)
        assert spec.backend == backend
        rebuilt = RunSpec.from_json(spec.to_json())
        assert rebuilt == spec
        assert rebuilt.spec_hash() == spec.spec_hash()

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_spec_validate_cli_accepts_every_backend(self, backend, tmp_path, capsys):
        path = tmp_path / f"{backend}.toml"
        path.write_text(
            "[run]\n"
            'protocol = "drr"\n'
            f'backend = "{backend}"\n'
            "seed = 3\n"
            "[run.params]\n"
            "n = 64\n"
        )
        assert cli_main(["spec", "validate", str(path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_unknown_backend_fails_spec_validation(self):
        with pytest.raises(SpecValidationError, match="unknown substrate backend"):
            RunSpec(protocol="drr", params={"n": 64}, backend="quantum")


# --------------------------------------------------------------------------- #
# inputs written for a removed backend fail loudly
# --------------------------------------------------------------------------- #
REMOVED = ["sharded", "compiled"]


class TestRemovedBackend:
    @pytest.mark.parametrize("removed", REMOVED)
    def test_stored_spec_naming_it_is_rejected_with_the_reason(self, removed):
        doc = {"protocol": "drr", "params": {"n": 64}, "backend": removed, "seed": 1}
        with pytest.raises(SpecValidationError, match="was removed") as excinfo:
            RunSpec.from_dict(doc)
        # the reason points at 'vectorized' and at no other backend
        assert set(re.findall(r"'(\w+)'", str(excinfo.value))) == {removed, "vectorized"}

    @pytest.mark.parametrize("removed", REMOVED)
    def test_spec_file_naming_it_is_rejected(self, removed, tmp_path):
        path = tmp_path / "old.toml"
        path.write_text(
            f'[[run]]\nprotocol = "drr"\nbackend = "{removed}"\n[run.params]\nn = 64\n'
        )
        with pytest.raises(SpecValidationError, match="was removed"):
            load_specs(path)

    @pytest.mark.parametrize("removed", REMOVED)
    def test_pipeline_config_naming_it_is_rejected(self, removed):
        with pytest.raises(ConfigurationError, match="was removed"):
            DRRGossipConfig(backend=removed)

    def test_spec_document_with_backend_options_is_rejected(self):
        doc = {
            "protocol": "drr",
            "params": {"n": 64},
            "backend": "vectorized",
            "backend_options": {"shards": 2},
        }
        with pytest.raises(SpecValidationError, match=r"unknown keys \['backend_options'\]"):
            RunSpec.from_dict(doc)


# --------------------------------------------------------------------------- #
# the persisted benchmark trajectory
# --------------------------------------------------------------------------- #
class TestBenchTrajectory:
    def test_append_and_load_round_trip(self, tmp_path):
        from repro.harness.benchlog import append_bench_rows, format_bench_table, load_bench_rows

        path = tmp_path / "BENCH_substrate.json"
        append_bench_rows(
            [{"bench": "smoke", "protocol": "drr", "n": 10, "backend": "vectorized", "wall_s": 0.5}],
            path,
        )
        append_bench_rows(
            [{"bench": "smoke", "protocol": "drr", "n": 10, "backend": "engine",
              "wall_s": 0.25}],
            path,
        )
        rows = load_bench_rows(path)
        assert len(rows) == 2
        assert all("timestamp" in row for row in rows)
        table = format_bench_table(rows)
        assert "vectorized" in table and "engine" in table

    def test_results_bench_cli(self, tmp_path, capsys):
        from repro.harness.benchlog import append_bench_rows

        path = tmp_path / "BENCH_substrate.json"
        append_bench_rows(
            [{"bench": "smoke", "protocol": "drr", "n": 10, "backend": "vectorized", "wall_s": 0.5}],
            path,
        )
        assert cli_main(["results", "--bench", "--bench-file", str(path)]) == 0
        out = capsys.readouterr().out
        assert "vectorized" in out and "wall_s" in out

    def test_results_bench_cli_missing_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert cli_main(["results", "--bench", "--bench-file", str(missing)]) == 0
        assert "no benchmark rows" in capsys.readouterr().out
