"""Backend registry round-trips and inputs naming a removed backend.

Every registered backend name must survive ``RunSpec`` validation, JSON
serialisation, and ``drr-gossip spec validate``; specs, spec files and
pipeline configs written for a removed backend, and the CLI's ``--backend``
options naming one, must fail with the reason instead of running on
something else.
"""

from __future__ import annotations

import re

import pytest

from repro.api import RunSpec, SpecValidationError, load_specs
from repro.core import DRRGossipConfig
from repro.harness.cli import main as cli_main
from repro.simulator.errors import ConfigurationError
from repro.substrate import BACKENDS, UNAVAILABLE_BACKENDS


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

    @pytest.mark.parametrize("removed", REMOVED)
    @pytest.mark.parametrize(
        "command",
        [
            ["run", "--n", "64"],
            ["sweep", "--experiments", "table1", "--store", ":memory:"],
            ["table1", "--ns", "64"],
        ],
        ids=["run", "sweep", "table1"],
    )
    def test_cli_backend_option_naming_it_exits_with_the_reason(self, command, removed, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main([*command, "--backend", removed])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "argument --backend" in err
        assert UNAVAILABLE_BACKENDS[removed] in err

    def test_spec_document_with_backend_options_is_rejected(self):
        doc = {
            "protocol": "drr",
            "params": {"n": 64},
            "backend": "vectorized",
            "backend_options": {"shards": 2},
        }
        with pytest.raises(SpecValidationError, match=r"unknown keys \['backend_options'\]"):
            RunSpec.from_dict(doc)
