"""Backend registry round-trips and inputs naming a removed backend.

Every registered backend name must survive ``RunSpec`` validation, JSON
serialisation, and ``drr-gossip spec validate``; specs, spec files and
pipeline configs written for a removed backend must fail with the reason
instead of running on something else.  Also covers the opt-in dtype
narrowing flags of :mod:`repro.substrate.tuning`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import RunSpec, SpecValidationError, load_specs
from repro.core import DRRGossipConfig, run_drr
from repro.harness.cli import main as cli_main
from repro.simulator.errors import ConfigurationError
from repro.substrate import BACKENDS, sample_uniform, tuning


# --------------------------------------------------------------------------- #
# every backend round-trips through spec machinery (``compiled`` is
# registered by the ``backend`` fixture where numba is missing)
# --------------------------------------------------------------------------- #
EVERY_BACKEND = sorted({*BACKENDS, "compiled"})


class TestBackendRoundTrip:
    @pytest.mark.parametrize("backend", EVERY_BACKEND, indirect=True)
    def test_runspec_accepts_and_serialises_every_backend(self, backend):
        spec = RunSpec(protocol="drr", params={"n": 64}, backend=backend, seed=5)
        assert spec.backend == backend
        rebuilt = RunSpec.from_json(spec.to_json())
        assert rebuilt == spec
        assert rebuilt.spec_hash() == spec.spec_hash()

    @pytest.mark.parametrize("backend", EVERY_BACKEND, indirect=True)
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
# inputs written for the removed ``sharded`` backend fail loudly
# --------------------------------------------------------------------------- #
class TestRemovedBackend:
    def test_stored_spec_naming_it_is_rejected_with_the_reason(self):
        doc = {"protocol": "drr", "params": {"n": 64}, "backend": "sharded", "seed": 1}
        with pytest.raises(SpecValidationError, match="was removed") as excinfo:
            RunSpec.from_dict(doc)
        assert "'vectorized'" in str(excinfo.value)
        assert "'compiled'" in str(excinfo.value)

    def test_spec_file_naming_it_is_rejected(self, tmp_path):
        path = tmp_path / "old.toml"
        path.write_text(
            '[[run]]\nprotocol = "drr"\nbackend = "sharded"\n[run.params]\nn = 64\n'
        )
        with pytest.raises(SpecValidationError, match="was removed"):
            load_specs(path)

    def test_pipeline_config_naming_it_is_rejected(self):
        with pytest.raises(ConfigurationError, match="was removed"):
            DRRGossipConfig(backend="sharded")

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
# dtype narrowing (repro.substrate.tuning)
# --------------------------------------------------------------------------- #
class TestTuning:
    def test_default_is_everything_off(self):
        cfg = tuning.get_tuning()
        assert not cfg.narrow_ids and not cfg.narrow_estimates
        assert cfg.id_dtype(10**6) == np.int64
        assert cfg.estimate_dtype() == np.float64

    def test_narrow_ids_preserves_the_rng_stream_and_results(self):
        reference = run_drr(512, rng=9)
        with tuning.tuned(narrow_ids=True):
            assert tuning.get_tuning().id_dtype(512) == np.int32
            narrowed = run_drr(512, rng=9)
        assert np.array_equal(reference.forest.parent, narrowed.forest.parent)
        assert reference.metrics.total_messages == narrowed.metrics.total_messages
        # context manager restored the defaults
        assert not tuning.get_tuning().narrow_ids

    def test_sample_uniform_storage_dtype_only(self):
        rng_wide = np.random.default_rng(4)
        rng_narrow = np.random.default_rng(4)
        wide = sample_uniform(rng_wide, 1000, 256, exclude=np.arange(256))
        with tuning.tuned(narrow_ids=True):
            narrow = sample_uniform(rng_narrow, 1000, 256, exclude=np.arange(256))
        assert wide.dtype == np.int64
        assert narrow.dtype == np.int32
        assert np.array_equal(wide, narrow.astype(np.int64))

    def test_narrow_estimates_changes_only_float_rounding(self):
        from repro.core import DRRGossipConfig, drr_gossip_average

        values = np.random.default_rng(0).uniform(0.0, 100.0, size=2048)
        reference = drr_gossip_average(values, rng=7, config=DRRGossipConfig())
        with tuning.tuned(narrow_estimates=True):
            narrowed = drr_gossip_average(values, rng=7, config=DRRGossipConfig())
        assert narrowed.messages == reference.messages
        assert narrowed.rounds == reference.rounds
        assert np.allclose(narrowed.estimates, reference.estimates, rtol=1e-4, equal_nan=True)


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
