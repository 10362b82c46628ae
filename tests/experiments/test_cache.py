"""Tests for the content-addressed result cache."""

import json
import math
import os

import pytest

from repro.core.model import MODEL_VERSION
from repro.core.parameters import SimulationParameters
from repro.core.results import RESULT_FIELDS
from repro.experiments.cache import (
    CACHE_SCHEMA,
    ResultCache,
    cache_enabled,
    cache_key,
    default_cache_dir,
)
from repro.experiments.config import ExperimentSpec
from repro.experiments.runner import run_experiment


@pytest.fixture
def params():
    return SimulationParameters(
        dbsize=200, ltot=10, ntrans=3, maxtransize=20, npros=2,
        tmax=60.0, seed=5,
    )


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


def _simulate(params):
    from repro.core.model import LockingGranularityModel

    return LockingGranularityModel(params).run()


class TestCacheKey:
    def test_stable_across_calls(self, params):
        assert cache_key(params) == cache_key(params)

    def test_seed_changes_key(self, params):
        assert cache_key(params) != cache_key(params.replace(seed=6))

    def test_any_parameter_changes_key(self, params):
        assert cache_key(params) != cache_key(params.replace(ltot=11))

    def test_model_version_changes_key(self, params):
        assert cache_key(params, model_version=MODEL_VERSION) != cache_key(
            params, model_version=MODEL_VERSION + 1
        )

    def test_key_is_hex_sha256(self, params):
        key = cache_key(params)
        assert len(key) == 64
        int(key, 16)  # raises if not hex


class TestResultCache:
    def test_miss_on_empty_cache(self, cache, params):
        assert cache.get(params) is None

    def test_round_trip_is_exact(self, cache, params):
        result = _simulate(params)
        cache.put(params, result)
        restored = cache.get(params)
        assert restored is not None
        assert restored.params == params
        for name in RESULT_FIELDS:
            original = getattr(result, name)
            value = getattr(restored, name)
            if isinstance(original, float) and math.isnan(original):
                assert math.isnan(value)
            else:
                assert value == original, name

    def test_different_seed_misses(self, cache, params):
        cache.put(params, _simulate(params))
        assert cache.get(params.replace(seed=99)) is None

    def test_model_version_invalidates(self, cache, params):
        cache.put(params, _simulate(params))
        stale = ResultCache(cache.root, model_version=MODEL_VERSION + 1)
        assert stale.get(params) is None

    def test_corrupted_file_is_a_miss(self, cache, params):
        cache.put(params, _simulate(params))
        path = cache.path_for(params)
        with open(path, "w") as handle:
            handle.write("{ not json")
        assert cache.get(params) is None
        # And a re-put repairs the entry.
        cache.put(params, _simulate(params))
        assert cache.get(params) is not None

    def test_tampered_params_is_a_miss(self, cache, params):
        cache.put(params, _simulate(params))
        path = cache.path_for(params)
        with open(path) as handle:
            document = json.load(handle)
        document["params"]["ltot"] = 999
        with open(path, "w") as handle:
            json.dump(document, handle)
        assert cache.get(params) is None

    def test_schema_mismatch_is_a_miss(self, cache, params):
        cache.put(params, _simulate(params))
        path = cache.path_for(params)
        with open(path) as handle:
            document = json.load(handle)
        document["schema"] = CACHE_SCHEMA + 1
        with open(path, "w") as handle:
            json.dump(document, handle)
        assert cache.get(params) is None

    def test_delete_and_clear(self, cache, params):
        cache.put(params, _simulate(params))
        cache.put(params.replace(seed=6), _simulate(params.replace(seed=6)))
        assert len(cache) == 2
        assert cache.delete(params) is True
        assert cache.delete(params) is False
        assert len(cache) == 1
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_put_survives_unwritable_root(self, params):
        cache = ResultCache(os.path.join(os.sep, "proc", "no-such-dir"))
        assert cache.put(params, _simulate(params)) is None
        assert cache.get(params) is None


class TestQuarantine:
    def test_undecodable_entry_is_quarantined(self, cache, params, caplog):
        cache.put(params, _simulate(params))
        path = cache.path_for(params)
        with open(path, "w") as handle:
            handle.write("{ torn write")
        with caplog.at_level("WARNING", logger="repro.experiments.cache"):
            assert cache.get(params) is None
        assert not os.path.exists(path)
        assert os.path.exists(path + ".corrupt")
        assert any("quarantined" in rec.message for rec in caplog.records)

    def test_recompute_after_quarantine_round_trips(self, cache, params):
        cache.put(params, _simulate(params))
        path = cache.path_for(params)
        with open(path, "w") as handle:
            handle.write("{ torn write")
        assert cache.get(params) is None
        cache.put(params, _simulate(params))
        assert cache.get(params) is not None
        assert os.path.exists(path + ".corrupt")  # kept for inspection

    def test_structurally_broken_entry_is_quarantined(self, cache, params):
        cache.put(params, _simulate(params))
        path = cache.path_for(params)
        with open(path) as handle:
            document = json.load(handle)
        del document["result"]["totcom"]  # a required, non-compat field
        with open(path, "w") as handle:
            json.dump(document, handle)
        assert cache.get(params) is None
        assert os.path.exists(path + ".corrupt")

    def test_schema_mismatch_is_not_quarantined(self, cache, params):
        """Version skew is a plain miss, not corruption: the entry may
        belong to another checkout sharing the cache directory."""
        cache.put(params, _simulate(params))
        path = cache.path_for(params)
        with open(path) as handle:
            document = json.load(handle)
        document["schema"] = CACHE_SCHEMA + 1
        with open(path, "w") as handle:
            json.dump(document, handle)
        assert cache.get(params) is None
        assert os.path.exists(path)
        assert not os.path.exists(path + ".corrupt")

    def test_missing_entry_is_not_quarantined(self, cache, params):
        assert cache.get(params) is None
        assert not os.path.exists(cache.path_for(params) + ".corrupt")


class TestCompatDefaults:
    def test_entry_predating_fault_fields_still_loads(self, cache, params):
        """Entries written before the fault-metric fields existed must
        stay readable with the no-fault defaults filled in."""
        cache.put(params, _simulate(params))
        path = cache.path_for(params)
        with open(path) as handle:
            document = json.load(handle)
        for name in ("failure_aborts", "availability", "degraded_throughput"):
            del document["result"][name]
        with open(path, "w") as handle:
            json.dump(document, handle)
        restored = cache.get(params)
        assert restored is not None
        assert restored.failure_aborts == 0
        assert restored.availability == 1.0
        assert restored.degraded_throughput == 0.0
        assert not os.path.exists(path + ".corrupt")


class TestEnvironmentKnobs:
    def test_cache_enabled_honours_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert cache_enabled() is True
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert cache_enabled() is False

    def test_default_dir_honours_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert default_cache_dir() == os.path.join("results", ".cache")
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/elsewhere")
        assert default_cache_dir() == "/tmp/elsewhere"


@pytest.fixture
def tiny_spec():
    return ExperimentSpec(
        key="tiny",
        title="tiny sweep",
        base=SimulationParameters(
            dbsize=200, ntrans=3, maxtransize=20, npros=2, tmax=80.0, seed=1
        ),
        sweeps={"npros": (1, 2), "ltot": (1, 20)},
        series_fields=("npros",),
        y_fields=("throughput",),
    )


class TestRunExperimentCaching:
    def test_cold_then_warm(self, tiny_spec, cache):
        cold = run_experiment(tiny_spec, replications=2, cache=cache)
        assert cold.stats.cache_hits == 0
        assert cold.stats.cache_misses == 8
        assert cold.stats.runs == 8

        warm = run_experiment(tiny_spec, replications=2, cache=cache)
        assert warm.stats.cache_hits == 8
        assert warm.stats.cache_misses == 0
        assert warm.stats.runs == 0
        for a, b in zip(cold.outcomes, warm.outcomes):
            assert a.as_dict() == b.as_dict()

    def test_partial_warm(self, tiny_spec, cache):
        run_experiment(tiny_spec, replications=1, cache=cache)
        # Two replications share the seed of the first via seed+0.
        again = run_experiment(tiny_spec, replications=2, cache=cache)
        assert again.stats.cache_hits == 4
        assert again.stats.runs == 4

    def test_refresh_resimulates_and_overwrites(self, tiny_spec, cache):
        run_experiment(tiny_spec, cache=cache)
        refreshed = run_experiment(tiny_spec, cache=cache, refresh=True)
        assert refreshed.stats.cache_hits == 0
        assert refreshed.stats.runs == 4
        # The refreshed entries are readable again afterwards.
        warm = run_experiment(tiny_spec, cache=cache)
        assert warm.stats.cache_hits == 4

    def test_cache_false_disables(self, tiny_spec, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "default"))
        monkeypatch.setenv("REPRO_CACHE", "1")
        run_experiment(tiny_spec, cache=False)
        assert not (tmp_path / "default").exists()

    def test_default_cache_resolves_from_env(self, tiny_spec, tmp_path,
                                             monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "default"))
        monkeypatch.setenv("REPRO_CACHE", "1")
        first = run_experiment(tiny_spec)
        assert (tmp_path / "default").exists()
        second = run_experiment(tiny_spec)
        assert second.stats.cache_hits == 4
        for a, b in zip(first.outcomes, second.outcomes):
            assert a.as_dict() == b.as_dict()

    def test_warm_cache_pool_matches_inline(self, tiny_spec, cache):
        inline = run_experiment(tiny_spec, replications=2, cache=cache)
        pooled = run_experiment(tiny_spec, replications=2, jobs=2, cache=cache)
        assert pooled.stats.cache_hits == 8
        for a, b in zip(inline.outcomes, pooled.outcomes):
            assert a.as_dict() == b.as_dict()


class TestPerClassRoundTrip:
    """Multi-class breakdowns survive the cache; single-class entries
    keep the historical document format byte-for-byte."""

    MULTI = SimulationParameters(
        dbsize=500, ltot=20, ntrans=5, maxtransize=50, npros=4,
        tmax=200.0, seed=7,
        workload="classes", txn_classes="oltp:0.8:20,batch:0.2:200",
    )

    def test_multi_class_get_restores_breakdown(self, cache):
        result = _simulate(self.MULTI)
        assert result.per_class
        cache.put(self.MULTI, result)
        hit = cache.get(self.MULTI)
        assert hit.per_class == result.per_class
        assert hit.as_dict() == result.as_dict()

    def test_single_class_documents_have_no_per_class_key(
        self, cache, params
    ):
        result = _simulate(params)
        path = cache.put(params, result)
        with open(path) as handle:
            document = json.load(handle)
        assert "per_class" not in document["result"]
        assert cache.get(params).per_class == ()

    def test_journal_record_round_trips_per_class(self):
        from repro.experiments.cache import result_from_document

        result = _simulate(self.MULTI)
        record = {name: getattr(result, name) for name in RESULT_FIELDS}
        record["per_class"] = [dict(entry) for entry in result.per_class]
        # JSON round-trip degrades tuples to lists, like a journal read.
        record = json.loads(json.dumps(record))
        rebuilt = result_from_document(self.MULTI, record)
        assert rebuilt.per_class == result.per_class
        assert rebuilt.as_dict() == result.as_dict()
