"""Tests for repro.dist.costmodel — the scheduler's runtime predictor.

The model is a scheduling *hint* with hard invariants: only a job
whose exact ``kind|scenario|sim_backend|budget`` key has been observed
gets a prediction (unseen jobs predict ``None`` and dispatch in arrival
order), equal features predict equal costs (stable sorts keep
submission order among them), predictions scale with the job's work
units, and state round-trips through JSON so brokers warm-start across
runs.  Malformed inputs (persisted files, runtimes) must degrade to a
cold start, never to an exception — a broken hint must not break a
fleet.
"""

import json

import pytest

from repro.dist.costmodel import STATE_SCHEMA, CostModel, job_features
from repro.dist.jobs import echo, run_block, sleep_block


class TestJobFeatures:
    def test_run_block_payload_units_are_duration_times_reps(self):
        payload = {
            "scenario": "amba",
            "budget": 16,
            "sim_backend": "batched",
            "duration": 500.0,
            "start": 2,
            "stop": 6,
        }
        features = job_features(run_block, payload)
        assert features["kind"] == "run_block"
        assert features["scenario"] == "amba"
        assert features["budget"] == 16
        assert features["sim_backend"] == "batched"
        assert features["units"] == 500.0 * 4

    def test_sleep_block_payload_units_are_duration(self):
        features = job_features(
            sleep_block, {"scenario": "short", "index": 3, "duration": 0.05}
        )
        assert features["units"] == pytest.approx(0.05)
        assert features["scenario"] == "short"

    def test_unknown_payload_reduces_to_kind_and_one_unit(self):
        features = job_features(echo, 17)
        assert features == {"kind": "echo", "units": 1.0}

    def test_non_positive_duration_is_ignored(self):
        features = job_features(echo, {"duration": 0})
        assert features["units"] == 1.0


class TestPredict:
    def test_seen_predictions_scale_with_units(self):
        model = CostModel()
        model.observe({"kind": "k", "units": 2.0}, 1.0)
        small = model.predict({"kind": "k", "units": 1.0})
        large = model.predict({"kind": "k", "units": 10.0})
        assert small == pytest.approx(0.5)
        assert large == pytest.approx(10 * small)

    def test_equal_features_predict_equal_costs(self):
        # Stable sorts keep submission order among these.
        model = CostModel()
        model.observe({"kind": "k", "scenario": "s", "units": 1.0}, 0.5)
        a = model.predict({"kind": "k", "scenario": "s", "units": 2.0})
        b = model.predict({"kind": "k", "scenario": "s", "units": 2.0})
        assert a == b == pytest.approx(1.0)

    def test_only_the_exact_key_predicts(self):
        model = CostModel()
        fine = {
            "kind": "k", "scenario": "s", "sim_backend": "b",
            "budget": 8, "units": 1.0,
        }
        assert model.predict(fine) is None  # cold model: nothing seen
        model.observe(fine, 2.0)
        assert model.predict(fine) == pytest.approx(2.0)
        # Every field of the key counts: a new budget, backend,
        # scenario or kind is a job the model has never seen.
        for name, value in (
            ("budget", 16),
            ("sim_backend", "heap"),
            ("scenario", "other"),
            ("kind", "other"),
        ):
            assert model.predict(dict(fine, **{name: value})) is None
        dropped = {k: v for k, v in fine.items() if k != "budget"}
        assert model.predict(dropped) is None

    def test_featureless_jobs_are_unseen(self):
        model = CostModel()
        model.observe({"kind": "k", "units": 1.0}, 0.5)
        assert model.predict(None) is None
        assert model.predict({}) is None


class TestObserve:
    def test_observation_converges_rates(self):
        model = CostModel()
        features = {"kind": "k", "scenario": "s", "units": 2.0}
        for _ in range(30):
            model.observe(features, 1.0)
        # unit cost -> 0.5, so 2 units predict ~1 second.
        assert model.predict(features) == pytest.approx(1.0, rel=1e-3)
        assert model.observations == 30

    def test_error_ewma_tracks_prediction_accuracy(self):
        model = CostModel()
        features = {"kind": "k", "units": 1.0}
        model.observe(features, 1.0, predicted=2.0)  # 100% off
        assert model.mean_abs_rel_err == pytest.approx(1.0)
        model.observe(features, 1.0, predicted=1.0)  # spot on
        assert model.mean_abs_rel_err == pytest.approx(0.8)

    def test_garbage_runtimes_are_ignored(self):
        model = CostModel()
        features = {"kind": "k", "units": 1.0}
        for bad in (None, -1.0, float("nan"), float("inf")):
            model.observe(features, bad)
        assert model.observations == 0
        assert model.predict(features) is None


class TestPersistence:
    def test_state_roundtrip_preserves_predictions(self):
        model = CostModel()
        features = {"kind": "k", "scenario": "s", "units": 3.0}
        model.observe(features, 1.5)
        restored = CostModel()
        assert restored.from_state(model.to_state())
        assert restored.predict(features) == model.predict(features)
        assert restored.predict(features) is not None
        assert restored.observations == model.observations

    def test_save_load_roundtrip(self, tmp_path):
        path = tmp_path / "costmodel.json"
        model = CostModel()
        model.observe({"kind": "k", "units": 1.0}, 0.25)
        model.save(path)
        restored = CostModel()
        assert restored.load(path)
        assert restored.predict({"kind": "k", "units": 1.0}) == (
            model.predict({"kind": "k", "units": 1.0})
        )

    def test_missing_or_damaged_file_is_a_cold_start(self, tmp_path):
        model = CostModel()
        assert not model.load(tmp_path / "missing.json")
        damaged = tmp_path / "damaged.json"
        damaged.write_text("{not json")
        assert not model.load(damaged)
        wrong_schema = tmp_path / "wrong.json"
        wrong_schema.write_text(json.dumps({"schema": 999}))
        assert not model.load(wrong_schema)
        # Files written before the exact-key model (schema 1 carried
        # hierarchy keys and priors) are a cold start too.
        old = tmp_path / "old.json"
        old.write_text(
            json.dumps({"schema": 1, "rates": {"k": [0.1, 3]}, "priors": {}})
        )
        assert not model.load(old)
        assert model.predict({"kind": "k", "units": 1.0}) is None

    def test_corrupt_state_resets_instead_of_half_loading(self):
        model = CostModel()
        model.observe({"kind": "k", "units": 1.0}, 1.0)
        assert not model.from_state(
            {"schema": STATE_SCHEMA, "rates": {"k": ["not-a-number", 1]}}
        )
        assert model.predict({"kind": "k", "units": 1.0}) is None

    def test_invalid_alpha_rejected(self):
        for alpha in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                CostModel(alpha=alpha)


class TestStats:
    def test_stats_keys(self):
        model = CostModel()
        assert set(model.stats()) == {
            "observations", "entries", "mean_abs_rel_err",
        }
