"""EvalSpec and ProbInterval — the unified answer surface."""

import json

import pytest

from repro.engine.spec import EVAL_MODES, EvalSpec, ProbInterval
from repro.errors import QueryValidationError


class TestProbInterval:
    def test_is_a_float_at_the_midpoint(self):
        interval = ProbInterval(0.2, 0.4)
        assert isinstance(interval, float)
        assert float(interval) == pytest.approx(0.3)
        assert interval + 0.1 == pytest.approx(0.4)
        assert f"{interval:.2f}" == "0.30"
        assert json.loads(json.dumps({"p": interval}))["p"] == pytest.approx(0.3)

    def test_point_intervals_behave_like_plain_probabilities(self):
        p = ProbInterval.point(0.7)
        assert p == pytest.approx(0.7)
        assert p.width == 0.0
        assert p.is_point
        assert p.value == pytest.approx(0.7)
        assert p.low == p.high == 0.7

    def test_wide_interval_has_no_point_value(self):
        interval = ProbInterval(0.2, 0.6)
        assert not interval.is_point
        with pytest.raises(QueryValidationError, match="width"):
            interval.value

    def test_validation_rejects_bad_intervals(self):
        with pytest.raises(QueryValidationError):
            ProbInterval(0.7, 0.3)
        with pytest.raises(QueryValidationError):
            ProbInterval(-0.5, 0.5)
        with pytest.raises(QueryValidationError):
            ProbInterval(0.5, 1.5)
        with pytest.raises(QueryValidationError):
            ProbInterval(float("nan"), 0.5)

    def test_numeric_noise_is_clamped(self):
        interval = ProbInterval(-1e-12, 1.0 + 1e-12)
        assert interval.low == 0.0
        assert interval.high == 1.0

    def test_immutable(self):
        interval = ProbInterval(0.2, 0.4)
        with pytest.raises(AttributeError):
            interval.low = 0.0

    def test_contains_and_unknown(self):
        assert ProbInterval.unknown().contains(0.0)
        assert ProbInterval.unknown().contains(1.0)
        assert ProbInterval(0.2, 0.4).contains(0.3)
        assert not ProbInterval(0.2, 0.4).contains(0.5)

    def test_intersect_tightens(self):
        a = ProbInterval(0.1, 0.5)
        b = ProbInterval(0.3, 0.9)
        merged = a.intersect(b)
        assert (merged.low, merged.high) == (0.3, 0.5)

    def test_intersect_inconsistent_keeps_tighter(self):
        a = ProbInterval(0.1, 0.2)
        b = ProbInterval(0.5, 0.9)
        assert a.intersect(b) is a

    def test_definitely_above(self):
        assert ProbInterval(0.6, 0.8).definitely_above(ProbInterval(0.1, 0.5))
        assert not ProbInterval(0.4, 0.8).definitely_above(ProbInterval(0.1, 0.5))

    def test_repr(self):
        assert repr(ProbInterval.point(0.25)) == "ProbInterval(0.25)"
        assert repr(ProbInterval(0.25, 0.5)) == "ProbInterval(0.25, 0.5)"


class TestEvalSpec:
    def test_defaults_are_exact(self):
        spec = EvalSpec()
        assert spec.mode == "exact"
        assert spec.is_exact
        assert spec.budget is None and spec.time_limit is None

    def test_modes(self):
        assert EVAL_MODES == ("exact", "approx", "sample")
        for mode in EVAL_MODES:
            assert EvalSpec(mode=mode).mode == mode
        with pytest.raises(QueryValidationError, match="quantum"):
            EvalSpec(mode="quantum")

    def test_validation(self):
        with pytest.raises(QueryValidationError):
            EvalSpec(epsilon=-0.1)
        with pytest.raises(QueryValidationError):
            EvalSpec(delta=0.0)
        with pytest.raises(QueryValidationError):
            EvalSpec(delta=1.0)
        with pytest.raises(QueryValidationError):
            EvalSpec(budget=0)
        with pytest.raises(QueryValidationError):
            EvalSpec(time_limit=0.0)

    def test_make_coerces_strings_and_overrides(self):
        spec = EvalSpec.make("approx", epsilon=0.01)
        assert spec.mode == "approx"
        assert spec.epsilon == 0.01
        same = EvalSpec.make(spec)
        assert same == spec
        tightened = EvalSpec.make(spec, epsilon=0.001)
        assert tightened.epsilon == 0.001
        assert tightened.mode == "approx"

    def test_make_rejects_junk(self):
        with pytest.raises(QueryValidationError):
            EvalSpec.make(42)

    def test_frozen(self):
        spec = EvalSpec()
        with pytest.raises(AttributeError):
            spec.mode = "approx"

    def test_workers_field(self):
        assert EvalSpec().workers is None
        assert EvalSpec(workers=4).workers == 4
        assert EvalSpec(workers="auto").workers == "auto"
        for bad in (0, -1, 2.5, "many", True):
            with pytest.raises(QueryValidationError, match="workers"):
                EvalSpec(workers=bad)

    def test_make_overrides_workers(self):
        spec = EvalSpec.make("sample", workers=2)
        assert spec.mode == "sample"
        assert spec.workers == 2

    def test_execution_only(self):
        assert EvalSpec().execution_only
        assert EvalSpec(workers=8).execution_only
        assert not EvalSpec(mode="approx", workers=8).execution_only
        assert not EvalSpec(epsilon=0.01).execution_only
        assert not EvalSpec(budget=100, workers=2).execution_only


class TestProbIntervalSerialization:
    """Regression suite for the float-subclass round-trip.

    Plain ``float`` pickling reconstructs from the single float value,
    which would silently drop ``.low``/``.high``; ``__reduce__`` must
    rebuild from the real constructor arguments.  Process pools pickle
    intervals inside arbitrarily nested payloads, so the containers the
    engines actually ship are covered too.
    """

    def test_pickle_roundtrip(self):
        import pickle

        interval = ProbInterval(0.2, 0.6)
        clone = pickle.loads(pickle.dumps(interval))
        assert (clone.low, clone.high) == (0.2, 0.6)
        assert isinstance(clone, ProbInterval)

    def test_pickle_preserves_every_protocol(self):
        import pickle

        interval = ProbInterval(0.125, 0.875)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            clone = pickle.loads(pickle.dumps(interval, protocol))
            assert type(clone) is ProbInterval
            assert (clone.low, clone.high) == (0.125, 0.875)
            assert float(clone) == float(interval)

    def test_pickle_nested_in_interval_dicts(self):
        """The shape the sequential-stopping estimator returns."""
        import pickle

        payload = {
            ("a", 1): ProbInterval(0.1, 0.3),
            ("b", 2): ProbInterval.point(0.5),
        }
        clone = pickle.loads(pickle.dumps(payload))
        assert clone[("a", 1)].width == pytest.approx(0.2)
        assert clone[("b", 2)].is_point

    def test_deepcopy(self):
        import copy

        interval = ProbInterval.point(0.3)
        clone = copy.deepcopy(interval)
        assert clone.low == clone.high == 0.3

    def test_deepcopy_wide_interval_keeps_subclass_and_bounds(self):
        import copy

        interval = ProbInterval(0.25, 0.75)
        clone = copy.deepcopy([{"p": interval}])[0]["p"]
        assert type(clone) is ProbInterval
        assert (clone.low, clone.high) == (0.25, 0.75)

    def test_pickle_roundtrip_survives_comparisons(self):
        import pickle

        a = pickle.loads(pickle.dumps(ProbInterval(0.6, 0.8)))
        b = pickle.loads(pickle.dumps(ProbInterval(0.1, 0.5)))
        assert a.definitely_above(b)
        assert a.intersect(ProbInterval(0.7, 0.9)).low == 0.7
