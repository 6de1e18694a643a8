"""Unit tests for variable registries."""

import pytest

from repro.errors import DistributionError
from repro.prob.distribution import Distribution
from repro.prob.variables import VariableRegistry


class TestDeclaration:
    def test_bernoulli(self):
        reg = VariableRegistry()
        reg.bernoulli("x", 0.3)
        assert reg["x"][True] == pytest.approx(0.3)

    def test_integer(self):
        reg = VariableRegistry()
        reg.integer("n", {0: 0.5, 3: 0.5})
        assert reg["n"][3] == pytest.approx(0.5)

    def test_integer_rejects_negative_values(self):
        reg = VariableRegistry()
        with pytest.raises(DistributionError, match="values in N"):
            reg.integer("n", {-1: 1.0})

    def test_constant(self):
        reg = VariableRegistry()
        reg.constant("c", 7)
        assert reg["c"].support() == {7}

    def test_redeclaration_same_distribution_ok(self):
        reg = VariableRegistry()
        reg.bernoulli("x", 0.3)
        reg.bernoulli("x", 0.3)
        assert len(reg) == 1

    def test_redeclaration_conflict_rejected(self):
        reg = VariableRegistry()
        reg.bernoulli("x", 0.3)
        with pytest.raises(DistributionError, match="already declared"):
            reg.bernoulli("x", 0.4)

    def test_unknown_lookup_raises(self):
        with pytest.raises(DistributionError, match="no declared"):
            VariableRegistry()["missing"]

    def test_constructor_from_mapping(self):
        reg = VariableRegistry({"x": Distribution.bernoulli(0.2)})
        assert "x" in reg


class TestViews:
    def test_names_sorted(self):
        reg = VariableRegistry()
        reg.bernoulli("b", 0.5)
        reg.bernoulli("a", 0.5)
        assert reg.names() == ["a", "b"]

    def test_restrict(self):
        reg = VariableRegistry()
        reg.bernoulli("a", 0.1)
        reg.bernoulli("b", 0.2)
        sub = reg.restrict(["a"])
        assert "a" in sub and "b" not in sub

    def test_iteration_and_len(self):
        reg = VariableRegistry()
        reg.bernoulli("a", 0.1)
        reg.bernoulli("b", 0.2)
        assert sorted(reg) == ["a", "b"]
        assert len(reg) == 2


class TestBooleanReduction:
    """Proposition 2's variable reduction for MIN/MAX."""

    def test_integer_variable_reduces(self):
        reg = VariableRegistry()
        reg.integer("n", {0: 0.25, 1: 0.5, 7: 0.25})
        reduced = reg.boolean_reduction()
        assert reduced["n"][False] == pytest.approx(0.25)
        assert reduced["n"][True] == pytest.approx(0.75)

    def test_boolean_variable_unchanged(self):
        reg = VariableRegistry()
        reg.bernoulli("x", 0.3)
        reduced = reg.boolean_reduction()
        assert reduced["x"].almost_equals(reg["x"])


class TestEpochOrder:
    """The registry epoch is bumped *after* the change it stands for (the
    order of every ``PVCTable`` mutator): a reader that stamps what it
    builds with the epoch it read first can then never pair a new epoch
    with an old distribution."""

    class _Observed(dict):
        """``_distributions`` that records, at every store, the epoch a
        concurrent reader would see just before the store lands."""

        def __init__(self, registry, initial):
            super().__init__(initial)
            self.registry = registry
            self.epochs_at_store = []

        def __setitem__(self, name, distribution):
            self.epochs_at_store.append(self.registry.epoch)
            super().__setitem__(name, distribution)

    def _observed(self):
        reg = VariableRegistry()
        reg.bernoulli("x", 0.3)
        reg._distributions = self._Observed(reg, reg._distributions)
        return reg, reg._distributions

    def test_reassign_stores_before_it_bumps(self):
        reg, seen = self._observed()
        before = reg.epoch
        reg.reassign("x", Distribution.bernoulli(0.9))
        # While the old distribution was still in place the epoch was the
        # old one; at the parent commit it already read ``before + 1``.
        assert seen.epochs_at_store == [before]
        assert reg.epoch == before + 1
        assert reg["x"][True] == pytest.approx(0.9)

    def test_declaring_a_new_name_stores_before_it_bumps(self):
        reg, seen = self._observed()
        before = reg.epoch
        reg.bernoulli("y", 0.5)
        assert seen.epochs_at_store == [before]
        assert reg.epoch == before + 1

    def test_redeclaring_a_name_does_not_bump(self):
        reg, _ = self._observed()
        before = reg.epoch
        reg.bernoulli("x", 0.3)
        assert reg.epoch == before

    def test_reassigning_an_unknown_name_changes_nothing(self):
        reg, seen = self._observed()
        before = reg.epoch
        with pytest.raises(DistributionError, match="undeclared"):
            reg.reassign("nope", Distribution.bernoulli(0.5))
        assert reg.epoch == before and seen.epochs_at_store == []


class TestReassignmentRecord:
    """``reassigned_since``: what a distribution cache reads instead of
    being told — one entry per variable, newest last, recorded before
    the epoch that stands for it."""

    def _registry(self, count=4):
        reg = VariableRegistry()
        for i in range(count):
            reg.bernoulli(f"x{i}", 0.5)
        return reg

    def test_names_since_an_epoch_newest_first(self):
        reg = self._registry()
        start = reg.epoch
        assert reg.reassigned_since(start) == []
        reg.reassign("x1", Distribution.bernoulli(0.1))
        middle = reg.epoch
        reg.reassign("x3", Distribution.bernoulli(0.2))
        reg.bernoulli("late", 0.5)  # a declaration moves the epoch, not the record
        assert reg.reassigned_since(start) == ["x3", "x1"]
        assert reg.reassigned_since(middle) == ["x3"]
        assert reg.reassigned_since(reg.epoch) == []

    def test_the_record_is_one_entry_per_variable(self):
        reg = self._registry()
        start = reg.epoch
        for step in range(100):
            reg.reassign(f"x{step % 2}", Distribution.bernoulli(step / 100))
        assert reg.reassigned_since(start) == ["x1", "x0"]
        assert reg.reassigned_since(reg.epoch - 1) == ["x1"]
        assert len(reg._reassigned) == 2

    def test_a_scan_stops_at_the_first_name_it_has_seen(self):
        reg = self._registry(count=200)
        for i in range(200):
            reg.reassign(f"x{i}", Distribution.bernoulli(0.25))
        seen = reg.epoch
        reg.reassign("x7", Distribution.bernoulli(0.75))

        class Counting:
            def __init__(self, items):
                self.items, self.steps = items, 0

            def __reversed__(self):
                for item in reversed(self.items):
                    self.steps += 1
                    yield item

        items = Counting(reg._reassigned.items())
        reg._reassigned = type("Record", (), {"items": lambda self: items})()
        assert reg.reassigned_since(seen) == ["x7"]
        assert items.steps == 2  # the new name and the first old one

    def test_the_name_is_recorded_before_the_epoch_moves(self):
        reg = self._registry()
        epochs_at_record = []

        class Observed(type(reg._reassigned)):
            def __setitem__(self, name, at):
                epochs_at_record.append((reg.epoch, at))
                super().__setitem__(name, at)

        reg._reassigned = Observed(reg._reassigned)
        before = reg.epoch
        reg.reassign("x2", Distribution.bernoulli(0.9))
        assert epochs_at_record == [(before, before + 1)]
        assert reg.epoch == before + 1
