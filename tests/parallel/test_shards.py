"""The ``workers`` knob's resolution to a worker count."""

import pytest

from repro.errors import QueryValidationError
from repro.parallel import resolve_workers


class TestResolveWorkers:
    def test_none_means_not_requested(self):
        assert resolve_workers(None) is None

    def test_explicit_counts_pass_through(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(8) == 8

    def test_auto_resolves_to_at_least_one(self):
        assert resolve_workers("auto") >= 1

    @pytest.mark.parametrize("bad", [0, -2, 1.5, "many", True, False])
    def test_junk_rejected(self, bad):
        with pytest.raises(QueryValidationError):
            resolve_workers(bad)
