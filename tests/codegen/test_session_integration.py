"""End-to-end: sessions, engines, specs and the wire codec.

The headline conformance property: the fingerprint of a query answer —
the canonical serialisation used by the server conformance checks — is
byte-identical with codegen on and off, for every engine and worker
count, so ``REPRO_CODEGEN`` can be flipped on a live deployment without
changing a single answer.
"""

from __future__ import annotations

import pytest

from repro.engine.spec import EvalSpec
from repro.errors import QueryValidationError
from repro.server.codec import VOLATILE_STAT_KEYS, fingerprint
from repro.session import connect


def shop(engine="sprout", **kwargs):
    s = connect(engine=engine, **kwargs)
    t = s.table("items", ["name", "cat", "price"])
    t.insert(("inkjet", 1, 99), p=0.5)
    t.insert(("toner", 1, 120), p=0.7)
    t.insert(("apple", 2, 1), p=0.9)
    c = s.table("cats", ["cat_id", "label"])
    c.insert((1, "office"), p=0.6)
    c.insert((2, "food"))
    return s


JOIN = "SELECT name, label FROM items, cats WHERE cat = cat_id"
GROUP = (
    "SELECT label, COUNT(*) AS n FROM items, cats "
    "WHERE cat = cat_id GROUP BY label"
)


class TestFingerprintInvariance:
    @pytest.mark.parametrize("sql", [JOIN, GROUP], ids=["join", "group"])
    @pytest.mark.parametrize("workers", [1, 2], ids=["w1", "w2"])
    def test_naive_codegen_invisible(self, sql, workers, monkeypatch):
        prints = set()
        for codegen in ("1", "0"):
            monkeypatch.setenv("REPRO_CODEGEN", codegen)
            result = shop("naive").run(sql, workers=workers)
            prints.add(fingerprint(result))
        assert len(prints) == 1

    @pytest.mark.parametrize("sql", [JOIN, GROUP], ids=["join", "group"])
    @pytest.mark.parametrize("workers", [1, 2], ids=["w1", "w2"])
    def test_montecarlo_codegen_invisible(self, sql, workers, monkeypatch):
        prints = set()
        for codegen in ("1", "0"):
            monkeypatch.setenv("REPRO_CODEGEN", codegen)
            result = shop("montecarlo", seed=11).run(
                sql, spec="sample", budget=256, workers=workers
            )
            prints.add(fingerprint(result))
        assert len(prints) == 1

    def test_env_escape_hatch(self, monkeypatch):
        monkeypatch.setenv("REPRO_CODEGEN", "0")
        result = shop("naive").run(JOIN)
        assert result.stats["codegen_used"] is False
        assert result.stats["kernels_compiled"] == 0
        monkeypatch.setenv("REPRO_CODEGEN", "1")
        again = shop("naive").run(JOIN)
        assert again.stats["codegen_used"] is True
        assert again.stats["kernels_compiled"] >= 1
        assert fingerprint(result) == fingerprint(again)


class TestExplainCode:
    def test_code_format_returns_kernel_source(self):
        s = shop()
        source = s.explain(JOIN, format="code")
        assert "# repro.codegen kernel" in source
        assert "statics / CSE temps" in source
        assert "def _kernel(" in source

    def test_plan_format_unchanged(self):
        s = shop()
        assert "== logical plan ==" in s.explain(JOIN)

    def test_unknown_format_rejected(self):
        with pytest.raises(QueryValidationError, match="explain format"):
            shop().explain(JOIN, format="assembly")


class TestSpecPlumbing:
    def test_codegen_is_not_a_spec_field(self):
        """``REPRO_CODEGEN`` is the one selector; nothing per run."""
        assert "codegen" not in EvalSpec().to_json()
        with pytest.raises(
            QueryValidationError, match=r"unknown EvalSpec fields \['codegen'\]"
        ):
            EvalSpec.from_json({"codegen": True})
        with pytest.raises(
            QueryValidationError, match=r"unknown EvalSpec fields \['codegen'\]"
        ):
            EvalSpec.make("approx", codegen=False)

    def test_codec_treats_codegen_stats_as_volatile(self):
        assert {
            "codegen_used",
            "kernels_compiled",
            "kernel_cache_hits",
            "codegen_compile_seconds",
        } <= VOLATILE_STAT_KEYS
