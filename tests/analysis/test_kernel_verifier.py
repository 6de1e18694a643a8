"""Fixture corpus for the codegen kernel verifier.

Half the suite tampers with a hand-written minimal kernel (one block,
one scan) and proves each invariant trips on exactly the seeded
violation; the other half runs the verifier over the real differential
corpus — every fused operator shape in both semirings — and proves the
shipped emitter's output verifies clean, including the ``block_scans``
metadata that binding-time hoisting trusts.
"""

from __future__ import annotations

import pickle

import pytest

from repro.analysis.checkers.kernels import (
    KernelChecker,
    KernelMeta,
    verify_bound_statics,
    verify_kernel,
    verify_kernel_source,
)
from repro.analysis.corpus import build_corpus
from repro.analysis.runner import AnalysisContext

GOOD_SOURCE = """\
def _kernel(_world, _st, _trace, _ckd):
    _t1 = _st.get('b0')
    if _t1 is None:
        _t1 = {}
        _w2 = _st.get('t:R')
        if _w2 is None:
            _w2 = _table(_world, 'R')
        for _v3, _m4 in _w2.items():
            _t1[_v3] = _m4
    return _t1
"""

META = KernelMeta(
    block_scans={"b0": ("R",)},
    scan_names=("R",),
    consts=(),
    block_keys=("b0",),
    index_keys=(),
)


def rules_of(findings):
    return sorted({finding.rule_id for finding in findings})


class TestSyntheticKernel:
    def test_well_formed_kernel_verifies_clean(self):
        assert verify_kernel_source(GOOD_SOURCE, META) == []

    def test_direct_world_read_is_flagged(self):
        tampered = GOOD_SOURCE.replace(
            "_w2 = _table(_world, 'R')", "_w2 = _world['R']"
        )
        findings = verify_kernel_source(tampered, META)
        assert rules_of(findings) == ["kernel-world-read"]

    def test_unknown_table_name_is_flagged(self):
        tampered = GOOD_SOURCE.replace(
            "_table(_world, 'R')", "_table(_world, 'SNEAKY')"
        )
        findings = verify_kernel_source(tampered, META)
        assert rules_of(findings) == ["kernel-world-read"]
        assert "scan_names" in findings[0].message

    def test_read_outside_block_scope_is_flagged(self):
        # The source is unchanged but the metadata claims block b0 only
        # touches table S — exactly the lie that would make BoundPlan
        # hoist a world-dependent block.
        lying = KernelMeta(
            block_scans={"b0": ("S",)},
            scan_names=("R", "S"),
            consts=(),
            block_keys=("b0",),
            index_keys=(),
        )
        findings = verify_kernel_source(GOOD_SOURCE, lying)
        assert rules_of(findings) == ["kernel-world-read"]
        assert "hoisting" in findings[0].message

    def test_unguarded_statics_load_is_flagged(self):
        tampered = GOOD_SOURCE.replace(
            "        _w2 = _st.get('t:R')\n"
            "        if _w2 is None:\n"
            "            _w2 = _table(_world, 'R')\n",
            "        _w2 = _st.get('t:R')\n"
            "        _w2 = _table(_world, 'R')\n",
        )
        assert tampered != GOOD_SOURCE
        findings = verify_kernel_source(tampered, META)
        assert "kernel-temp-reuse" in rules_of(findings)

    def test_duplicate_block_load_is_flagged(self):
        tampered = GOOD_SOURCE.replace(
            "    return _t1",
            "    _t9 = _st.get('b0')\n"
            "    if _t9 is None:\n"
            "        _t9 = {}\n"
            "    return _t1",
        )
        findings = verify_kernel_source(tampered, META)
        assert "kernel-temp-reuse" in rules_of(findings)

    def test_runtime_global_collision_is_flagged(self):
        tampered = GOOD_SOURCE.replace(
            "    _t1 = _st.get('b0')",
            "    _table = None\n    _t1 = _st.get('b0')",
        )
        findings = verify_kernel_source(tampered, META)
        assert "kernel-name-collision" in rules_of(findings)

    def test_free_variable_is_flagged(self):
        tampered = GOOD_SOURCE.replace("return _t1", "return _t1 or _bogus")
        findings = verify_kernel_source(tampered, META)
        assert rules_of(findings) == ["kernel-free-variable"]

    def test_phantom_declared_block_is_flagged(self):
        phantom = KernelMeta(
            block_scans={"b0": ("R",), "b9": ()},
            scan_names=("R",),
            consts=(),
            block_keys=("b0", "b9"),
            index_keys=(),
        )
        findings = verify_kernel_source(GOOD_SOURCE, phantom)
        assert rules_of(findings) == ["kernel-statics-mismatch"]

    def test_syntax_error_is_flagged(self):
        findings = verify_kernel_source("def _kernel(:\n", META)
        assert rules_of(findings) == ["kernel-compile-error"]

    def test_missing_kernel_function_is_flagged(self):
        findings = verify_kernel_source("x = 1\n", META)
        assert rules_of(findings) == ["kernel-compile-error"]


class TestRealCorpus:
    def test_corpus_covers_both_semirings_and_all_shapes(self):
        entries = build_corpus()
        names = {entry.name for entry in entries}
        semirings = {name.split(":")[0] for name in names}
        shapes = {name.split(":")[1] for name in names}
        assert semirings == {"boolean", "naturals"}
        assert {
            "project", "select", "join", "union", "shared-subplan",
            "extend-permute", "groupby", "agg-sum",
        } <= shapes

    def test_every_corpus_kernel_verifies_clean(self):
        for entry in build_corpus():
            findings = verify_kernel(entry.compiled, entry.name)
            assert findings == [], [f.render() for f in findings]

    def test_every_bound_plan_hoists_only_declared_sites(self):
        bound_seen = 0
        for entry in build_corpus():
            if entry.bound is None:
                continue
            bound_seen += 1
            findings = verify_bound_statics(
                entry.compiled, entry.bound, entry.name
            )
            assert findings == [], [f.render() for f in findings]
        assert bound_seen > 0

    def test_block_scans_metadata_is_consistent(self):
        for entry in build_corpus():
            compiled = entry.compiled
            assert set(compiled.block_scans) == {
                key for key, *_ in compiled.block_sites
            }
            for scans in compiled.block_scans.values():
                assert set(scans) <= set(compiled.scan_names)

    def test_bogus_hoisted_key_is_flagged(self):
        entry = next(e for e in build_corpus() if e.bound is not None)

        class FakeBound:
            statics = dict(entry.bound.statics, **{"b999": {}})

        findings = verify_bound_statics(entry.compiled, FakeBound(), entry.name)
        assert rules_of(findings) == ["kernel-statics-mismatch"]

    def test_checker_runs_through_project_hook(self):
        findings = list(KernelChecker().check_project(AnalysisContext()))
        assert findings == [], [f.render() for f in findings]

    def test_checker_honors_skip_option(self):
        context = AnalysisContext(options={"skip_kernel_corpus": True})
        assert list(KernelChecker().check_project(context)) == []


class TestBlockScansPickle:
    def test_round_trip_preserves_block_scans(self):
        entry = build_corpus()[0]
        clone = pickle.loads(pickle.dumps(entry.compiled))
        assert clone.block_scans == entry.compiled.block_scans
        assert verify_kernel(clone, entry.name) == []


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
