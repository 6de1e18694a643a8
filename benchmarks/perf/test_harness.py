"""Tests of the benchmark harness itself (collected by the tier-1 run).

They check the instrument, not the program: names and counts of what is
declared, the statistics helpers, the traffic generator, and that counts
declared *exact* repeat between two runs.
"""

from __future__ import annotations

import dataclasses
import io
import itertools
import json
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.perf import data, inproc, reference, run, spec, stats  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_declared_names_and_counts():
    names = (
        list(spec.WORKLOAD_NAMES)
        + [m[0] for m in spec.END_TO_END]
        + [m[0] for m in spec.PER_LAYER]
    )
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert spec.WORKLOAD_NAMES == (
        "tpch_joins_cold", "agg_compile_cold", "sampled_joins",
        "served_reads", "served_mixed",
    )
    assert len(spec.END_TO_END) <= 16 and len(spec.PER_LAYER) <= 128
    assert all(0 < bound <= 0.25 for *_, bound in spec.END_TO_END)
    assert len(data.SHAPE_SEEDS) == len(set(data.SHAPE_SEEDS)) == 2
    setup = next(m for m in spec.END_TO_END if m[0] == "setup_s")
    assert setup[1:3] == ("s", "lower")
    assert setup[3] == max(bound for *_, bound in spec.END_TO_END)
    assert spec.EXACT_COUNTS <= {m[0] for m in spec.PER_LAYER}
    assert set(data.IN_PROCESS) == set(spec.IN_PROCESS)


def test_benchmark_json_matches_the_declarations():
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert document == spec.benchmark_json()
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in document["workloads"])


@pytest.mark.parametrize("traced", [False, True])
def test_printed_output_lists_the_declared_metrics(traced):
    out = io.StringIO()
    outcome = inproc.Outcome(metrics={"setup_s": 1.5, "query.parse_us": None}, attempted=1)
    line = run.report("served_reads", outcome, traced, out=out)
    declared = [m[0] for m in (spec.PER_LAYER if traced else spec.END_TO_END)]
    assert list(line["metrics"]) == declared
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    printed = [text.split()[1] for text in out.getvalue().splitlines()]
    assert printed == declared
    if traced:  # a vanished probe prints null and reports the sentinel
        assert line["metrics"]["query.parse_us"] == {"value": -1.0, "unit": "us"}
        assert "null" in out.getvalue()


def test_percentiles_need_ten_samples_beyond_them():
    assert stats.supported_percentile(200, 0.95) == 0.95
    assert stats.supported_percentile(199, 0.95) < 0.95
    assert stats.supported_percentile(1000, 0.99) == 0.99
    assert stats.supported_percentile(12, 0.95) == 0.5
    samples = list(range(1, 101))
    q, value = stats.percentile(samples, 0.95)
    assert q == pytest.approx(0.90) and value == pytest.approx(90.1)
    assert stats.quantile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5
    assert stats.spread([10.0, 10.0, 10.0, 10.0]) == 0.0


def test_machine_speed_reference():
    assert reference.slowdown((reference.NOMINAL, 3 * reference.NOMINAL)) == pytest.approx(2.0)
    before = len(reference._ROWS)
    with reference.slowdown_around() as factor:
        pass
    assert 0.1 < factor[0] < 10.0 and len(reference._ROWS) == before  # reads, never builds
    paired = reference.Paired()
    try:
        assert paired.probe() >= reference.probe() * 0.1
    finally:
        paired.close()
    assert paired.helper.returncode == 0


def test_bounds_are_backed_by_the_committed_calibration():
    """Every spread seen over ten seeds, in every recorded sweep, is within
    its metric's bound (the driver's acceptance), and each sweep covers
    every metric x workload."""
    sweeps = json.loads((ROOT / "benchmarks/perf/calibration.json").read_text())
    assert sweeps
    for sweep in sweeps:
        assert sweep["run_seconds"] == spec.RUN_SECONDS
        assert set(sweep["values"]) == set(spec.WORKLOAD_NAMES)
        for workload, metrics in sweep["values"].items():
            for metric, _, _, bound in spec.END_TO_END:
                assert len(metrics[metric]) == len(sweep["seeds"]) >= 10
                assert stats.spread(metrics[metric]) <= bound, (workload, metric)


def test_span_self_time_is_the_span_minus_its_children():
    #          name     start end  parent rid
    spans = [["root", 0.0, 10.0, None, "r"],
             ["child", 1.0, 4.0, 0, "r"],
             ["child", 5.0, 7.0, 0, "r"],
             ["leaf", 5.5, 6.5, 2, "r"]]
    assert stats.self_times(spans) == {"root": 5.0, "child": 4.0, "leaf": 1.0}
    tracer = stats.Tracer()
    with tracer.span("outer", rid="x"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    assert inner[stats.Tracer.PARENT] == 0 and inner[stats.Tracer.RID] == "x"
    assert outer[stats.Tracer.START] <= inner[stats.Tracer.START]
    assert inner[stats.Tracer.END] <= outer[stats.Tracer.END]
    assert sum(stats.self_times(tracer.spans).values()) == pytest.approx(
        outer[stats.Tracer.END] - outer[stats.Tracer.START]
    )


def test_adhoc_literals_never_repeat_for_a_seed():
    texts = [
        text
        for client in range(2)
        for text in itertools.islice(data.adhoc_statements(7, client, 2), 3000)
    ]
    assert len(set(texts)) == len(texts) == 6000
    assert texts[:5] == list(itertools.islice(data.adhoc_statements(7, 0, 2), 5))
    assert not set(texts) & set(data.HOT_ZOO)
    assert len(data.HOT_ZOO) == 22


def test_served_schedule():
    kinds = [data.operation_kind(i, mixed=True) for i in range(data.SERVED_PASS_OPS)]
    assert kinds.count("write") == 7 and kinds.count("adhoc") == 9
    reads = [data.operation_kind(i, mixed=False) for i in range(data.SERVED_PASS_OPS)]
    assert reads.count("write") == 0 and reads.count("adhoc") == 10
    # The two clients write different rows, so their writes commute.
    first, second = data.write_cycle(7, 0), data.write_cycle(7, 1)
    assert first[0]["values"] != second[0]["values"]
    assert [step["action"] for step in first] == ["insert", "update", "delete"]


def _exact_counts(workload, seed):
    outcome = inproc.Outcome()
    samples = inproc.Samples()
    metrics = inproc.layer_split(workload, seed, 0.0, outcome, samples)
    assert outcome.correct, outcome.problems
    return {name: metrics[name] for name in spec.EXACT_COUNTS if name in metrics}


def test_exact_counts_repeat_between_runs():
    full = data.IN_PROCESS["sampled_joins"]
    # Without numpy the 30 000-world batched statement is slow: leave it out.
    workload = dataclasses.replace(full, statements=full.statements[:2])
    first, second = _exact_counts(workload, 7), _exact_counts(workload, 7)
    assert first == second
    assert first["engine.mc_samples"] > 0


def test_exact_counts_of_a_compile_pass_repeat():
    full = data.IN_PROCESS["agg_compile_cold"]
    workload = dataclasses.replace(full, shapes=full.shapes[:1])  # half the time
    first, second = _exact_counts(workload, 7), _exact_counts(workload, 7)
    assert first == second
    for name in ("query.rule_firings", "query.step1_rows_out", "core.dtree_nodes",
                 "prob.distribution_cost", "prob.max_distribution_size",
                 "engine.approx_expansions"):
        assert first[name] > 0, name
