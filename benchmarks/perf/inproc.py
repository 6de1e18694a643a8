"""The three in-process workloads: measurement, verification, tracing.

One pass = for each of the workload's database shapes: fresh seeded
inputs + a fresh ``connect(database=db)`` (untimed; a pass's total is a
``setup_s`` sample), then every statement of the workload through
``Session.sql``/``Session.run``, each timed from the call to the fully
consumed answer.  An operation class is a statement on a shape
(``q1_count/0``).  Single-threaded, ``workers=None``.

The machine-speed probe runs between the statements, and every time is
divided by the slowdown it showed just before and after (``reference.py``).
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import time
from dataclasses import dataclass, field

from repro import connect

from . import oracle
from .data import Statement, Workload
from .reference import probe, slowdown
from .stats import Tracer, percentile, quantile, self_times


@dataclass
class Outcome:
    """What one run of one workload produced."""

    metrics: dict = field(default_factory=dict)
    #: metric → sample count, or why it is null, printed beside the value.
    detail: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Every wrong answer, by which oracle it was found.
    problems: list = field(default_factory=list)
    trace: list | None = None

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def wrong(self, where: str, problem: str | None, operations: int = 1) -> None:
        if problem:
            self.failed += operations
            self.problems.append(f"{where}: {problem}")


def _query_of(statement: Statement, db):
    return statement.bind(db) if statement.bind is not None else statement.query


def _operations(workload: Workload, seed: int):
    """One pass's ``(operation class, statement, db, session)``: every
    statement on fresh inputs of each shape."""
    for index, shape in enumerate(workload.shapes):
        db = workload.database(seed, shape)
        session = connect(database=db, seed=seed)
        for statement in workload.statements:
            yield f"{statement.name}/{index}", statement, db, session


def _samples_worlds(statement: Statement) -> bool:
    options = statement.options
    return options.get("engine") == "montecarlo" or options.get("mode") == "sample"


def run_statement(session, statement: Statement, query):
    """``(seconds, raw answer, result)`` — the clock covers the call and
    reading the whole answer."""
    start = time.perf_counter()
    if isinstance(query, str):
        result = session.sql(query, **statement.options)
    else:
        result = session.run(query, **statement.options)
    raw = oracle.consume(result, statement.distributions)
    return time.perf_counter() - start, raw, result


# -- set-up oracles ------------------------------------------------------------


def micro_checks(workload: Workload, seed: int, outcome: Outcome) -> None:
    """Every statement on a micro instance against ``engine="naive"``.

    Monte-Carlo statements are checked through the exact engine that
    later serves as their oracle at full size.
    """
    by_name = {s.name: s for s in workload.statements}
    for build, names in workload.micro:
        for name in names:
            statement = by_name[name]
            db = build(seed)
            session = connect(database=db, seed=seed)
            options = (
                {"engine": "sprout"} if _samples_worlds(statement)
                else statement.options
            )
            outcome.wrong(
                f"micro oracle, {name}",
                oracle.micro_check(session, _query_of(statement, db), options),
                operations=0,
            )


def exact_answers(workload: Workload, seed: int) -> dict:
    """``operation class → {tuple: P}`` from the exact engine at full size:
    what the Monte-Carlo estimates of ``sampled_joins`` must bracket."""
    return {
        key: session.run(_query_of(s, db), engine="sprout").tuple_probabilities()
        for key, s, db, session in _operations(workload, seed)
    }


def monte_carlo_problem(raw, result, exact: dict) -> str | None:
    """Every estimate must lie within six binomial deviations of the
    exact answer.

    An (ε, δ) interval legitimately misses its target with probability
    δ per tuple, so containment alone would fail some seed sooner or
    later; an interval (already ≈3 deviations wide each way) is
    therefore given 3 more, a fixed-budget point estimate all 6.
    """
    samples = result.stats["samples"]
    for values, low, high, _ in raw:
        p = exact.get(values, 0.0)
        deviations = 6.0 if low == high else 3.0
        slack = deviations * (p * (1.0 - p) / samples) ** 0.5 + 4.0 / samples
        if not low - slack <= p <= high + slack:
            return f"tuple {values!r}: [{low}, {high}] is too far from exact {p}"
    return None


# -- the untraced run ----------------------------------------------------------


@dataclass
class Samples:
    setup: list = field(default_factory=list)
    passes: list = field(default_factory=list)
    statements: dict = field(default_factory=dict)
    cpu_seconds: float = 0.0
    #: The slowdown factor every timed interval was divided by.
    factors: list = field(default_factory=list)
    #: statement → canonical answer / deterministic engine counters of
    #: the first pass (later passes must repeat the answers exactly).
    answers: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    #: ``exact_answers`` of a Monte-Carlo workload: what its estimates
    #: must bracket.
    exact: dict | None = None


def one_pass(workload: Workload, seed: int, samples: Samples,
             outcome: Outcome) -> None:
    gc.collect()
    setup = wall = 0.0
    before = probe()
    for index, shape in enumerate(workload.shapes):
        start = time.perf_counter()
        db = workload.database(seed, shape)
        session = connect(database=db, seed=seed)
        seconds = time.perf_counter() - start
        before, factor = _factor(before, samples)
        setup += seconds / factor
        for statement in workload.statements:
            key = f"{statement.name}/{index}"
            query = _query_of(statement, db)
            cpu = time.process_time()
            seconds, raw, result = run_statement(session, statement, query)
            cpu = time.process_time() - cpu
            before, factor = _factor(before, samples)
            samples.cpu_seconds += cpu / factor
            samples.statements.setdefault(key, []).append(seconds / factor)
            wall += seconds / factor
            outcome.attempted += 1
            outcome.wrong(
                key, _answer_problem(key, statement, db, raw, result, samples),
            )
    samples.setup.append(setup)
    samples.passes.append(wall)


def _factor(before: float, samples: Samples) -> tuple[float, float]:
    """Probe the machine at the end of a timed interval: ``(this probe,
    the slowdown across the interval)``."""
    after = probe()
    factor = slowdown((before, after))
    samples.factors.append(factor)
    return after, factor


def _answer_problem(key, statement, db, raw, result, samples) -> str | None:
    answer = oracle.canonical(raw)
    first = samples.answers.setdefault(key, answer)
    if first is not answer:
        # Later passes rebuild identical inputs: answers must repeat.
        return oracle.same_answer(answer, first, 0.0)
    samples.counters[key] = {
        stat: result.stats[stat]
        for stat in ("samples", "expansions", "batched") if stat in result.stats
    }
    if samples.exact is not None:
        return monte_carlo_problem(raw, result, samples.exact[key])
    if statement.closed_form is not None:
        return oracle.closed_form_check(db, raw, result.schema, statement.closed_form)
    return None


def golden_document(workload: Workload, samples: Samples) -> dict:
    """What is committed under ``expected/``: the answers — or, for the
    Monte-Carlo workload, whose estimates depend on the numpy build, the
    sample counts, which do not."""
    if workload.name == "sampled_joins":
        return {name: c["samples"] for name, c in samples.counters.items()}
    return samples.answers


def check_golden(workload: Workload, seed: int, samples: Samples,
                 outcome: Outcome) -> None:
    golden = oracle.load_golden(workload.name, seed)
    if golden is None:
        return
    for name, got in golden_document(workload, samples).items():
        if isinstance(got, int):
            problem = None if got == golden[name] else (
                f"{got} samples, golden {golden[name]}"
            )
        else:
            problem = oracle.same_answer(got, golden[name])
        outcome.wrong(f"golden, {name}", problem)


def measure_passes(workload: Workload, seed: int, seconds: float,
                   outcome: Outcome, samples: Samples | None = None) -> Samples:
    samples = samples or Samples()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(samples.passes) < 2:
        one_pass(workload, seed, samples, outcome)
    return samples


def measure(workload: Workload, seed: int, seconds: float,
            outcome: Outcome) -> Samples:
    """Set-up oracles, the timed passes, then the golden answers."""
    micro_checks(workload, seed, outcome)
    samples = Samples()
    if all(_samples_worlds(s) for s in workload.statements):
        samples.exact = exact_answers(workload, seed)
    measure_passes(workload, seed, seconds, outcome, samples)
    check_golden(workload, seed, samples, outcome)
    return samples


def end_to_end(samples: Samples, outcome: Outcome) -> None:
    classes = {
        key: statistics.median(times) for key, times in samples.statements.items()
    }
    latencies = [s for times in samples.statements.values() for s in times]
    operations = len(latencies)
    q, tail = percentile(latencies, 0.95)
    # Every class runs equally often, so the median operation is the
    # median class.  (The median of the pooled samples would sit in the
    # gap between two classes' clusters, where it jumps.)
    middle = statistics.median(classes.values())
    outcome.metrics.update({
        "setup_s": statistics.median(samples.setup),
        "pass_s_p50": statistics.median(samples.passes),
        "stmt_s_geomean": statistics.geometric_mean(classes.values()),
        "throughput_rps": operations / sum(samples.passes),
        "latency_ms_p50": 1e3 * middle,
        "latency_ms_p95": 1e3 * tail,
        # No workload here writes: the read latency again (every workload
        # must report every end-to-end metric, none may be 0).
        "write_latency_ms_p50": 1e3 * middle,
        "write_latency_ms_p95": 1e3 * tail,
        "cpu_ms_per_op": 1e3 * samples.cpu_seconds / operations,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    q1, q3 = quantile(samples.passes, 0.25), quantile(samples.passes, 0.75)
    passes = f"n={len(samples.passes)} passes"
    ops = f"n={operations} statements"
    alias = "no writes: the read latency again"
    outcome.detail.update({
        "setup_s": passes,
        "pass_s_p50": f"{passes}, quartiles {q1:.4g} {q3:.4g}, "
                      f"machine slowdown {statistics.fmean(samples.factors):.3f}",
        "stmt_s_geomean": " ".join(
            f"{name}={1e3 * value:.1f}ms" for name, value in classes.items()
        ),
        "throughput_rps": f"{ops}, 1 caller",
        "latency_ms_p50": f"median of {len(classes)} class medians",
        "latency_ms_p95": (
            ops if q == 0.95 else f"{ops}: only p{100 * q:.0f} is supported"
        ),
        "write_latency_ms_p50": alias,
        "write_latency_ms_p95": alias,
        "cpu_ms_per_op": ops,
        "peak_rss_mb": "this process",
    })


def run(workload: Workload, seed: int, seconds: float) -> Outcome:
    outcome = Outcome()
    end_to_end(measure(workload, seed, seconds, outcome), outcome)
    return outcome


# -- the traced run ------------------------------------------------------------

#: Spans whose self times must add up to the untraced statement time.
STAGES = (
    "query.parse", "engine.select", "query.plan", "query.step1",
    "algebra.normalize", "core.compile", "prob.distribution",
    "engine.approx", "engine.rows", "engine.montecarlo",
)


def _engine_for(session, query, statement: Statement) -> str:
    """The engine ``Session.run`` will pick, from its public policy."""
    from repro.engine.base import select_engine_name

    options = statement.options
    if _samples_worlds(statement):
        return "montecarlo"
    if options.get("mode") == "approx":
        return "approx"
    if options.get("engine", "auto") != "auto":
        return options["engine"]
    return select_engine_name(
        session.db, query,
        tuple_independent=session.tuple_independent_relations(),
    )[0]


def staged(tracer: Tracer, session, query, statement: Statement, engine: str,
           structure: dict | None, counts: dict):
    """Step I then step II stage by stage — the sequence the sprout and
    approx engines perform — with a span around each public call.

    Exact rows go normalize → compile → distribution; approx rows go
    through ``approximate_probability`` at the statement's epsilon.
    """
    from repro import ProbInterval
    from repro.core.approx import approximate_probability
    from repro.core.stats import collect_stats
    from repro.engine.sprout import QueryResult, ResultRow
    from repro.query.executor import execute_symbolic, prepare

    db, cache = session.db, session.cache
    with tracer.span("query.plan"):
        prepared = prepare(query, db.catalog(), db.cardinalities())
    with tracer.span("query.step1"):
        table = execute_symbolic(prepared, db)
    counts["rule_firings"] += len(prepared.trace)
    counts["rows_out"] += len(table)
    zero = db.semiring.zero
    epsilon = statement.options.get("epsilon", 0.05)

    def distribution(expr):
        with tracer.span("algebra.normalize"):
            key = cache.normalize(expr)
        known = cache.cached(key)
        if known is not None:
            return known
        with tracer.span("core.compile"):
            tree = cache.compile(key)
        with tracer.span("prob.distribution"):
            dist = tree.distribution(cache.compiler.context)
        cache.absorb(key, dist)
        if structure is not None:
            stats = collect_stats(tree, cache.compiler.context)
            structure["nodes"] += stats.dag_size
            structure["mutex"] += stats.mutex_nodes
            structure["cost"] += stats.distribution_cost()
            structure["max_size"] = max(
                structure["max_size"], stats.max_distribution_size or 0
            )
        return dist

    raw, rows = [], []
    for pvc_row in table:
        if engine == "approx":
            with tracer.span("engine.approx"):
                bounds = approximate_probability(
                    pvc_row.annotation, db.registry, epsilon=epsilon,
                    semiring=db.semiring,
                )
            present = ProbInterval(bounds.low, bounds.high)
        else:
            present = ProbInterval.point(
                1.0 - distribution(pvc_row.annotation)[zero]
            )
        with tracer.span("engine.rows"):
            row = ResultRow(
                table.schema, pvc_row.values, pvc_row.annotation, cache,
                _probability=present,
            )
            rows.append(row)
        values = None
        if statement.distributions:
            values = [
                distribution(value).items()
                for value in row.module_attributes().values()
            ]
        raw.append((pvc_row.values, present.low, present.high, values))
    result = QueryResult(table.schema, rows, {}, stats={"rows": len(rows)})
    return raw, result, prepared


def traced_pass(workload: Workload, seed: int, tracer: Tracer,
                structure: dict | None, counts: dict, outcome: Outcome,
                reference: dict) -> tuple[float, float]:
    """One stage-driven pass; returns its wall seconds (the statement
    roots) and the mean slowdown the probe showed between its statements."""
    from repro.query.executor import execute_symbolic
    from repro.query.sql import parse_sql
    from repro.server.codec import result_to_json

    gc.collect()
    wall = 0.0
    probes = [probe()]
    for key, statement, db, session in _operations(workload, seed):
        query = _query_of(statement, db)
        prepared = None
        with tracer.span("statement", rid=key) as root:
            if isinstance(query, str):
                with tracer.span("query.parse"):
                    query = parse_sql(query)
            with tracer.span("engine.select"):
                engine = _engine_for(session, query, statement)
            if engine == "montecarlo":
                with tracer.span("engine.montecarlo"):
                    result = session.run(query, **statement.options)
                    raw = oracle.consume(result, False)
                counts["rows_out"] += len(result.rows)
                counts["mc_samples"] += result.stats["samples"]
                counts["mc_batched"] += bool(result.stats.get("batched"))
            else:
                raw, result, prepared = staged(
                    tracer, session, query, statement, engine, structure, counts
                )
        wall += root.seconds
        probes.append(probe())
        # Outside the root: ``Session.run`` stops at the result.  The
        # warm repeat isolates what the cold call spent building scan
        # caches and hash indexes.
        with tracer.span("server.encode", rid=key):
            encoded = json.dumps(result_to_json(result))
        counts["response_bytes"] += len(encoded)
        if prepared is not None:
            with tracer.span("query.step1.warm", rid=key):
                execute_symbolic(prepared, db)
        if engine != "montecarlo":
            # Sound intervals of one probability overlap; exact ones agree.
            tolerance = oracle.TOLERANCE + (
                statement.options.get("epsilon", 0.05) if engine == "approx" else 0.0
            )
            outcome.wrong(
                f"staged pipeline, {key}",
                oracle.same_answer(oracle.canonical(raw), reference[key], tolerance),
                operations=0,
            )
    return wall, slowdown(probes)


def run_probe(outcome: Outcome, metric_names, fn) -> None:
    """Record a per-layer probe's metrics; one whose public function has
    disappeared reports them as null with the reason instead of failing
    the run."""
    try:
        values = fn()
    except (ImportError, AttributeError, TypeError, KeyError) as exc:
        values = dict.fromkeys(metric_names)
        reason = f"null: {type(exc).__name__}: {exc}"
        outcome.detail.update(dict.fromkeys(metric_names, reason))
    outcome.metrics.update(values)


def layer_split(workload: Workload, seed: int, seconds: float,
                outcome: Outcome, samples: Samples) -> dict:
    """Stage-driven passes for ``seconds``, each beside one more untraced
    pass into ``samples`` (so both kinds see the same machine); per-layer
    metrics from the spans, with the untraced passes as the reference the
    decomposition must add up to."""
    from repro.codegen import runtime_stats

    per_pass: list[dict] = []
    traced_walls: list[float] = []
    structure = {"nodes": 0, "mutex": 0, "cost": 0, "max_size": 0}
    counts: dict = {}
    first_spans = None
    kernels = runtime_stats()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(per_pass) < 2:
        one_pass(workload, seed, samples, outcome)
        tracer = Tracer()
        counts = dict.fromkeys(
            ("rule_firings", "rows_out", "mc_samples", "mc_batched",
             "response_bytes"), 0,
        )
        # Structure counts need a d-tree walk: first pass only, untimed.
        wall, factor = traced_pass(
            workload, seed, tracer, structure if first_spans is None else None,
            counts, outcome, samples.answers,
        )
        traced_walls.append(wall / factor)
        per_pass.append({
            name: seconds / factor
            for name, seconds in self_times(tracer.spans).items()
        })
        if first_spans is None:
            first_spans = tracer.to_json()
    kernels = {k: runtime_stats()[k] - v for k, v in kernels.items()}
    if outcome.trace is None:
        outcome.trace = first_spans
    outcome.attempted += (
        len(per_pass) * len(workload.statements) * len(workload.shapes)
    )

    def stage(name: str) -> float:
        return statistics.median(p.get(name, 0.0) for p in per_pass)

    def per_statement_us(name: str) -> float:
        spans = len({s["rid"] for s in first_spans if s["name"] == name})
        return 1e6 * stage(name) / spans if spans else 0.0

    untraced_pass = statistics.median(samples.passes)
    cold, warm = stage("query.step1"), stage("query.step1.warm")
    step2 = (
        stage("algebra.normalize") + stage("core.compile")
        + stage("prob.distribution") + stage("engine.approx")
        + stage("engine.montecarlo")
    )
    outcome.detail["trace.coverage"] = (
        f"n={len(per_pass)} traced, {len(samples.passes)} untraced passes"
    )
    return {
        "query.parse_us": per_statement_us("query.parse"),
        "query.plan_us": per_statement_us("query.plan"),
        "query.rule_firings": counts["rule_firings"],
        "query.step1_s": cold,
        "query.step1_rows_out": counts["rows_out"],
        "db.index_build_s": max(cold - warm, 0.0),
        "algebra.normalize_s": stage("algebra.normalize"),
        "core.compile_s": stage("core.compile"),
        "core.dtree_nodes": structure["nodes"],
        "core.mutex_nodes": structure["mutex"],
        "prob.distribution_s": stage("prob.distribution"),
        "prob.distribution_cost": structure["cost"],
        "prob.max_distribution_size": structure["max_size"],
        "engine.select_s": stage("engine.select"),
        "engine.row_overhead_us": 1e6 * max(untraced_pass - cold - step2, 0.0)
        / counts["rows_out"],
        "engine.approx_s": stage("engine.approx"),
        "engine.approx_expansions": sum(
            c.get("expansions", 0) for c in samples.counters.values()
        ),
        "engine.mc_worlds_per_s": (
            counts["mc_samples"] / stage("engine.montecarlo")
            if counts["mc_samples"] else 0.0
        ),
        "engine.mc_samples": counts["mc_samples"],
        "engine.mc_batched": counts["mc_batched"],
        "codegen.kernels_compiled": kernels["kernels_compiled"] / len(per_pass),
        "codegen.kernel_cache_hits": kernels["kernel_cache_hits"] / len(per_pass),
        "server.encode_us": per_statement_us("server.encode"),
        "server.response_bytes": counts["response_bytes"],
        "harness.slowdown": statistics.fmean(samples.factors),
        "trace.coverage": sum(stage(name) for name in STAGES) / untraced_pass,
        "trace.overhead": statistics.median(traced_walls) / untraced_pass,
    }


def run_traced(workload: Workload, seed: int, seconds: float, probes=()) -> Outcome:
    """Untraced passes (the reference walls) and stage-driven ones
    alternating, then the workload's probes."""
    outcome = Outcome()
    samples = measure(workload, seed, 0.0, outcome)
    outcome.metrics.update(layer_split(workload, seed, seconds, outcome, samples))
    for names, fn in probes:
        run_probe(outcome, names, lambda fn=fn: fn(workload, seed))
    outcome.metrics["failed_share"] = outcome.failed / outcome.attempted
    return outcome
