"""Approximate answers: exact vs ε-approx vs (ε, δ)-Monte-Carlo.

An Experiment-A-style sweep over Eq.-11 aggregation conditions comparing
the three answer modes of the unified ``EvalSpec`` on the same random
conditions:

* **EXACT** — full d-tree compilation (``Compiler.probability``);
* **APPROX** — iterative-deepening budgeted compilation
  (``approximate_probability``) stopping at interval width ≤ ε;
* **MC** — sequential-stopping sampling with (ε, δ) confidence
  intervals (Hoeffding ∩ Wilson, the same construction the
  ``montecarlo`` engine uses under spec mode ``"sample"``).

The sweep mixes the hard center of the Experiment-A COUNT bell with
selective-threshold (HAVING-style) shapes, where bounds decide most
Shannon branches long before the full aggregate distribution is known —
the shapes where guaranteed approximation beats exact compilation.
Each point records wall time plus the achieved interval width (and, for
MC, the signed error against the exact probability), so the JSON report
doubles as an accuracy/latency trade-off table.

Flags match the other benches: ``--smoke`` (trimmed sweep for CI),
``--json PATH``, ``--baseline PATH``.
"""

from __future__ import annotations

if __package__ in (None, ""):  # direct script execution: python benchmarks/...
    import pathlib
    import sys

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

import random
import statistics
import time

from benchmarks.common import BenchReport, print_series, smoke_mode
from repro.algebra.semiring import BOOLEAN
from repro.algebra.valuation import evaluate
from repro.core.approx import approximate_probability
from repro.core.compile import Compiler
from repro.engine.montecarlo import MonteCarloEngine
from repro.workloads.random_expr import ExprParams, generate_condition

EPSILON = 0.05
DELTA = 0.05

#: (label, agg, θ, c, #v, L) — Experiment-A-style one-sided conditions.
#: The first two sit at the hard center of the Figure-7 sweep; the rest
#: are selective thresholds (tail probabilities) of increasing size.
SHAPES = [
    ("count-center", "COUNT", "=", 15, 10, 30),
    ("sum-center", "SUM", "=", 375, 10, 30),
    ("count-having", "COUNT", "<=", 3, 12, 40),
    ("sum-low-tail", "SUM", "<=", 600, 14, 50),
    ("sum-high-tail", "SUM", ">=", 1100, 14, 50),
]

#: --smoke keeps CI fast: one run of a small shape, which converges in
#: round one, and of a tail, which refines over several rounds (the
#: path where a round reuses the sub-bounds earlier ones proved exact).
SMOKE_SHAPES = [
    ("count-having", "COUNT", "<=", 3, 12, 40),
    ("sum-low-tail", "SUM", "<=", 600, 14, 50),
]

RUNS = 3
#: Sample ceiling of the MC column (worlds are evaluated in Python here,
#: unlike the engine's vectorized path, so the bench caps the budget).
MC_MAX_SAMPLES = 4096


def _params(agg, theta, c, variables, terms) -> ExprParams:
    return ExprParams(
        left_terms=terms,
        right_terms=0,
        variables=variables,
        clauses=3,
        literals=3,
        max_value=50,
        constant=c,
        theta=theta,
        agg_left=agg,
    )


def _mc_probability_interval(
    expr, registry, epsilon, delta, seed, max_samples=MC_MAX_SAMPLES
):
    """Sequential-stopping estimate of ``P[expr ≠ 0]`` for one condition.

    Same statistics as ``MonteCarloEngine.estimate_intervals`` (doubling
    rounds, δ/(k(k+1)) splitting, Hoeffding ∩ Wilson), applied to a bare
    expression: worlds are sampled valuations of its variables, memoised
    per distinct assignment.
    """
    rng = random.Random(seed)
    names = sorted(expr.variables)
    weights = [registry[name][True] for name in names]
    world_cache: dict[tuple, bool] = {}
    count = 0
    drawn = 0
    round_no = 0
    batch = 256
    while True:
        round_no += 1
        batch = min(batch, max_samples - drawn)
        for _ in range(batch):
            world = tuple(rng.random() < w for w in weights)
            outcome = world_cache.get(world)
            if outcome is None:
                assignment = dict(zip(names, world))
                outcome = evaluate(expr, assignment, BOOLEAN) != BOOLEAN.zero
                world_cache[world] = outcome
            count += outcome
        drawn += batch
        level = delta / (round_no * (round_no + 1))
        interval = MonteCarloEngine._confidence_interval(
            count, drawn, level / 2.0
        )
        if interval.width <= epsilon or drawn >= max_samples:
            return interval, drawn
        batch = drawn  # doubling schedule


def run_shape(label, agg, theta, c, variables, terms, runs, report):
    exact_times, approx_times, mc_times = [], [], []
    widths, mc_widths, mc_errors = [], [], []
    params = _params(agg, theta, c, variables, terms)
    for run in range(runs):
        expr, registry = generate_condition(params, seed=run * 1013 + c)

        start = time.perf_counter()
        exact = Compiler(registry, BOOLEAN).probability(expr)
        exact_times.append(time.perf_counter() - start)

        start = time.perf_counter()
        bounds = approximate_probability(expr, registry, epsilon=EPSILON)
        approx_times.append(time.perf_counter() - start)
        widths.append(bounds.width)
        assert bounds.contains(exact, tol=1e-7), (label, run)

        start = time.perf_counter()
        interval, samples = _mc_probability_interval(
            expr, registry, EPSILON, DELTA, seed=run
        )
        mc_times.append(time.perf_counter() - start)
        mc_widths.append(interval.width)
        mc_errors.append(abs(float(interval) - exact))

    def record(series, times, **metrics):
        mean = statistics.mean(times)
        stdev = statistics.stdev(times) if len(times) > 1 else 0.0
        report.add(
            series,
            {
                "shape": label, "agg": agg, "theta": theta, "c": c,
                "variables": variables, "terms": terms, "runs": runs,
            },
            mean=mean,
            stdev=stdev,
            **metrics,
        )
        return mean

    exact_mean = record("EXACT", exact_times)
    approx_mean = record(
        "APPROX", approx_times,
        epsilon=EPSILON, max_width=max(widths),
    )
    mc_mean = record(
        "MC", mc_times,
        epsilon=EPSILON, delta=DELTA,
        max_width=max(mc_widths), max_abs_error=max(mc_errors),
        samples=samples,
    )
    return (
        label, f"{agg} {theta} {c}", f"#v={variables} L={terms}",
        f"{exact_mean*1000:.1f}ms",
        f"{approx_mean*1000:.1f}ms (w≤{max(widths):.3f})",
        f"{mc_mean*1000:.1f}ms (w≤{max(mc_widths):.3f})",
        f"{exact_mean/approx_mean:.2f}x",
    )


def main():
    smoke = smoke_mode()
    shapes = SMOKE_SHAPES if smoke else SHAPES
    runs = 1 if smoke else RUNS
    report = BenchReport(
        "approx",
        epsilon=EPSILON,
        delta=DELTA,
        mc_max_samples=MC_MAX_SAMPLES,
        smoke=smoke,
    )
    rows = [
        run_shape(*shape, runs=runs, report=report) for shape in shapes
    ]
    print_series(
        "Approximate answers — exact vs ε-approx vs (ε, δ)-MC",
        ["shape", "condition", "size", "exact", "approx ε=0.05",
         "MC (ε, δ)=(0.05, 0.05)", "exact/approx"],
        rows,
    )
    report.finish()


if __name__ == "__main__":
    main()
