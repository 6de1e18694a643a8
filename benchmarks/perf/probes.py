"""Per-layer probes that need their own call pattern: the codegen kernel
taken apart, and the ``workers=`` curve.  Each returns ``{metric: value}``
and touches only public functions; ``inproc.run_probe`` turns a vanished one
into a null metric.
"""

from __future__ import annotations

import random
import statistics
import time

from repro import connect

from . import oracle
from .data import Workload
from .reference import slowdown_around

WORLDS = 500
REPEATS = 3


def _statement(workload: Workload, name: str):
    return next(s for s in workload.statements if s.name == name)


def codegen_kernel(workload: Workload, seed: int) -> dict:
    """``kernel_for`` → ``bind`` → ``run_assignment`` on the per-world
    join statement, over seeded worlds drawn from the marginals."""
    from repro.codegen import kernel_for
    from repro.query.executor import prepare
    from repro.query.sql import parse_sql

    db = workload.database(seed, workload.shapes[0])
    query = parse_sql(_statement(workload, "mc_join_fixed").query)
    prepared = prepare(query, db.catalog(), db.cardinalities(), optimize=False)
    names = sorted(db.variables)
    rng = random.Random(seed)
    marginals = [db.registry[name][True] for name in names]
    worlds = [
        {name: rng.random() < p for name, p in zip(names, marginals)}
        for _ in range(WORLDS)
    ]
    with slowdown_around() as factor:
        start = time.perf_counter()
        kernel = kernel_for(prepared, db.semiring)
        compiled = time.perf_counter()
        bound = kernel.bind(db, names)
        bound_at = time.perf_counter()
        for world in worlds:
            bound.run_assignment(world)
        done = time.perf_counter()
    return {
        "codegen.kernel_compile_s": (compiled - start) / factor[0],
        "codegen.bind_s": (bound_at - compiled) / factor[0],
        "codegen.world_us": 1e6 * (done - bound_at) / WORLDS / factor[0],
    }


def _speedup(workload: Workload, seed: int, name: str) -> tuple[float, int]:
    """Median seconds at ``workers=1`` over ``workers=2`` for one
    statement on fresh inputs; answers must be identical."""
    statement = _statement(workload, name)
    medians, answers, fallbacks = [], [], 0
    for workers in (1, 2):
        times = []
        for _ in range(REPEATS):
            db = workload.database(seed, workload.shapes[0])
            session = connect(database=db, seed=seed)
            start = time.perf_counter()
            result = session.run(statement.query, workers=workers, **statement.options)
            raw = oracle.consume(result, statement.distributions)
            times.append(time.perf_counter() - start)
            fallbacks += "parallel_fallback" in result.stats
        medians.append(statistics.median(times))
        answers.append(oracle.canonical(raw))
    problem = oracle.same_answer(answers[1], answers[0], 0.0)
    if problem:
        raise AssertionError(f"workers=2 changed the answer of {name}: {problem}")
    return medians[0] / medians[1], fallbacks


def parallel_compile(workload: Workload, seed: int) -> dict:
    ratio, fallbacks = _speedup(workload, seed, "having_sum")
    return {"parallel.compile_speedup_w2": ratio, "parallel.fallbacks": fallbacks}


def parallel_monte_carlo(workload: Workload, seed: int) -> dict:
    ratio, fallbacks = _speedup(workload, seed, "mc_join_fixed")
    return {"parallel.mc_speedup_w2": ratio, "parallel.fallbacks": fallbacks}


#: workload → ((metric names, probe), ...)
PROBES = {
    "agg_compile_cold": (
        (("parallel.compile_speedup_w2", "parallel.fallbacks"), parallel_compile),
    ),
    "sampled_joins": (
        (("codegen.kernel_compile_s", "codegen.bind_s", "codegen.world_us"),
         codegen_kernel),
        (("parallel.mc_speedup_w2", "parallel.fallbacks"), parallel_monte_carlo),
    ),
}
