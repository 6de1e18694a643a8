"""Mixed read/write workload: incremental invalidation vs flush-all.

Before this benchmark's PR, any mutation was only safe if the session
threw away *every* cache (compiled distributions, the persistent
compiler's d-tree memo, memoised plans) — the ``flush_all`` series
reproduces that discipline by closing the session after each write.
The ``incremental`` series keeps every cache across writes: each
table's one epoch-stamped ``(scan, indexes)`` record is dropped by
every write and rebuilt on the next read, the independence facts
``auto`` dispatch reads are
maintained on the write path (no row is scanned to classify a query),
and the shared distribution cache, reconciling with the registry's
reassignment record on its next read, drops only the compiled
distributions whose variables a probability update actually touched.

The workload interleaves warm queries (a selection, a per-group COUNT
and a global SUM over one probabilistic table) with writes at a
configurable percentage (default 10%, the acceptance point), rotating
insert / value-update / probability-update / delete deterministically.
Both series apply the identical write sequence, and each series' final
answers are checked fingerprint-identical to a from-scratch session over
the mutated data before any timing is reported — a wrong fast answer
fails the run.  Each sweep point runs ``PAIRS`` incremental/flush-all
pairs, alternating which series goes first, and reports the median of
the pairs' throughput ratios.

The gate at 10% writes counts what invalidation saves instead of timing
it: flush-all's warm reads must miss the distribution cache (compile)
at least twice as often as incremental's.  The write sequence is fixed,
so both counts are the same on every run and every machine, and they
move only when invalidation drops more (or less) than it did.  The
throughput ratio does not gate: its denominator is flush-all's cold
compiles, so every step-II speed-up shrinks it with no regression
anywhere, and one short run's ratio spreads by more than the margin.

Flags: ``--smoke`` (trimmed CI sweep), ``--json PATH``,
``--baseline PATH``.
"""

from __future__ import annotations

if __package__ in (None, ""):  # direct script execution: python benchmarks/...
    import pathlib
    import sys

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

import os
import statistics
import sys
import time

from benchmarks.common import BenchReport, print_series, smoke_mode
from repro import cmp_, connect, count_, lit, sum_
from repro.algebra import Var
from repro.algebra.expressions import sprod, ssum
from repro.db.pvc_table import PVCDatabase, PVCTable
from repro.prob.variables import VariableRegistry
from repro.session import Session

KINDS = ("a", "b", "c", "d")

#: Incremental/flush-all pairs per sweep point, alternating which series
#: runs first; the reported speedup is the median of the pairs' ratios.
PAIRS = 5

#: Deterministic probabilities (no RNG: runs must be identical across
#: processes so the two series mutate identical databases).
def _prob(index: int) -> float:
    state = (index * 1103515245 + 12345) % (1 << 31)
    return 0.05 + 0.9 * ((state >> 8) % 1000) / 999.0


def build_session(rows: int) -> Session:
    """One table, four groups: a *hot* independent partition and three
    read-mostly correlated ones.

    Group ``a`` rows carry auto-minted independent Bernoulli variables —
    the cheap, writable partition every mutation targets.  Groups
    ``b``/``c``/``d`` are annotated with chain-overlapping DNF clauses
    over a shared variable pool, so their aggregate distributions need
    genuine d-tree decomposition: this is the compilation work that
    flush-all keeps redoing and lineage-aware invalidation keeps warm.
    """
    session = connect(seed=7)
    table = session.table("items", ["kind", "value"])
    registry = session.registry
    for i in range(rows + 3):
        registry.bernoulli(f"c{i}", 0.3 + 0.4 * ((i * 7) % 10) / 9)
    for i in range(rows):
        kind = KINDS[i % len(KINDS)]
        value = 10 * (1 + i % 7)
        if kind == "a":
            table.insert((kind, value), p=_prob(i + 1))
        else:
            table.insert(
                (kind, value),
                annotation=ssum([
                    sprod([Var(f"c{i}"), Var(f"c{i + 1}")]),
                    sprod([Var(f"c{i + 2}"), Var(f"c{i + 3}")]),
                ]),
            )
    return session


def queries(session: Session):
    """A nine-statement mix, aggregate-heavy (compilation-bound).

    The selection thresholds give each statement its own compiled
    distributions; flush-all therefore recompiles the whole zoo after
    every write, while the incremental pipeline recompiles only the
    entries whose lineage the write touched.
    """
    t = session.table("items")
    zoo = [
        t.select("kind").build(),
        t.group_by("kind").agg(n=count_()).build(),
        t.group_by("kind").agg(total=sum_("value")).build(),
    ]
    for threshold in (20, 30, 40):
        filtered = t.where(cmp_("value", ">=", lit(threshold)))
        zoo.append(filtered.group_by("kind").agg(n=count_()).build())
        zoo.append(
            filtered.group_by("kind").agg(total=sum_("value")).build()
        )
    return zoo


def apply_write(session: Session, index: int) -> None:
    """The ``index``-th write of the deterministic mutation sequence.

    All writes target the ``"a"`` group: the OLTP-ish shape (a hot
    partition under mutation, the rest of the table read-mostly) where
    lineage invalidation pays off — the untouched groups' compiled
    aggregate distributions stay warm.
    """
    op = index % 4
    if op == 0:
        session.db.insert(
            "items", ("a", 10 + index % 50), p=_prob(1000 + index)
        )
    elif op == 1:
        session.db.update(
            "items", {"kind": "a"}, set_values={"value": 11 + index % 7}
        )
    elif op == 2:
        session.db.update("items", {"kind": "a"}, p=_prob(2000 + index))
    else:
        session.db.delete(
            "items", lambda values, v=10 + index % 50: values["kind"] == "a"
            and values["value"] == v
        )


def fingerprints(session: Session):
    return [
        [
            (row.values, row.probability().low, row.probability().high)
            for row in session.run(query, engine="sprout")
        ]
        for query in queries(session)
    ]


def rebuilt_from_scratch(session: Session) -> Session:
    registry = VariableRegistry()
    for name, dist in session.registry.items():
        registry.declare(name, dist)
    tables = {
        name: PVCTable(table.schema, list(table.rows))
        for name, table in session.db.tables.items()
    }
    db = PVCDatabase(tables=tables, registry=registry, semiring=session.semiring)
    return Session(database=db, seed=session.seed)


def run_workload(rows: int, ops: int, write_pct: int, flush_all: bool) -> dict:
    """Drive ``ops`` operations, ``write_pct``% of them writes.

    Returns wall-clock figures plus the cache counters that explain
    them; ``read_misses`` counts the compiles the timed reads paid.
    ``flush_all=True`` reproduces the pre-PR discipline: every write is
    followed by ``session.close()`` (drop every cache, keep the data),
    so each subsequent query recompiles from nothing.
    """
    session = build_session(rows)
    zoo = queries(session)
    for query in zoo:  # warm every cache before the clock starts
        session.run(query, engine="sprout")
    stride = max(1, round(100 / write_pct)) if write_pct else ops + 1
    reads = writes = 0
    warm_misses = session.cache.stats()["misses"]
    t0 = time.perf_counter()
    for index in range(ops):
        if write_pct and index % stride == stride - 1:
            apply_write(session, writes)
            writes += 1
            if flush_all:
                session.close()
        else:
            session.run(zoo[index % len(zoo)], engine="sprout")
            reads += 1
    wall = time.perf_counter() - t0
    read_misses = session.cache.stats()["misses"] - warm_misses
    # Correctness gate: the mutated warm session must answer exactly
    # like a cold session rebuilt from its data.
    if fingerprints(session) != fingerprints(rebuilt_from_scratch(session)):
        raise AssertionError(
            f"post-workload answers diverge from the from-scratch oracle "
            f"(flush_all={flush_all})"
        )
    stats = session.cache.stats()
    return {
        "ops": ops,
        "reads": reads,
        "writes": writes,
        "wall_seconds": wall,
        "ops_per_second": ops / wall,
        "read_throughput_qps": reads / wall if reads else 0.0,
        "cache_hits": stats["hits"],
        "cache_misses": stats["misses"],
        "read_misses": read_misses,
        "cache_invalidations": stats["invalidations"],
        "db_generation": session.db.generation,
    }


def main(argv=None) -> int:
    smoke = smoke_mode(argv)
    rows = 32 if smoke else 64
    ops = 60 if smoke else 300
    report = BenchReport(
        "mutations", cpu_count=os.cpu_count(), rows=rows, ops=ops
    )
    sweep = [10] if smoke else [5, 10, 30]
    table_rows = []
    for write_pct in sweep:
        runs = {"incremental": [], "flush_all": []}
        ratios = []
        for pair in range(PAIRS):
            order = list(runs) if pair % 2 == 0 else list(runs)[::-1]
            for mode in order:
                runs[mode].append(
                    run_workload(rows, ops, write_pct, flush_all=mode == "flush_all")
                )
            ratios.append(
                runs["incremental"][-1]["read_throughput_qps"]
                / runs["flush_all"][-1]["read_throughput_qps"]
            )
        for mode, measured in runs.items():
            # Each series reports its median-wall run.
            metrics = sorted(measured, key=lambda m: m["wall_seconds"])[PAIRS // 2]
            report.add(
                mode,
                {"write_pct": write_pct, "rows": rows},
                mean=metrics["wall_seconds"],
                **metrics,
            )
            table_rows.append(
                (
                    mode,
                    write_pct,
                    metrics["writes"],
                    f"{metrics['read_throughput_qps']:.1f}",
                    metrics["cache_misses"],
                    metrics["cache_invalidations"],
                )
            )
        speedup = statistics.median(ratios)
        report.config.setdefault("speedups", {})[str(write_pct)] = round(
            speedup, 2
        )
        report.config.setdefault("pair_speedups", {})[str(write_pct)] = [
            round(ratio, 2) for ratio in ratios
        ]
        misses = {mode: runs[mode][0]["read_misses"] for mode in runs}
        report.config.setdefault("read_misses", {})[str(write_pct)] = misses
        # The acceptance criterion at the 10%-write point: incremental
        # invalidation must at least halve the compiles warm reads pay.
        if write_pct == 10 and misses["flush_all"] < 2 * misses["incremental"]:
            print(
                f"FAIL: incremental reads missed {misses['incremental']} "
                f"times against flush-all's {misses['flush_all']} at "
                f"{write_pct}% writes (need at most half)"
            )
            return 1
    print_series(
        "mixed-workload warm-query throughput",
        ["series", "write%", "writes", "qps", "misses", "invalidated"],
        table_rows,
    )
    for write_pct, speedup in report.config.get("speedups", {}).items():
        pairs = report.config["pair_speedups"][write_pct]
        misses = report.config["read_misses"][write_pct]
        print(
            f"incremental vs flush-all at {write_pct}% writes: {speedup}x "
            f"(median of pairs {sorted(pairs)}); read misses "
            f"{misses['incremental']} vs {misses['flush_all']}"
        )
    report.finish(argv)
    return 0


if __name__ == "__main__":
    sys.exit(main())
