"""Seeded inputs: databases, statement lists and the served traffic mix.

Everything the program under test sees is generated here from ``--seed``.
The builders are copies of the shapes ``benchmarks/bench_*.py`` use, kept
private to this package so those scripts stay free to change.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.algebra.expressions import Var, sprod, ssum
from repro.algebra.semiring import BOOLEAN
from repro.db.pvc_table import PVCDatabase
from repro.prob.distribution import Distribution
from repro.prob.variables import VariableRegistry
from repro.query.ast import AggSpec, GroupAgg, Project, Select, relation
from repro.query.predicates import cmp_
from repro.server import DEMO_QUERIES
from repro.workloads.tpch import (
    TPCH_SCHEMAS,
    TPCHConfig,
    generate_tpch,
    prepare_q2_aliases,
    tpch_q1,
    tpch_q2,
)
from repro.workloads.tpch.queries import q2_candidate


@dataclass(frozen=True)
class Statement:
    """One operation of an in-process workload.

    ``query`` is SQL text or a ``Q``-algebra tree; ``options`` go to
    ``Session.sql``/``Session.run``.  ``distributions`` makes the caller
    read every aggregate's value distribution (the convolution work).
    ``bind(db)`` — for a query whose literals depend on the data — runs
    untimed just before the statement and returns the query.
    """

    name: str
    query: object = None
    options: dict = field(default_factory=dict)
    distributions: bool = False
    bind: object = None
    #: ``(group-by attributes, table, (attribute, upper bound) | None)``
    #: of a single-table grouped COUNT, for the closed-form check.
    closed_form: tuple | None = None


#: The *shape* of a generated database — keys, values, which variable
#: annotates which row — comes from one of these fixed seeds, because join
#: fan-outs and annotation structure move the cost of a statement by tens
#: of percent, which no bound survives from one ``--seed`` to the next.
#: Two shapes, and every pass runs the statement list on each, so that a
#: later change cannot be fitted to one fan-out or one annotation
#: structure.  ``--seed`` draws every marginal probability (so every
#: answer), the Monte-Carlo streams, the ad-hoc literals and the write
#: payloads.  (The second seed is the nearest to the first on which the
#: exact oracle of ``sampled_joins`` — ``sprout`` on the full-size
#: instance, 1 to 47 s depending on the group sizes drawn — takes under 2 s.)
SHAPE_SEEDS = (20120827, 20120829)


@dataclass(frozen=True)
class Workload:
    """An in-process workload: per pass and per shape fresh inputs
    (``database(seed, shape)``), then the statements.

    ``micro`` lists ``(database builder, statement names)`` pairs: tiny
    instances of the same schema on which those statements are checked
    against possible-worlds enumeration.
    """

    name: str
    statements: tuple
    database: object
    micro: tuple
    shapes: tuple = SHAPE_SEEDS


def _empty_db() -> PVCDatabase:
    return PVCDatabase(registry=VariableRegistry(), semiring=BOOLEAN)


def reseed_marginals(db: PVCDatabase, seed: int, low=0.2, high=0.9) -> PVCDatabase:
    """Redraw the probability of every (Boolean) variable from ``seed``."""
    rng = random.Random(seed)
    registry = db.registry
    for name in sorted(registry.names()):
        registry.reassign(name, Distribution.bernoulli(rng.uniform(low, high)))
    return db


# -- tpch_joins_cold -----------------------------------------------------------

STAR_SQL = (
    "SELECT fk0, measure, d1_cat FROM fact, dim0, dim1, dim2 "
    "WHERE fk0 = d0_key AND fk1 = d1_key AND fk2 = d2_key "
    "AND d0_cat = 3 AND d1_cat = 5"
)


def add_star(db: PVCDatabase, fact_rows: int, dim_rows: int, rng) -> None:
    """A probabilistic fact table joined to three certain dimensions."""
    fact = db.create_table("fact", ["fk0", "fk1", "fk2", "measure"])
    for i in range(fact_rows):
        name = f"f{i}"
        db.registry.bernoulli(name, 0.5)
        keys = tuple(rng.randrange(dim_rows) for _ in range(3))
        fact.add(keys + (rng.randint(1, 100),), Var(name))
    for d in range(3):
        table = db.create_table(f"dim{d}", [f"d{d}_key", f"d{d}_cat"])
        for k in range(dim_rows):
            table.add((k, k % 10))


def bind_q2(db: PVCDatabase):
    """TPC-H Q2 for a part/region pair that has an answer in ``db``.

    The ``i_`` alias tables Q2 needs share variables with their
    originals, which makes those relations correlated for every later
    statement — so they are created here, last in the pass.
    """
    prepare_q2_aliases(db)
    return tpch_q2(*q2_candidate(db))


TPCH_JOINS_STATEMENTS = (
    Statement(
        "q3_join_sum",
        "SELECT o_orderkey, SUM(l_extendedprice) AS revenue "
        "FROM customer, orders, lineitem "
        "WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey "
        "AND c_mktsegment = 'BUILDING' AND o_orderdate < 600 "
        "GROUP BY o_orderkey",
    ),
    Statement(
        "join3_project",
        "SELECT o_orderkey, c_name FROM customer, orders, nation "
        "WHERE c_custkey = o_custkey AND c_nationkey = n_nationkey "
        "AND n_regionkey = 2 AND o_orderdate < 800",
    ),
    Statement(
        "partsupp_min",
        "SELECT s_name, MIN(ps_supplycost) AS cheapest "
        "FROM partsupp, supplier WHERE ps_suppkey = s_suppkey "
        "GROUP BY s_name",
    ),
    Statement(
        "wide_selection",
        "SELECT l_orderkey, l_partkey, l_quantity FROM lineitem "
        "WHERE l_quantity >= 45",
    ),
    Statement(
        "chain5_project",
        "SELECT c_name FROM lineitem, orders, customer, nation, region "
        "WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey "
        "AND c_nationkey = n_nationkey AND n_regionkey = r_regionkey "
        "AND r_name = 'ASIA' AND l_quantity >= 48 AND o_orderdate < 800",
    ),
    Statement("star_join", STAR_SQL),
    Statement("tpch_q2", bind=bind_q2),
)


def tpch_joins_database(seed: int, shape: int) -> PVCDatabase:
    db = generate_tpch(TPCHConfig(scale_factor=1.0, seed=shape))
    add_star(db, 5000, 50, random.Random(shape))
    return reseed_marginals(db, seed)


def micro_tpch(seed: int) -> PVCDatabase:
    """The TPC-H schema with 11 random variables (2 048 worlds); every
    statement of the two TPC-H workloads has a non-empty answer on it."""
    db = _empty_db()
    for name, schema in TPCH_SCHEMAS.items():
        db.create_table(name, schema.attributes)
    p = 0.5  # redrawn from the seed below

    for k, region in enumerate(("ASIA", "EUROPE", "AMERICA")):
        db.insert("region", (k, region))
    for k in range(3):
        db.insert("nation", (k, f"NATION{k:02d}", k))
    for k in range(2):
        db.insert("supplier", (k, f"Supplier#{k:05d}", 1), p=p)
    db.insert("part", (0, "Part#000000", "TIN", 7))
    for supplier in range(2):
        db.insert("partsupp", (0, supplier, 300), p=p)
    for k, segment in enumerate(("BUILDING", "MACHINERY")):
        db.insert("customer", (k, f"Customer#{k:06d}", 2 - k, segment))
    for k in range(3):
        db.insert("orders", (k, k % 2, 400 * (k + 1)), p=p)
    for k, quantity in enumerate((46, 12, 50, 45)):
        db.insert(
            "lineitem",
            (k % 3, 0, k % 2, quantity, quantity * 100, "RAN"[k % 3],
             "OF"[k % 2], 500 * (k + 1)),
            p=p,
        )
    return reseed_marginals(db, seed)


def micro_star(seed: int) -> PVCDatabase:
    db = _empty_db()
    add_star(db, 8, 4, random.Random(SHAPE_SEEDS[0]))
    return reseed_marginals(db, seed)


TPCH_JOINS = Workload(
    "tpch_joins_cold",
    TPCH_JOINS_STATEMENTS,
    tpch_joins_database,
    micro=(
        (micro_tpch, tuple(
            s.name for s in TPCH_JOINS_STATEMENTS if s.name != "star_join"
        )),
        (micro_star, ("star_join",)),
    ),
)


# -- agg_compile_cold ----------------------------------------------------------


def add_correlated_groups(
    db: PVCDatabase, groups: int, terms: int, variables: int, rng
) -> None:
    """Experiment-A-shaped groups: per group ``terms`` rows annotated
    with a product of two 2-variable disjunctions over a shared pool."""
    table = db.create_table("R", ["g", "v"])
    for g in range(groups):
        names = [f"g{g}v{i}" for i in range(variables)]
        for name in names:
            db.registry.bernoulli(name, 0.5)
        for _ in range(terms):
            phi = sprod(
                ssum(Var(name) for name in rng.sample(names, 2))
                for _ in range(2)
            )
            table.add((g, rng.randint(1, 30)), phi)


def having(agg: str, op: str, constant: int):
    """``SELECT g FROM R GROUP BY g HAVING agg(v) op constant``."""
    source = None if agg == "COUNT" else "v"
    grouped = GroupAgg(relation("R"), ["g"], [AggSpec.of("x", agg, source)])
    return Project(Select(grouped, cmp_("x", op, constant)), ["g"])


#: Rows per HAVING group; the thresholds sit where the outcome is open.
AGG_TERMS = 18
_SPROUT = {"engine": "sprout"}

AGG_COMPILE_STATEMENTS = (
    Statement(
        "q1_count", tpch_q1(), distributions=True,
        closed_form=(
            ("l_returnflag", "l_linestatus"), "lineitem", ("l_shipdate", 2160),
        ),
    ),
    Statement(
        "join_count",
        "SELECT l_returnflag, COUNT(*) AS n FROM orders, lineitem "
        "WHERE o_orderkey = l_orderkey AND o_orderdate < 1200 "
        "GROUP BY l_returnflag",
        distributions=True,
    ),
    Statement("having_sum", having("SUM", ">=", 8 * AGG_TERMS), _SPROUT),
    Statement("having_count", having("COUNT", "=", AGG_TERMS // 2), _SPROUT),
    Statement("having_min", having("MIN", "<=", 2), _SPROUT),
    Statement("having_max", having("MAX", ">=", 30), _SPROUT),
    Statement(
        "having_sum_approx", having("SUM", ">=", 9 * AGG_TERMS),
        {"mode": "approx", "epsilon": 0.05},
    ),
)


def agg_compile_database(seed: int, shape: int) -> PVCDatabase:
    db = generate_tpch(TPCHConfig(scale_factor=0.12, seed=shape))
    add_correlated_groups(db, 4, AGG_TERMS, 10, random.Random(shape))
    return reseed_marginals(db, seed)


def micro_groups(seed: int) -> PVCDatabase:
    db = _empty_db()
    add_correlated_groups(db, 2, 6, 5, random.Random(SHAPE_SEEDS[0]))
    return reseed_marginals(db, seed)


AGG_COMPILE = Workload(
    "agg_compile_cold",
    AGG_COMPILE_STATEMENTS,
    agg_compile_database,
    micro=(
        (micro_tpch, ("q1_count", "join_count")),
        (micro_groups, tuple(
            s.name for s in AGG_COMPILE_STATEMENTS if s.name.startswith("having")
        )),
    ),
)


# -- sampled_joins -------------------------------------------------------------

SAMPLED_JOINS_STATEMENTS = (
    Statement(
        "mc_join_fixed",
        "SELECT cat, SUM(v) AS t FROM fact, dim WHERE k = dk GROUP BY cat",
        {"engine": "montecarlo", "samples": 600},
    ),
    # Mid-probability answer tuples, so the widest interval — and with it
    # the round sequential stopping ends on — does not depend on the seed.
    Statement(
        "mc_join_sequential",
        "SELECT k, cat FROM fact, dim WHERE k = dk",
        {"mode": "sample", "epsilon": 0.11, "delta": 0.05},
    ),
    Statement(
        "mc_ti_batched",
        "SELECT a, SUM(v) AS t FROM T GROUP BY a",
        {"engine": "montecarlo", "samples": 30000},
    ),
)


def _sampled_joins_database(seed, shape, fact_rows, dim_rows, ti_rows) -> PVCDatabase:
    """A fact table with conjunctive annotations (forces the per-world
    path), a certain dimension, and a tuple-independent table (admits the
    vectorised batch path)."""
    rng = random.Random(shape)
    db = _empty_db()
    fact = db.create_table("fact", ["k", "v"])
    for i in range(fact_rows):
        x, y = f"r{i}", f"q{i}"
        db.registry.bernoulli(x, 0.5)
        db.registry.bernoulli(y, 0.5)
        fact.add((rng.randrange(dim_rows), rng.randint(0, 50)), Var(x) * Var(y))
    dim = db.create_table("dim", ["dk", "cat"])
    for k in range(dim_rows):
        dim.add((k, k % 5))
    ti = db.create_table("T", ["a", "v"])
    for i in range(ti_rows):
        name = f"t{i}"
        db.registry.bernoulli(name, 0.5)
        ti.add((i % 4, rng.randint(0, 50)), Var(name))
    return reseed_marginals(db, seed, 0.3, 0.8)


def sampled_joins_database(seed: int, shape: int) -> PVCDatabase:
    return _sampled_joins_database(seed, shape, 40, 20, 40)


def micro_sampled_joins(seed: int) -> PVCDatabase:
    return _sampled_joins_database(seed, SHAPE_SEEDS[0], 3, 3, 4)


SAMPLED_JOINS = Workload(
    "sampled_joins",
    SAMPLED_JOINS_STATEMENTS,
    sampled_joins_database,
    micro=((micro_sampled_joins, tuple(
        s.name for s in SAMPLED_JOINS_STATEMENTS
    )),),
)

IN_PROCESS = {w.name: w for w in (TPCH_JOINS, AGG_COMPILE, SAMPLED_JOINS)}


# -- served workloads ----------------------------------------------------------

SERVED_SCALE = 32
KINDS = ("a", "b", "c", "d")

#: The hot zoo: the 7 demo queries plus COUNT/SUM/MIN per kind at 5
#: thresholds — 22 statements, far below the 256-entry caches.
HOT_ZOO = tuple(DEMO_QUERIES) + tuple(
    f"SELECT kind, {agg} AS x FROM R WHERE value >= {threshold} GROUP BY kind"
    for agg in ("COUNT(*)", "SUM(value)", "MIN(value)")
    for threshold in (10, 20, 30, 40, 50)
)

ADHOC_TEMPLATES = (
    "SELECT label FROM R, T WHERE kind = rkind AND value >= {x}",
    "SELECT kind, SUM(value) AS x FROM R WHERE value >= {x} GROUP BY kind",
    "SELECT kind, value FROM R WHERE value <= {x}",
)


#: One text of every statement shape the traffic contains.
TRAFFIC_SHAPES = HOT_ZOO + tuple(t.format(x="25.125") for t in ADHOC_TEMPLATES)


def adhoc_statements(seed: int, client: int, clients: int):
    """Endless never-repeating ad-hoc texts for one client.

    Literals are distinct 3-decimal numbers in [10, 50): a seeded
    permutation of 40 000 integers, dealt round-robin to the clients, so
    no text is ever sent twice in a run — every one misses the statement
    and plan caches.
    """
    order = random.Random(seed).sample(range(10_000, 50_000), 40_000)
    for index, value in enumerate(order[client::clients]):
        template = ADHOC_TEMPLATES[index % len(ADHOC_TEMPLATES)]
        yield template.format(x=f"{value / 1000:.3f}")
    raise RuntimeError("ad-hoc literal space exhausted")


def write_cycle(seed: int, client: int) -> list[dict]:
    """The client's repeating insert → ``p=`` update → delete cycle, as
    ``ServerClient.mutate`` keyword sets on a row only it touches."""
    rng = random.Random(seed * 1009 + client)
    kind, value = KINDS[client % len(KINDS)], 1000 + client
    where = {"kind": kind, "value": value}
    return [
        {"action": "insert", "values": (kind, value), "p": rng.uniform(0.3, 0.5)},
        {"action": "update", "where": where, "p": rng.uniform(0.6, 0.8)},
        {"action": "delete", "where": where},
    ]


def apply_write(db: PVCDatabase, step: dict) -> None:
    """One step of a write cycle, straight on a local database."""
    if step["action"] == "insert":
        db.insert("R", step["values"], p=step["p"])
    elif step["action"] == "update":
        db.update("R", step["where"], p=step["p"])
    else:
        db.delete("R", step["where"])


def operation_kind(index: int, mixed: bool) -> str:
    """``"write"``, ``"adhoc"`` or ``"hot"`` for a client's ``index``-th
    operation: every 7th is ad-hoc, and under ``mixed`` every 10th
    operation is replaced by a write."""
    if mixed and index % 10 == 9:
        return "write"
    return "adhoc" if index % 7 == 6 else "hot"


#: One pass of a served client: the schedule's period.
SERVED_PASS_OPS = 70


def micro_demo_session(seed: int):
    """The demo schema with 10 random variables (1 024 worlds)."""
    from repro import connect

    rng = random.Random(seed)
    session = connect(seed=seed)
    r = session.table("R", ["kind", "value"])
    for i in range(5):
        r.insert((KINDS[i % 2], 10 * (1 + i % 5)), p=rng.uniform(0.1, 0.9))
    t = session.table("T", ["rkind", "label"])
    for kind in KINDS[:2]:
        t.insert((kind, f"label-{kind}"), p=rng.uniform(0.1, 0.9))
    b = session.table("B", ["slot", "bid"])
    for i, bid in enumerate((40, 60, 60)):
        b.insert((f"s{i % 2}", bid), p=rng.uniform(0.1, 0.9))
    return session
