"""Shared builders for the codegen differential suite.

The contract under test is *bit-identical conformance*: for every plan it
accepts, the compiled kernel must reproduce the tree-walking
interpreter's ``{values: multiplicity}`` mapping exactly — same content,
same insertion order — on every possible world.  The builders here
produce small databases (cheap world enumeration) and a spread of query
shapes covering every fused operator: filter, hash join, nested-loop
product, projection, union, extension, reordering and group-aggregation.
"""

from __future__ import annotations

import pytest

from repro.algebra.expressions import SConst, Var
from repro.algebra.semiring import BOOLEAN, NATURALS
from repro.db.pvc_table import PVCDatabase
from repro.prob.variables import VariableRegistry
from repro.query.ast import (
    AggSpec,
    Extend,
    GroupAgg,
    Product,
    Project,
    Select,
    Union,
    relation,
)
from repro.query.predicates import cmp_, eq, lit


def build_db(semiring):
    """Two joinable tables over four variables (16 worlds), and a
    deterministic table ``T`` that adds no variable: every plan over
    ``T`` alone is world-invariant and hoisted whole at binding."""
    reg = VariableRegistry()
    db = PVCDatabase(registry=reg, semiring=semiring)
    r = db.create_table("R", ["a", "b"])
    reg.bernoulli("x1", 0.4)
    reg.bernoulli("x2", 0.7)
    if semiring is NATURALS:
        r.add(("u", 1), Var("x1"))
        r.add(("u", 1), SConst(2))  # duplicate values, merged multiplicity
        r.add(("v", 2), Var("x2"))
    else:
        r.add(("u", 1), Var("x1"))
        r.add(("v", 2), Var("x2"))
    r.add(("w", 3), SConst(semiring.one))
    s = db.create_table("S", ["c", "d"])
    reg.bernoulli("y1", 0.5)
    reg.bernoulli("y2", 0.8)
    s.add((1, "p"), Var("y1"))
    s.add((2, "q"), Var("y2"))
    s.add((3, "p"), SConst(semiring.one))
    t = db.create_table("T", ["e", "f"])
    for row in (("r", 1), ("s", 2), ("t", 3)):
        t.add(row, SConst(semiring.one))
    return db


#: Query shapes exercising every operator the emitter fuses.  Products
#: require disjoint schemas and unions identical ones, hence the shapes.
QUERY_SHAPES = {
    "project": Project(relation("R"), ["a"]),
    "select": Select(relation("R"), cmp_("b", ">=", 2)),
    "join": Project(
        Select(Product(relation("R"), relation("S")), eq("b", "c")),
        ["a", "d"],
    ),
    "union": Union(
        Select(relation("R"), eq("a", lit("u"))),
        Select(relation("R"), cmp_("b", ">", 1)),
    ),
    "shared-subplan": Union(
        Select(relation("R"), cmp_("b", ">", 1)),
        Select(relation("R"), cmp_("b", ">", 1)),
    ),
    "static-subplan": Union(
        Select(relation("T"), cmp_("f", ">", 1)),
        Select(relation("T"), cmp_("f", ">", 1)),
    ),
    "extend-permute": Project(Extend(relation("R"), "a2", "a"), ["a2", "b", "a"]),
    "groupby": GroupAgg(
        Select(Product(relation("R"), relation("S")), eq("b", "c")),
        ["d"],
        [AggSpec.of("n", "count")],
    ),
    "agg-sum": GroupAgg(
        relation("S"),
        ["d"],
        [AggSpec.of("total", "sum", "c")],
    ),
    # Each MAX binds its own ``-inf`` constant: eight outnumber the temps
    # emitted before the group key, whose name must differ from them all.
    "agg-max-constants": GroupAgg(
        relation("R"),
        ["a"],
        [AggSpec.of(f"m{i}", "max", "b") for i in range(8)],
    ),
}


@pytest.fixture(params=[BOOLEAN, NATURALS], ids=["boolean", "naturals"])
def db(request):
    return build_db(request.param)


@pytest.fixture(params=sorted(QUERY_SHAPES), ids=sorted(QUERY_SHAPES))
def query(request):
    return QUERY_SHAPES[request.param]
