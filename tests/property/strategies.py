"""Hypothesis strategies for random expressions and probability spaces."""

from __future__ import annotations

from hypothesis import strategies as st

from repro.algebra.conditions import compare
from repro.algebra.expressions import SConst, Var, sprod, ssum
from repro.algebra.monoid import MAX, MIN, SUM
from repro.algebra.semimodule import MConst, aggsum, tensor
from repro.prob.distribution import Distribution
from repro.prob.variables import VariableRegistry

#: Variable pool used by the expression strategies (kept small so the
#: brute-force oracle stays fast).
NAMES = ["a", "b", "c", "d", "e"]

probabilities = st.floats(
    min_value=0.05, max_value=0.95, allow_nan=False, allow_infinity=False
)


@st.composite
def boolean_registries(draw, names=tuple(NAMES)):
    """A registry assigning Bernoulli distributions to the name pool."""
    registry = VariableRegistry()
    for name in names:
        registry.bernoulli(name, draw(probabilities))
    return registry


@st.composite
def integer_registries(draw, names=tuple(NAMES[:3]), max_value=3):
    """A registry of small N-valued variables (bag semantics)."""
    registry = VariableRegistry()
    for name in names:
        support = draw(
            st.lists(
                st.integers(min_value=0, max_value=max_value),
                min_size=1,
                max_size=3,
                unique=True,
            )
        )
        weights = draw(
            st.lists(
                st.floats(min_value=0.05, max_value=1.0),
                min_size=len(support),
                max_size=len(support),
            )
        )
        total = sum(weights)
        registry.declare(
            name,
            Distribution({v: w / total for v, w in zip(support, weights)}),
        )
    return registry


def variables():
    return st.sampled_from(NAMES).map(Var)


@st.composite
def semiring_exprs(draw, depth=3):
    """Random semiring expressions over the name pool."""
    if depth <= 0:
        return draw(st.one_of(variables(), st.integers(0, 1).map(SConst)))
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return draw(variables())
    if kind == 1:
        return draw(st.integers(0, 1).map(SConst))
    children = draw(
        st.lists(semiring_exprs(depth=depth - 1), min_size=2, max_size=3)
    )
    return ssum(children) if kind == 2 else sprod(children)


@st.composite
def repetitive_exprs(draw, depth=2):
    """Random semiring expressions built to repeat and nest their
    children: ``t + t`` and ``t · t`` (nodes that normalise to a child of
    the other kind), and ``t ∘ v`` beside a child of ``t`` (a variable
    ``v`` whose restriction does the same).  A parent then meets what it
    must flatten, de-duplicate or fold only once its children are normal
    — ``(a + b)·(a + b) + a``, and ``(c·d + a)·c`` at ``a ← 0`` — shapes
    :func:`semiring_exprs` seldom draws."""
    def combine(children):
        return ssum(children) if draw(st.booleans()) else sprod(children)

    expr = draw(variables())
    for _ in range(depth):
        terms = draw(st.lists(semiring_exprs(depth=1), min_size=1, max_size=2))
        children = [combine([t, t]) if draw(st.booleans()) else t for t in terms]
        children.append(combine([expr, expr]))
        children.append(combine([expr, draw(variables())]))
        children.append(draw(st.sampled_from(expr.children or (expr,))))
        expr = combine(children)
    return expr


@st.composite
def monomials(draw, max_factors=3):
    """Products of variables — the Φᵢ of tuple-independent provenance."""
    factors = draw(st.lists(variables(), min_size=1, max_size=max_factors))
    return sprod(factors)


@st.composite
def module_exprs(draw, monoid=None, max_terms=4, max_value=8):
    """Random semimodule sums ``Σ Φᵢ ⊗ mᵢ``."""
    if monoid is None:
        monoid = draw(st.sampled_from([SUM, MIN, MAX]))
    terms = []
    for _ in range(draw(st.integers(1, max_terms))):
        phi = draw(semiring_exprs(depth=2))
        value = draw(st.integers(0, max_value))
        terms.append(tensor(phi, MConst(monoid, value)))
    return aggsum(monoid, terms)


@st.composite
def conditions(draw, max_value=8):
    """Random conditional expressions ``[Σ ... θ c]``."""
    alpha = draw(module_exprs(max_value=max_value))
    op = draw(st.sampled_from(["=", "!=", "<=", ">=", "<", ">"]))
    threshold = draw(st.integers(0, max_value + 2))
    return compare(alpha, op, MConst(alpha.monoid, threshold))


# -- random databases and queries (optimizer/executor properties) ------------

#: Fixed schemas for the random-query strategies: two joinable fact
#: tables and a union-compatible sibling of ``R``.
QUERY_TABLES = {
    "R": ["a", "u"],
    "S": ["b", "w"],
    "T": ["a", "u"],
}


@st.composite
def query_databases(draw, max_rows=3):
    """A small random pvc-database over the fixed query schemas.

    Variables stay few (at most one Bernoulli per row over ≤ 8 rows) so
    the brute-force possible-worlds oracle remains tractable.
    """
    from repro.algebra.expressions import Var
    from repro.algebra.semiring import BOOLEAN
    from repro.db.pvc_table import PVCDatabase

    registry = VariableRegistry()
    db = PVCDatabase(registry=registry, semiring=BOOLEAN)
    counter = 0
    for name, columns in QUERY_TABLES.items():
        table = db.create_table(name, columns)
        for _ in range(draw(st.integers(1, max_rows))):
            values = (draw(st.integers(1, 2)), draw(st.integers(1, 9)))
            if draw(st.booleans()):
                var = f"q{counter}"
                counter += 1
                registry.bernoulli(var, draw(probabilities))
                table.add(values, Var(var))
            else:
                table.add(values)  # a certain row
    return db


@st.composite
def queries(draw, max_depth=3):
    """Random well-formed ``Q`` queries over the ``QUERY_TABLES`` schemas.

    Covers every operator: joins written as ``σ(×)`` (with join, local
    and θ atoms), unions (also under ``$``), extend, projection, grouping
    with SUM/COUNT/MIN/MAX, and aggregation-attribute selections.
    """
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
    from repro.query.predicates import cmp_, conj, eq

    def atom(attrs):
        kind = draw(st.integers(0, 2))
        name = draw(st.sampled_from(sorted(attrs)))
        if kind == 0:
            return eq(name, draw(st.integers(1, 3)))
        if kind == 1:
            return cmp_(name, draw(st.sampled_from(["<=", ">=", "<"])), draw(st.integers(1, 9)))
        other = draw(st.sampled_from(sorted(attrs)))
        return cmp_(name, draw(st.sampled_from(["=", "<="])), other)

    def base(which):
        if which == 0:
            return relation("R"), {"a", "u"}
        if which == 1:
            return relation("S"), {"b", "w"}
        return relation("T"), {"a", "u"}

    def build(depth):
        shape = draw(st.integers(0, 6)) if depth > 0 else 6
        if shape == 0:  # join σ({R|T} × S), possibly with extra atoms
            left, _ = base(draw(st.sampled_from([0, 2])))
            right, _ = base(1)
            atoms = [eq("a", "b")]
            for _ in range(draw(st.integers(0, 2))):
                atoms.append(atom({"a", "u", "b", "w"}))
            return Select(Product(left, right), conj(*atoms)), {"a", "u", "b", "w"}
        if shape == 1:  # union of the compatible tables
            return Union(relation("R"), relation("T")), {"a", "u"}
        if shape == 2:  # selection over a subquery
            child, attrs = build(depth - 1)
            return Select(child, atom(attrs)), attrs
        if shape == 3:  # cascaded (possibly duplicate) selections
            child, attrs = build(depth - 1)
            first = atom(attrs)
            second = first if draw(st.booleans()) else atom(attrs)
            return Select(Select(child, first), second), attrs
        if shape == 4:  # projection
            child, attrs = build(depth - 1)
            keep = draw(
                st.lists(
                    st.sampled_from(sorted(attrs)), min_size=1, unique=True
                )
            )
            return Project(child, keep), set(keep)
        if shape == 5:  # extend
            child, attrs = build(depth - 1)
            source = draw(st.sampled_from(sorted(attrs)))
            target = source + "2"
            if target in attrs:
                return child, attrs
            return Extend(child, target, source), attrs | {target}
        which = draw(st.integers(0, 2))
        rel, attrs = base(which)
        return rel, attrs

    query, attrs = build(max_depth)
    if draw(st.booleans()):  # optionally aggregate on top
        group_candidates = sorted(attrs & {"a", "b"})
        groupby = (
            [draw(st.sampled_from(group_candidates))]
            if group_candidates and draw(st.booleans())
            else []
        )
        agg = draw(st.sampled_from(["SUM", "COUNT", "MIN", "MAX"]))
        value_candidates = sorted(attrs - set(groupby))
        if agg == "COUNT":
            spec = AggSpec.of("g", "COUNT")
        elif value_candidates:
            spec = AggSpec.of("g", agg, draw(st.sampled_from(value_candidates)))
        else:
            spec = AggSpec.of("g", "COUNT")
        query = GroupAgg(query, groupby, [spec])
        if draw(st.booleans()):  # HAVING-style θ-selection on the aggregate
            op = draw(st.sampled_from(["<=", ">=", "="]))
            query = Select(query, cmp_("g", op, draw(st.integers(0, 12))))
    return query
