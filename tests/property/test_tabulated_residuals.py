"""Rule 6's base case changes no answer — differentially and exactly.

A small connected residual is valuated over all ``2^k`` worlds in one
numpy batch (:class:`repro.core.dtree.TableLeaf`) instead of being
Shannon-expanded.  Three computations of the same distribution must
agree on every generated expression, to 1e-12, with identical support
*and identical Python value types* (int vs float vs ±∞):

* kernels on — the compiler with the base case, and the bare table leaf;
* kernels off — Algorithm 1 verbatim;
* a possible-worlds enumeration in :class:`fractions.Fraction`
  arithmetic, which bounds the float drift of both.

(The first slice of ROADMAP item 3(b).)  Every guard of
:func:`repro.core.compile.table_leaf` falls through to the verbatim
path with the same answer, and above the compiler a ``p=`` update or a
worker pool sees nothing new.

A table leaf valuates its worlds on Python-int bitsets; the truth table
valuated on ``all_valuations``' numpy columns is kept here as the oracle,
and the two must agree bit for bit on every mass.
"""

from __future__ import annotations

import itertools
import random

import numpy as np
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import connect
from repro.algebra.conditions import compare
from repro.algebra.expressions import Var, sprod, ssum
from repro.algebra.monoid import COUNT, MAX, MIN, PROD, SUM, CappedSumMonoid
from repro.algebra.semimodule import MConst, aggsum, tensor
from repro.algebra.semiring import BOOLEAN, NATURALS
from repro.algebra.valuation import (
    all_valuations,
    batch_exact,
    batch_values,
    evaluate,
    evaluate_batch,
)
from repro.core.compile import _TABLE_VARIABLES, Compiler, table_leaf
from repro.core.dtree import TableLeaf
from repro.core.stats import collect_stats
from repro.db.pvc_table import PVCDatabase
from repro.errors import AlgebraError
from repro.prob.distribution import TOLERANCE
from repro.prob.variables import VariableRegistry
from repro.query.ast import AggSpec, GroupAgg, Product, Project, Select, relation
from repro.query.predicates import cmp_, eq
from tests.conftest import kernels_off
from tests.property.test_mutation_conformance import fingerprint

pytestmark = pytest.mark.usefixtures("numpy_kernels")

SETTINGS = settings(max_examples=60, deadline=None)
OPERATORS = ["=", "!=", "<=", ">=", "<", ">"]

#: Marginals include exactly 0 and 1; the others keep every world's mass
#: (≥ 0.2^10) clear of the distributions' 1e-9 drop tolerance.
marginals = st.one_of(
    st.sampled_from([0.0, 1.0]), st.floats(min_value=0.2, max_value=0.8)
)


def registry_of(probabilities: dict) -> VariableRegistry:
    registry = VariableRegistry()
    for name, p in probabilities.items():
        registry.bernoulli(name, p)
    return registry


@st.composite
def pools(draw, max_variables=10):
    count = draw(st.integers(2, max_variables))
    return registry_of({f"x{i}": draw(marginals) for i in range(count)})


@st.composite
def scalars(draw, names, spine=None):
    """A product of 1-2 disjunctions of 1-2 variables — the shape join
    results have.  ``spine`` fixes two variables into the first clause."""
    clauses = []
    for index in range(draw(st.integers(1, 2))):
        picked = draw(st.lists(st.sampled_from(names), min_size=1, max_size=2))
        if index == 0 and spine is not None:
            picked = list(spine)
        clauses.append(ssum(Var(name) for name in picked))
    return sprod(clauses)


@st.composite
def aggregates(draw, names):
    """``Σ_M Φᵢ⊗mᵢ`` connected through a spine ``xᵢ, xᵢ₊₁`` of shared
    variables: SUM, capped SUM, COUNT, MIN, MAX; int or (MIN/MAX) float."""
    monoid = draw(
        st.sampled_from([SUM, COUNT, MIN, MAX, CappedSumMonoid(draw(st.integers(0, 40)))])
    )
    floats = monoid in (MIN, MAX) and draw(st.booleans())
    terms = []
    spine = list(zip(names, names[1:]))
    for pair in spine + [None] * draw(st.integers(0, 4)):
        phi = draw(scalars(names, pair))
        value = 1 if monoid is COUNT else draw(st.integers(0, 30))
        terms.append(tensor(phi, MConst(monoid, value + 0.5 if floats else value)))
    return aggsum(monoid, terms)


@st.composite
def conditions(draw, names):
    alpha = draw(aggregates(names))
    constant = draw(st.integers(0, 45))
    return compare(alpha, draw(st.sampled_from(OPERATORS)), MConst(alpha.monoid, constant))


@st.composite
def cases(draw):
    """``(registry, expr)``: an aggregate, a condition, or conditions
    nested inside products and sums of products."""
    registry = draw(pools())
    names = sorted(registry)
    shape = draw(st.sampled_from(["aggregate", "condition", "guarded", "nested"]))
    if shape == "aggregate":
        return registry, draw(aggregates(names))
    if shape == "condition":
        return registry, draw(conditions(names))
    if shape == "guarded":
        return registry, sprod(
            [draw(scalars(names)), draw(conditions(names)), draw(conditions(names))]
        )
    return registry, ssum(
        sprod([draw(scalars(names)), draw(conditions(names))]) for _ in range(2)
    )


def typed(distribution) -> dict:
    """``{(type name, value): probability}`` — ``1``, ``1.0`` and ``True``
    are one dict key, so supports are compared with their types."""
    return {(type(v).__name__, v): p for v, p in distribution.items()}


def assert_same_distribution(left, right):
    left, right = typed(left), typed(right)
    assert set(left) == set(right)
    for key, probability in right.items():
        assert left[key] == pytest.approx(probability, abs=1e-12)


def fraction_oracle(expr, registry) -> dict:
    """The possible-worlds distribution of ``expr`` in exact arithmetic."""
    names = sorted(expr.variables)
    masses: dict = {}
    for world in itertools.product((False, True), repeat=len(names)):
        weight = Fraction(1)
        for name, present in zip(names, world):
            p = Fraction(registry[name][True])
            weight *= p if present else 1 - p
        if weight:
            value = evaluate(expr, dict(zip(names, world)), BOOLEAN)
            key = (type(value).__name__, value)
            masses[key] = masses.get(key, 0) + weight
    return masses


def verbatim(registry, expr, semiring=BOOLEAN, **options):
    """Algorithm 1 verbatim: ``(distribution, ⊔ nodes created)``."""
    with kernels_off():
        compiler = Compiler(registry, semiring, **options)
        return compiler.distribution(expr), compiler.mutex_nodes_created


class TestDifferential:
    @SETTINGS
    @given(cases(), st.booleans())
    def test_kernels_on_equals_kernels_off_equals_fractions(self, case, pruning):
        registry, expr = case
        compiler = Compiler(registry, BOOLEAN, pruning=pruning)
        fast = compiler.distribution(expr)
        slow, _ = verbatim(registry, expr, pruning=pruning)
        assert_same_distribution(fast, slow)
        exact = fraction_oracle(expr, registry)
        for contestant in (fast, slow):
            contestant = typed(contestant)
            assert set(contestant) == set(exact)
            for key, mass in exact.items():
                assert contestant[key] == pytest.approx(float(mass), abs=1e-12)

    @SETTINGS
    @given(cases())
    def test_the_bare_table_is_exact(self, case):
        registry, expr = case
        compiler = Compiler(registry, BOOLEAN)
        expr = compiler.normalize(expr)
        if not expr.variables:
            return
        assert batch_exact(expr)
        leaf = TableLeaf(expr, sorted(expr.variables))
        table = typed(leaf.distribution(compiler.context))
        exact = fraction_oracle(expr, registry)
        assert set(table) == set(exact)
        for key, mass in exact.items():
            assert table[key] == pytest.approx(float(mass), abs=1e-12)

    def test_a_benchmark_shaped_group_is_tabulated(self):
        # 18 rows over 10 variables, as agg_compile_cold's groups.
        rng = random.Random(5)
        names = [f"v{i}" for i in range(10)]
        registry = registry_of({name: rng.uniform(0.2, 0.8) for name in names})
        alpha = aggsum(SUM, [
            tensor(
                sprod(ssum(Var(n) for n in rng.sample(names, 2)) for _ in range(2)),
                MConst(SUM, rng.randint(1, 30)),
            )
            for _ in range(18)
        ])
        expr = compare(alpha, ">=", MConst(SUM, 144))
        compiler = Compiler(registry, BOOLEAN)
        tree = compiler.compile(expr)
        stats = collect_stats(tree, compiler.context)
        assert stats.table_leaves >= 1
        assert stats.table_worlds <= 2 ** 10
        slow, mutex_nodes = verbatim(registry, expr)
        assert compiler.mutex_nodes_created < mutex_nodes / 10
        assert_same_distribution(tree.distribution(compiler.context), slow)


# -- bitsets: the same masses as numpy columns, bit for bit ----------------------


def numpy_table(leaf, ctx) -> dict:
    """The oracle: ``leaf``'s truth table valuated by ``evaluate_batch``
    over ``all_valuations``' numpy columns, with the same world weights
    and masked sums; ``{(type name, value): mass}``."""
    weights = np.ones(1)
    for name in leaf.names:
        p = ctx.var_distribution(name)[True]
        weights = np.multiply.outer((1.0 - p, p), weights).ravel()
    column = evaluate_batch(leaf.expr, all_valuations(leaf.names), leaf.worlds, {})
    if column.dtype == bool:
        values = [False, True]
        masses = [float(weights[~column].sum()), float(weights[column].sum())]
    else:
        values, world_value = np.unique(column, return_inverse=True)
        masses = np.bincount(world_value, weights=weights).tolist()
        values = batch_values(leaf.expr, values)
    return typed({v: m for v, m in zip(values, masses) if m > TOLERANCE})


def assert_bit_identical(registry, expr):
    ctx = Compiler(registry, BOOLEAN).context
    leaf = TableLeaf(expr, sorted(expr.variables))
    bitsets = typed(leaf.distribution(ctx))
    assert bitsets == numpy_table(leaf, ctx)  # == on every mass
    return bitsets


MONOIDS = {
    "SUM": SUM,
    "COUNT": COUNT,
    "capped": CappedSumMonoid(20),
    "MIN": MIN,
    "MAX": MAX,
}


def shaped(rng, names, monoid, floats=False):
    """``Σ_M Φᵢ⊗mᵢ`` over every name, as :func:`aggregates` draws it."""
    terms = []
    for left, right in zip(names, names[1:] + names[:1]):
        phi = sprod([Var(left) + Var(right), Var(rng.choice(names))])
        value = 1 if monoid is COUNT else rng.randint(0, 12)
        terms.append(tensor(phi, MConst(monoid, value + 0.5 if floats else value)))
    return aggsum(monoid, terms)


class TestBitsetTables:
    @SETTINGS
    @given(cases())
    def test_every_drawn_residual(self, case):
        registry, expr = case
        expr = Compiler(registry, BOOLEAN).normalize(expr)
        if expr.variables:
            assert_bit_identical(registry, expr)

    @pytest.mark.parametrize("op", OPERATORS)
    @pytest.mark.parametrize("monoid", list(MONOIDS), ids=list(MONOIDS))
    def test_every_monoid_under_every_comparison(self, monoid, op):
        monoid = MONOIDS[monoid]
        rng = random.Random(f"{monoid.name}{op}")
        for count in (3, 6, 9):
            names = [f"x{i}" for i in range(count)]
            registry = registry_of({n: rng.choice([0.0, 1.0, rng.uniform(0.2, 0.8)])
                                    for n in names})
            for floats in {False, monoid in (MIN, MAX)}:
                alpha = shaped(rng, names, monoid, floats)
                assert_bit_identical(registry, alpha)
                constant = MConst(monoid, rng.randint(0, 3 * count))
                condition = compare(alpha, op, constant)
                assert_bit_identical(registry, condition)
                # A semiring residual: a condition guarding a disjunction.
                assert_bit_identical(registry, sprod([condition, Var(names[0]) + Var(names[-1])]))

    def test_a_single_variable(self):
        registry = registry_of({"x0": 0.3})
        x = Var("x0")
        assert assert_bit_identical(registry, x) == {
            ("bool", False): 0.7, ("bool", True): 0.3,
        }
        assert_bit_identical(registry, tensor(x, MConst(SUM, 5)))
        assert_bit_identical(registry, compare(tensor(x, MConst(MAX, 5)), ">=", 3))

    def test_every_variable_the_table_allows(self):
        # 4 096 worlds: only the last one, bit 4 095, has all present.
        names = [f"x{i}" for i in range(_TABLE_VARIABLES)]
        registry = registry_of({n: 0.5 + 0.03 * i for i, n in enumerate(names)})
        everyone = sprod(Var(n) for n in names)
        table = assert_bit_identical(registry, everyone)
        assert table[("bool", True)] == pytest.approx(
            float(np.prod([0.5 + 0.03 * i for i in range(len(names))])), rel=1e-12
        )
        alpha = aggsum(SUM, [
            tensor(everyone, MConst(SUM, 100)),
            *(tensor(Var(n), MConst(SUM, 1)) for n in names),
        ])
        assert ("int", 100 + len(names)) in assert_bit_identical(registry, alpha)
        condition = compare(alpha, ">", 100)
        assert assert_bit_identical(registry, condition)[("bool", True)] == table[
            ("bool", True)
        ]


# -- guards: each falls through to Algorithm 1 verbatim --------------------------


def entangled(count=4, monoid=SUM, weight=lambda i: i + 1):
    """``Σ (xᵢ + xᵢ₊₁)(xᵢ + xᵢ₊₂) ⊗ mᵢ`` over ``x0 … x{count-1}`` — a
    residual no rule 1-5 applies to."""
    names = [f"x{i}" for i in range(count)]
    return aggsum(monoid, [
        tensor(
            sprod([
                Var(names[i]) + Var(names[(i + 1) % count]),
                Var(names[i]) + Var(names[(i + 2) % count]),
            ]),
            MConst(monoid, weight(i)),
        )
        for i in range(count)
    ])


def boolean_pool(count=4):
    return registry_of({f"x{i}": 0.3 + 0.05 * (i % 8) for i in range(count)})


def guard_naturals():
    registry = VariableRegistry()
    for i in range(4):
        registry.integer(f"x{i}", {0: 0.4, 1: 0.6})
    return registry, entangled(), NATURALS


def guard_float_sum_weight():
    weight = lambda i: 1.5 if i == 0 else i + 1  # noqa: E731
    return boolean_pool(), entangled(weight=weight), BOOLEAN


def guard_prod_monoid():
    return boolean_pool(), entangled(monoid=PROD), BOOLEAN


def guard_one_variable_over_the_cap():
    count = _TABLE_VARIABLES + 1
    return boolean_pool(count), entangled(count), BOOLEAN


GUARDS = [
    guard_naturals,
    guard_float_sum_weight,
    guard_prod_monoid,
    guard_one_variable_over_the_cap,
]


class TestGuards:
    @pytest.mark.parametrize("guard", GUARDS, ids=lambda guard: guard.__name__[6:])
    def test_guarded_residual_is_expanded_not_tabulated(self, guard):
        registry, expr, semiring = guard()
        compiler = Compiler(registry, semiring, pruning=False)
        assert table_leaf(compiler.normalize(expr), registry, semiring) is None
        tree = compiler.compile(expr)
        assert not isinstance(tree, TableLeaf)
        assert compiler.mutex_nodes_created >= 1
        slow, _ = verbatim(registry, expr, semiring, pruning=False)
        assert_same_distribution(tree.distribution(compiler.context), slow)

    def test_a_three_valued_variable_fails_where_algorithm_1_fails(self):
        # B has no value 2: the verbatim path rejects the variable when it
        # restricts by it, and the base case must not paper over that.
        registry, expr = boolean_pool(), entangled()
        registry.reassign("x0", registry.integer("y", {0: 0.2, 1: 0.5, 2: 0.3}))
        assert table_leaf(expr, registry, BOOLEAN) is None
        with pytest.raises(AlgebraError, match="cannot coerce 2"):
            Compiler(registry, BOOLEAN).distribution(expr)
        with pytest.raises(AlgebraError, match="cannot coerce 2"):
            verbatim(registry, expr)

    def test_without_the_guard_the_same_residual_is_one_table(self):
        compiler = Compiler(boolean_pool(), BOOLEAN, pruning=False)
        assert isinstance(compiler.compile(entangled()), TableLeaf)

    def test_kernels_off_is_algorithm_1_verbatim(self, algorithm1_verbatim):
        registry, expr = boolean_pool(), entangled()
        assert table_leaf(expr, registry, BOOLEAN) is None
        tree = Compiler(registry, BOOLEAN).compile(expr)
        assert collect_stats(tree).table_leaves == 0


# -- above the compiler: sessions, invalidation, worker pools -------------------


def joined_session():
    """Two groups whose HAVING annotations are connected many-to-many
    join residuals over single-variable rows (so ``p=`` can reach them)."""
    session = connect(seed=3)
    left = session.table("L", ["g", "k", "id"])
    right = session.table("M", ["k2", "v"])
    for index in range(8):
        group = 1 + index // 4
        left.insert((group, 10 * group + index % 2, index), p=0.3 + 0.05 * index)
        right.insert((10 * group + index % 2, 3 + index % 4), p=0.5)
    return session


HAVING = Project(
    Select(
        GroupAgg(
            Select(Product(relation("L"), relation("M")), eq("k", "k2")),
            ["g"],
            [AggSpec.of("t", "SUM", "v")],
        ),
        cmp_("t", ">=", 8),
    ),
    ["g"],
)


class TestAboveTheCompiler:
    def test_p_update_after_a_tabulated_answer(self):
        session = joined_session()
        first = session.run(HAVING, engine="sprout")
        before = fingerprint(first)
        tree = Compiler(session.registry, session.semiring).compile(
            next(iter(first)).annotation
        )
        assert collect_stats(tree).table_leaves >= 1
        invalidations = session.cache.invalidations

        session.table("L").update({"id": 0}, p=0.9)
        result = session.run(HAVING, engine="sprout")
        # Lineage invalidation drops exactly group 1's entry ...
        assert session.cache.invalidations == invalidations + 1
        assert (result.stats["cache_hits"], result.stats["cache_misses"]) == (1, 1)
        # ... and the table reads the new marginal, not a frozen one.
        after = fingerprint(result)
        assert after[0] != before[0] and after[1] == before[1]
        fresh = joined_session()
        fresh.table("L").update({"id": 0}, p=0.9)
        assert after == fingerprint(fresh.run(HAVING, engine="sprout"))
        with kernels_off():
            slow = fingerprint(fresh.run(HAVING, engine="naive"))
        for (values, low, high), (slow_values, slow_low, slow_high) in zip(after, slow):
            assert values == slow_values
            assert low == pytest.approx(slow_low, abs=1e-9)
            assert high == pytest.approx(slow_high, abs=1e-9)

    @pytest.mark.parametrize("options", [
        {"engine": "sprout"},
        {"mode": "approx", "epsilon": 0.05},
    ], ids=["sprout", "approx"])
    def test_workers_do_not_change_the_answer(self, options):
        def correlated_database():
            rng = random.Random(11)
            db = PVCDatabase(registry=VariableRegistry(), semiring=BOOLEAN)
            table = db.create_table("R", ["g", "v"])
            for group in range(3):
                names = [f"g{group}v{i}" for i in range(7)]
                for name in names:
                    db.registry.bernoulli(name, rng.uniform(0.2, 0.8))
                for _ in range(9):
                    phi = sprod(
                        ssum(Var(n) for n in rng.sample(names, 2)) for _ in range(2)
                    )
                    table.add((group, rng.randint(1, 30)), phi)
            return db

        query = Project(
            Select(
                GroupAgg(relation("R"), ["g"], [AggSpec.of("x", "SUM", "v")]),
                cmp_("x", ">=", 60),
            ),
            ["g"],
        )
        answers = [
            fingerprint(
                connect(database=correlated_database(), seed=3).run(
                    query, workers=workers, **options
                )
            )
            for workers in (None, 2)
        ]
        assert answers[0] == answers[1]
        assert len(answers[0]) == 3
