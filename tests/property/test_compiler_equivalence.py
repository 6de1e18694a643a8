"""The central property: compiled distributions equal brute-force ones.

Proposition 4 states that Algorithm 1 produces a d-tree with the same
probability distribution as the input expression.  These tests check it on
randomly generated semiring expressions, semimodule expressions, and
conditional expressions, under both set (B) and bag (N) semantics, with
and without pruning, and across all Shannon heuristics.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algebra.conditions import Compare, compare
from repro.algebra.expressions import Prod, SConst, Sum, Var, sprod, ssum
from repro.algebra.monoid import SUM
from repro.algebra.semimodule import AggSum, MConst, Tensor, aggsum, tensor
from repro.algebra.semiring import BOOLEAN, NATURALS
from repro.algebra.simplify import Normalizer, normalize
from repro.core.compile import Compiler
from repro.core.pruning import prune, prune_comparison
from repro.prob.space import ProbabilitySpace

from tests.property.strategies import (
    NAMES,
    boolean_registries,
    conditions,
    integer_registries,
    module_exprs,
    queries,
    query_databases,
    repetitive_exprs,
    semiring_exprs,
)

SETTINGS = settings(max_examples=60, deadline=None)


class TestSemiringEquivalence:
    @SETTINGS
    @given(boolean_registries(), semiring_exprs(depth=3))
    def test_boolean_semiring(self, registry, expr):
        compiled = Compiler(registry, BOOLEAN).distribution(expr)
        brute = ProbabilitySpace(registry, BOOLEAN).distribution_of(expr)
        assert compiled.almost_equals(brute)

    @SETTINGS
    @given(integer_registries(), semiring_exprs(depth=2))
    def test_naturals_semiring(self, registry, expr):
        expr = _restrict(expr, registry)
        compiled = Compiler(registry, NATURALS).distribution(expr)
        brute = ProbabilitySpace(registry, NATURALS).distribution_of(expr)
        assert compiled.almost_equals(brute)


class TestModuleEquivalence:
    @SETTINGS
    @given(boolean_registries(), module_exprs())
    def test_boolean_module(self, registry, expr):
        compiled = Compiler(registry, BOOLEAN).distribution(expr)
        brute = ProbabilitySpace(registry, BOOLEAN).distribution_of(expr)
        assert compiled.almost_equals(brute)

    @SETTINGS
    @given(integer_registries(), module_exprs(max_terms=3))
    def test_naturals_module(self, registry, expr):
        expr = _restrict(expr, registry)
        compiled = Compiler(registry, NATURALS).distribution(expr)
        brute = ProbabilitySpace(registry, NATURALS).distribution_of(expr)
        assert compiled.almost_equals(brute)


class TestConditionEquivalence:
    @SETTINGS
    @given(boolean_registries(), conditions())
    def test_conditions_with_pruning(self, registry, expr):
        compiled = Compiler(registry, BOOLEAN, pruning=True).distribution(expr)
        brute = ProbabilitySpace(registry, BOOLEAN).distribution_of(expr)
        assert compiled.almost_equals(brute)

    @SETTINGS
    @given(boolean_registries(), conditions())
    def test_pruning_changes_nothing(self, registry, expr):
        with_pruning = Compiler(registry, BOOLEAN, pruning=True).distribution(expr)
        without = Compiler(registry, BOOLEAN, pruning=False).distribution(expr)
        assert with_pruning.almost_equals(without)


class TestHeuristicInvariance:
    @settings(max_examples=30, deadline=None)
    @given(
        boolean_registries(),
        semiring_exprs(depth=3),
        st.sampled_from(["most-occurrences", "fewest-occurrences", "lexicographic"]),
    )
    def test_heuristic_does_not_change_distribution(self, registry, expr, heuristic):
        compiled = Compiler(registry, BOOLEAN, heuristic=heuristic).distribution(expr)
        brute = ProbabilitySpace(registry, BOOLEAN).distribution_of(expr)
        assert compiled.almost_equals(brute)


class TestDistributionWellFormedness:
    @SETTINGS
    @given(boolean_registries(), module_exprs())
    def test_total_mass_is_one(self, registry, expr):
        dist = Compiler(registry, BOOLEAN).distribution(expr)
        assert abs(dist.total() - 1.0) < 1e-7

    @SETTINGS
    @given(boolean_registries(), semiring_exprs(depth=3))
    def test_normalisation_preserves_distribution(self, registry, expr):
        compiler = Compiler(registry, BOOLEAN)
        original = ProbabilitySpace(registry, BOOLEAN).distribution_of(expr)
        simplified = normalize(expr, BOOLEAN)
        assert compiler.distribution(simplified).almost_equals(original)


class TestJointEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        boolean_registries(),
        semiring_exprs(depth=2),
        semiring_exprs(depth=2),
    )
    def test_joint_matches_enumeration(self, registry, e1, e2):
        compiler = Compiler(registry, BOOLEAN)
        joint = compiler.joint_distribution([e1, e2])
        brute = ProbabilitySpace(registry, BOOLEAN).joint_distribution_of([e1, e2])
        assert joint.almost_equals(brute)


class TestOptimizerPipelineEquivalence:
    """The full rule pipeline preserves result tuples and annotation
    distributions on random queries (step-I invariance: the Green-et-al.
    semiring equivalences are annotation-value-preserving)."""

    @settings(max_examples=40, deadline=None)
    @given(query_databases(), queries())
    def test_tuples_and_probabilities_preserved(self, db, query):
        from repro.engine.sprout import SproutEngine
        from repro.query.optimizer import optimize

        original = SproutEngine(db).run(query).tuple_probabilities()
        rewritten = optimize(query, db.catalog())
        optimized = SproutEngine(db).run(rewritten).tuple_probabilities()
        assert set(original) == set(optimized)
        for key, probability in original.items():
            assert abs(optimized[key] - probability) < 1e-7, key

    @settings(max_examples=40, deadline=None)
    @given(query_databases(), queries())
    def test_annotation_distributions_preserved(self, db, query):
        from repro.algebra.semimodule import ModuleExpr
        from repro.query.executor import evaluate

        compiler = Compiler(db.registry, BOOLEAN)

        def distributions(table):
            result = {}
            for row in table:
                if any(isinstance(v, ModuleExpr) for v in row.values):
                    continue  # joint semantics covered by the test above
                assert row.values not in result  # pvc-tables are sets
                result[row.values] = compiler.distribution(row.annotation)
            return result

        plain = distributions(evaluate(query, db, optimize=False))
        optimized = distributions(evaluate(query, db, optimize=True))
        zero = BOOLEAN.zero
        for key in set(plain) | set(optimized):
            left, right = plain.get(key), optimized.get(key)
            if left is None:
                # Row only one plan materialised: it must be vacuous.
                assert right[zero] > 1 - 1e-9, key
            elif right is None:
                assert left[zero] > 1 - 1e-9, key
            else:
                assert left.almost_equals(right), key

    @settings(max_examples=25, deadline=None)
    @given(query_databases(), queries())
    def test_matches_possible_worlds_oracle(self, db, query):
        from repro.engine.naive import NaiveEngine
        from repro.engine.sprout import SproutEngine
        from repro.query.optimizer import optimize

        exact = NaiveEngine(db).tuple_probabilities(query)
        rewritten = optimize(query, db.catalog())
        fast = SproutEngine(db).run(rewritten).tuple_probabilities()
        assert set(exact) == set(fast)
        for key, probability in exact.items():
            assert abs(fast[key] - probability) < 1e-7, key


class TestRowLevelHomomorphism:
    """``ν(Q(T)) = Q(ν(T))``, row by row: a possible world is a semiring
    homomorphism applied to the annotations, so instantiating the
    symbolic step-I result under ``ν`` *is* the interpreter's result on
    the world ``ν(db)`` — same plan, same walk, two annotation domains."""

    @settings(max_examples=40, deadline=None)
    @given(query_databases(), queries(), st.booleans())
    def test_world_of_symbolic_result_is_result_on_world(
        self, db, query, optimize
    ):
        from repro.query.executor import (
            execute_deterministic,
            execute_symbolic,
            prepare,
        )

        prepared = prepare(
            query, db.catalog(), db.cardinalities(), optimize=optimize
        )
        symbolic = execute_symbolic(prepared, db)
        space = ProbabilitySpace(db.registry, BOOLEAN)
        for valuation, _ in space.enumerate_worlds(sorted(db.variables)):
            world = {
                name: table.instantiate(valuation, BOOLEAN)
                for name, table in db.tables.items()
            }
            concrete = execute_deterministic(prepared, world, BOOLEAN)
            assert symbolic.instantiate(valuation, BOOLEAN) == concrete


#: Step II's inputs: semiring and semimodule expressions, comparisons,
#: and comparisons nested inside products and scalar actions.
step_two_exprs = st.one_of(
    semiring_exprs(depth=3),
    module_exprs(),
    conditions(),
    st.tuples(conditions(), semiring_exprs(depth=2)).map(sprod),
    st.tuples(conditions(), module_exprs()).map(lambda pair: tensor(*pair)),
)


def _combined(normalizer: Normalizer, expr):
    """The ``_combine_*`` rule over ``expr``'s normalised children: what
    :meth:`Normalizer._normalize` skips when it hands ``expr`` back."""
    if isinstance(expr, Sum):
        return normalizer._combine_sum([normalizer(c) for c in expr.children])
    if isinstance(expr, Prod):
        return normalizer._combine_prod([normalizer(c) for c in expr.children])
    if isinstance(expr, Tensor):
        return normalizer._combine_tensor(normalizer(expr.phi), normalizer(expr.arg))
    if isinstance(expr, AggSum):
        return normalizer._combine_aggsum(
            expr.monoid, [normalizer(c) for c in expr.children]
        )
    if isinstance(expr, Compare):
        return normalizer._combine_compare(
            normalizer(expr.left), expr.op, normalizer(expr.right)
        )
    return normalizer._fold_const(expr)


def _rebuilt_prune(expr, semiring):
    """Pruning that rebuilds every node through the smart constructors."""
    if isinstance(expr, Sum):
        return ssum([_rebuilt_prune(c, semiring) for c in expr.children])
    if isinstance(expr, Prod):
        return sprod([_rebuilt_prune(c, semiring) for c in expr.children])
    if isinstance(expr, Tensor):
        return tensor(
            _rebuilt_prune(expr.phi, semiring), _rebuilt_prune(expr.arg, semiring)
        )
    if isinstance(expr, AggSum):
        return aggsum(
            expr.monoid, [_rebuilt_prune(c, semiring) for c in expr.children]
        )
    if isinstance(expr, Compare):
        left = _rebuilt_prune(expr.left, semiring)
        right = _rebuilt_prune(expr.right, semiring)
        return prune_comparison(compare(left, expr.op, right), semiring)
    return expr


class TestStepTwoHandsBackWhatNoRuleChanges:
    """Normalisation and pruning return their input object when no rule
    fires, and that shortcut never skips a rule that would have."""

    @settings(max_examples=150, deadline=None)
    @given(step_two_exprs, st.sampled_from([BOOLEAN, NATURALS]))
    def test_a_handed_back_node_is_what_its_rule_would_build(self, expr, semiring):
        normalizer = Normalizer(semiring)
        normalizer(expr)
        for node in expr.walk():
            if normalizer(node) is node:
                assert _combined(Normalizer(semiring), node) == node, node

    @settings(max_examples=150, deadline=None)
    @given(step_two_exprs, st.sampled_from([BOOLEAN, NATURALS]))
    def test_a_normal_form_is_its_own_memo_entry(self, expr, semiring):
        normalizer = Normalizer(semiring)
        first = normalizer(expr)
        again = normalizer(first)
        # What a memo-free second pass computes.
        assert again == Normalizer(semiring)(Normalizer(semiring)(expr))
        if again == first:
            assert again is first

    @settings(max_examples=150, deadline=None)
    @given(step_two_exprs, st.sampled_from([BOOLEAN, NATURALS]))
    def test_prune_rebuilds_only_what_a_rule_changes(self, expr, semiring):
        pruned = prune(expr, semiring)
        assert pruned == _rebuilt_prune(expr, semiring)
        if not any(isinstance(node, Compare) for node in expr.walk()):
            assert pruned is expr

    def test_normalisation_is_a_fixpoint_on_both_pinned_examples(self):
        """Each rule flattens before it folds.  In B, ``(a + b)·(a + b)
        + a`` normalises to ``a + b`` in one pass; and ``(c·d + a)·c``
        restricted at ``a ← 0`` is ``c·d``, its normalised
        substitution."""
        a, b, c, d = (Var(name) for name in "abcd")
        normalizer = Normalizer(BOOLEAN)
        first = normalizer(ssum([sprod([a + b, a + b]), a]))
        assert first == a + b
        assert normalizer(first) is first
        phi = normalizer((c * d + a) * c)
        restricted = normalizer.restrict(phi, "a", SConst(0))
        assert restricted == c * d
        assert restricted == normalizer(phi.substitute({"a": SConst(0)}))


#: Step II's inputs plus sums and products that repeat their children,
#: directly and inside scalar actions and aggregation sums.
fixpoint_exprs = st.one_of(
    step_two_exprs,
    repetitive_exprs(),
    st.tuples(repetitive_exprs(), module_exprs()).map(lambda pair: tensor(*pair)),
    st.tuples(repetitive_exprs(), conditions()).map(sprod),
    st.lists(repetitive_exprs(), min_size=1, max_size=3).map(
        lambda phis: aggsum(SUM, [tensor(phi, MConst(SUM, 2)) for phi in phis])
    ),
)

_a, _b, _c, _d = (Var(name) for name in "abcd")
#: The two shapes that were not fixpoints, pinned as explicit examples.
_SQUARED_SUM = ssum([sprod([_a + _b, _a + _b]), _a])
_GUARDED_PRODUCT = (_c * _d + _a) * _c


class TestNormalFormIsAFixpoint:
    """One normal form: normalising a normal form hands it back, and the
    Shannon step (:meth:`Normalizer.restrict`) is the normalised
    substitution — in B and in ℕ, on semiring, semimodule and
    condition expressions."""

    @settings(max_examples=300, deadline=None)
    @given(fixpoint_exprs, st.sampled_from([BOOLEAN, NATURALS]))
    @example(_SQUARED_SUM, BOOLEAN)
    def test_normalising_twice_is_normalising_once(self, expr, semiring):
        normalizer = Normalizer(semiring)
        normal = normalizer(expr)
        assert normalizer(normal) is normal
        assert Normalizer(semiring)(normal) == normal

    @settings(max_examples=300, deadline=None)
    @given(
        fixpoint_exprs,
        st.sampled_from([BOOLEAN, NATURALS]),
        st.sampled_from(NAMES),
        st.integers(0, 3),
    )
    @example(_GUARDED_PRODUCT, BOOLEAN, "a", 0)
    def test_restrict_is_the_normalised_substitution(
        self, expr, semiring, name, value
    ):
        normalizer = Normalizer(semiring)
        normal = normalizer(expr)
        if semiring.is_boolean:
            value = min(value, 1)
        constant = SConst(value)
        restricted = normalizer.restrict(normal, name, constant)
        assert restricted == Normalizer(semiring)(
            normal.substitute({name: constant})
        )


def _restrict(expr, registry):
    """Drop variables the (smaller) integer registries do not declare."""
    from repro.algebra.expressions import ONE

    mapping = {name: ONE for name in expr.variables if name not in registry}
    return expr.substitute(mapping)
