"""Tests for Algorithm 1 — including the paper's Figures 5/6 and Example 12."""

import math
import random
import tracemalloc
from contextlib import ExitStack
from unittest import mock

import pytest

from repro.algebra.conditions import compare
from repro.algebra.expressions import Prod, Sum, Var, sprod, ssum
from repro.algebra.monoid import COUNT, MAX, MIN, SUM
from repro.algebra.parser import parse_expr
from repro.algebra.semimodule import AggSum, MConst, Tensor, aggsum, tensor
from repro.algebra.semiring import BOOLEAN, NATURALS
from repro.core.compile import HEURISTICS, Compiler
from repro.cache import CompilationCache
from repro.core.dtree import (
    MutexNode,
    PlusNode,
    TableLeaf,
    TensorNode,
    TimesNode,
    VarLeaf,
)
from repro.core.pruning import prune
from repro.errors import CompilationError
from repro.prob.distribution import Distribution
from repro.prob.space import ProbabilitySpace
from repro.prob.variables import VariableRegistry
from tests.conftest import assert_tabulated_twin


def boolean_compiler(probabilities: dict, **kwargs) -> Compiler:
    reg = VariableRegistry()
    for name, p in probabilities.items():
        reg.bernoulli(name, p)
    return Compiler(reg, BOOLEAN, **kwargs)


class TestIndependenceRules:
    def test_independent_sum_compiles_to_plus(self):
        compiler = boolean_compiler({"a": 0.5, "b": 0.5})
        tree = compiler.compile(Var("a") + Var("b"))
        assert isinstance(tree, PlusNode)
        assert compiler.mutex_nodes_created == 0

    def test_independent_product_compiles_to_times(self):
        compiler = boolean_compiler({"a": 0.5, "b": 0.5, "c": 0.5})
        tree = compiler.compile(sprod([Var("a"), Var("b"), Var("c")]))
        assert isinstance(tree, TimesNode)
        assert compiler.mutex_nodes_created == 0

    def test_read_once_factorisation_avoids_shannon(self):
        # x(y11+y12): connected sum factors by the common variable.
        compiler = boolean_compiler({"x": 0.5, "y1": 0.5, "y2": 0.5})
        expr = Var("x") * Var("y1") + Var("x") * Var("y2")
        tree = compiler.compile(expr)
        assert compiler.mutex_nodes_created == 0
        assert isinstance(tree, TimesNode)

    def test_module_factorisation_example_14(self):
        # x1(y11⊗10 + y12⊗50): tensor node over the common variable.
        compiler = boolean_compiler({"x1": 0.5, "y11": 0.5, "y12": 0.5})
        expr = aggsum(
            SUM,
            [
                tensor(Var("x1") * Var("y11"), MConst(SUM, 10)),
                tensor(Var("x1") * Var("y12"), MConst(SUM, 50)),
            ],
        )
        tree = compiler.compile(expr)
        assert compiler.mutex_nodes_created == 0
        assert isinstance(tree, TensorNode)

    def test_dependent_product_uses_shannon(self, algorithm1_verbatim):
        compiler = boolean_compiler({"a": 0.5, "b": 0.5, "c": 0.5})
        expr = sprod([ssum([Var("a"), Var("b")]), ssum([Var("a"), Var("c")])])
        compiler.compile(expr)
        assert compiler.mutex_nodes_created >= 1

    def test_dependent_product_is_tabulated(self, numpy_kernels):
        expr = sprod([ssum([Var("a"), Var("b")]), ssum([Var("a"), Var("c")])])
        tree = assert_tabulated_twin(
            boolean_compiler({"a": 0.5, "b": 0.5, "c": 0.5}), expr
        )
        assert isinstance(tree, TableLeaf) and tree.names == ("a", "b", "c")

    def test_variable_free_expression_is_constant_leaf(self):
        compiler = boolean_compiler({})
        tree = compiler.compile(compare(MConst(MIN, 3), "<=", MConst(MIN, 5)))
        assert tree.distribution(compiler.context)[True] == 1.0

    def test_repeated_subexpressions_share_nodes(self):
        compiler = boolean_compiler({"a": 0.5, "b": 0.5, "c": 0.5, "d": 0.5})
        shared = Var("c") * Var("d")
        expr = ssum([Var("a") * shared, Var("b") * shared])
        # Factorisation cannot split cd out as a unit (it extracts single
        # variables), but memoisation still shares the compiled sub-DAG.
        tree = compiler.compile(expr)
        assert tree.dag_size() <= tree.tree_size()


class TestFigure5Example12:
    """The d-tree of Figure 5 and the distributions of Example 12."""

    def setup_registry(self, pa, pb, pc):
        reg = VariableRegistry()
        reg.integer("a", {1: pa, 2: 1 - pa})
        reg.integer("b", {1: pb, 2: 1 - pb})
        reg.integer("c", {1: pc, 2: 1 - pc})
        return reg

    def alpha(self):
        return aggsum(
            SUM,
            [
                tensor(Var("a") * (Var("b") + Var("c")), MConst(SUM, 10)),
                tensor(Var("c"), MConst(SUM, 20)),
            ],
        )

    def test_root_is_mutex_on_c(self):
        reg = self.setup_registry(0.5, 0.5, 0.5)
        compiler = Compiler(reg, NATURALS)
        tree = compiler.compile(self.alpha())
        assert isinstance(tree, MutexNode)
        assert tree.name == "c"
        assert len(tree.branches) == 2

    def test_sum_distribution_matches_paper(self):
        pa, pb, pc = 0.6, 0.3, 0.7
        qa, qb, qc = 1 - pa, 1 - pb, 1 - pc
        reg = self.setup_registry(pa, pb, pc)
        dist = Compiler(reg, NATURALS).distribution(self.alpha())
        expected = Distribution(
            {
                40: pa * pb * pc,
                50: pa * qb * pc,
                60: qa * pb * pc,
                70: pa * pb * qc,
                80: qa * qb * pc + pa * qb * qc,
                100: qa * pb * qc,
                120: qa * qb * qc,
            }
        )
        assert dist.almost_equals(expected)

    def test_min_distribution_is_point_ten(self):
        reg = self.setup_registry(0.6, 0.3, 0.7)
        alpha_min = aggsum(
            MIN,
            [
                tensor(Var("a") * (Var("b") + Var("c")), MConst(MIN, 10)),
                tensor(Var("c"), MConst(MIN, 20)),
            ],
        )
        dist = Compiler(reg, NATURALS).distribution(alpha_min)
        assert dist.almost_equals(Distribution({10: 1.0}))

    def test_boolean_min_distribution_matches_paper(self):
        pa, pb, pc = 0.6, 0.3, 0.7
        qa, qb, qc = 1 - pa, 1 - pb, 1 - pc
        reg = VariableRegistry()
        for name, p in (("a", pa), ("b", pb), ("c", pc)):
            reg.bernoulli(name, p)
        alpha_min = aggsum(
            MIN,
            [
                tensor(Var("a") * (Var("b") + Var("c")), MConst(MIN, 10)),
                tensor(Var("c"), MConst(MIN, 20)),
            ],
        )
        dist = Compiler(reg, BOOLEAN).distribution(alpha_min)
        expected = Distribution(
            {
                10: pa * pb * qc + pa * pc,
                20: qa * pc,
                math.inf: pa * qb * qc + qa * pb * qc + qa * qb * qc,
            }
        )
        assert dist.almost_equals(expected)


class TestFigure6:
    """Compilation of the ⟨Gap⟩ annotation expression of Figure 1e."""

    def test_matches_brute_force(self):
        probs = {
            name: 0.25 + 0.05 * i
            for i, name in enumerate(
                ["x4", "x5", "y41", "y43", "y51", "z1", "z3", "z5"]
            )
        }
        compiler = boolean_compiler(probs)
        expr = parse_expr(
            "x4*y41*(z1+z5)@15 + x4*y43*z3@60 + x5*y51*(z1+z5)@10",
            monoid=MAX,
        )
        reg = compiler.registry
        expected = ProbabilitySpace(reg, BOOLEAN).distribution_of(expr)
        assert compiler.distribution(expr).almost_equals(expected)

    def test_semiring_component_same_shape(self):
        probs = {n: 0.5 for n in ["x4", "x5", "y41", "y43", "y51", "z1", "z3", "z5"]}
        compiler = boolean_compiler(probs)
        phi = parse_expr("x4*y41*(z1+z5) + x4*y43*z3 + x5*y51*(z1+z5)")
        expected = ProbabilitySpace(compiler.registry, BOOLEAN).distribution_of(phi)
        assert compiler.distribution(phi).almost_equals(expected)

    def test_root_mutex_on_most_frequent_variable(self, algorithm1_verbatim):
        # x4, z1, z5, x5, y51 occur... x4 and x5/z1/z5 tie-break: the
        # paper eliminates x4; our heuristic picks a maximum-occurrence
        # variable (x4 or x5, both occur twice; ties break by name).
        probs = {n: 0.5 for n in ["x4", "x5", "y41", "y43", "y51", "z1", "z3", "z5"]}
        compiler = boolean_compiler(probs)
        expr = parse_expr(
            "x4*y41*(z1+z5)@15 + x4*y43*z3@60 + x5*y51*(z1+z5)@10",
            monoid=MAX,
        )
        tree = compiler.compile(expr)
        assert isinstance(tree, MutexNode)
        counts = {"x4": 2, "x5": 2, "z1": 2, "z5": 2}
        assert tree.name in counts

    def test_figure6_is_tabulated_with_kernels_on(self, numpy_kernels):
        probs = {n: 0.5 for n in ["x4", "x5", "y41", "y43", "y51", "z1", "z3", "z5"]}
        expr = parse_expr(
            "x4*y41*(z1+z5)@15 + x4*y43*z3@60 + x5*y51*(z1+z5)@10",
            monoid=MAX,
        )
        tree = assert_tabulated_twin(boolean_compiler(probs), expr)
        assert tree.worlds == 2 ** 8


class TestHeuristics:
    def test_all_heuristics_registered(self):
        assert set(HEURISTICS) == {
            "most-occurrences",
            "fewest-occurrences",
            "lexicographic",
        }

    @pytest.mark.parametrize("name", sorted(HEURISTICS))
    def test_heuristics_agree_on_probability(self, name):
        probs = {f"v{i}": 0.3 + 0.1 * i for i in range(4)}
        expr = parse_expr("(v0+v1)*(v0+v2) + v3*v1")
        reference = None
        compiler = boolean_compiler(probs, heuristic=name)
        p = compiler.probability(expr)
        brute = ProbabilitySpace(compiler.registry, BOOLEAN).probability(expr)
        assert p == pytest.approx(brute)

    def test_unknown_heuristic_rejected(self):
        with pytest.raises(CompilationError, match="unknown heuristic"):
            boolean_compiler({"a": 0.5}, heuristic="random")

    def test_callable_heuristic(self, algorithm1_verbatim):
        chosen = []

        def pick_first(expr, candidates):
            name = sorted(candidates)[0]
            chosen.append(name)
            return name

        compiler = boolean_compiler({"a": 0.5, "b": 0.5}, heuristic=pick_first)
        expr = parse_expr("(a+b)*(a*b + b)")
        compiler.probability(expr)
        assert chosen  # the custom heuristic was consulted

    def test_tabulated_residual_never_asks_the_heuristic(self, numpy_kernels):
        def never(expr, candidates):
            raise AssertionError("a table eliminates no variable")

        assert_tabulated_twin(
            boolean_compiler({"a": 0.5, "b": 0.5}, heuristic=never),
            parse_expr("(a+b)*(a*b + b)"),
        )


ENTANGLED = "(v0+v1)*(v0+v2)*(v1+v3)*(v2+v4)*(v3+v5)*(v4+v6)*(v5+v7)*(v6+v7)"


class TestBudget:
    def test_mutex_budget_enforced(self, algorithm1_verbatim):
        probs = {f"v{i}": 0.5 for i in range(8)}
        # A highly entangled expression that needs several expansions.
        compiler = boolean_compiler(probs, max_mutex_nodes=1)
        with pytest.raises(CompilationError, match="budget"):
            compiler.compile(parse_expr(ENTANGLED))

    def test_a_table_spends_no_mutex_budget(self, numpy_kernels):
        probs = {f"v{i}": 0.5 for i in range(8)}
        assert_tabulated_twin(
            boolean_compiler(probs, max_mutex_nodes=0), parse_expr(ENTANGLED)
        )


class TestCompilerHistory:
    """What a compile costs depends on the expression, not on what the
    compiler compiled before: rules 1, 2 and 6 read the expression."""

    HISTORY = 1000

    @staticmethod
    def registry() -> VariableRegistry:
        reg = VariableRegistry()
        for i in range(TestCompilerHistory.HISTORY):
            for prefix in "abc":
                reg.bernoulli(f"{prefix}{i}", 0.5)
        for i in range(10):
            reg.bernoulli(f"p{i}", 0.3)
        return reg

    @staticmethod
    def phi():
        rng = random.Random(3)
        names = [f"p{i}" for i in range(10)]
        return ssum(sprod(Var(n) for n in rng.sample(names, 3)) for _ in range(14))

    @staticmethod
    def measure(compiler):
        """Peak bytes allocated while compiling Φ, ⊔ nodes, rendering."""
        before = compiler.mutex_nodes_created
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        tree = compiler.compile(TestCompilerHistory.phi())
        peak = tracemalloc.get_traced_memory()[1] - base
        if not tracing:
            tracemalloc.stop()
        return peak, compiler.mutex_nodes_created - before, tree.pretty()

    def test_a_used_compiler_does_a_fresh_ones_work(self, algorithm1_verbatim):
        registry = self.registry()
        fresh_peak, fresh_mutex, fresh_tree = self.measure(Compiler(registry))
        used = Compiler(registry)
        # 1 000 unrelated components, each Shannon-expanded once, over
        # 3 000 variables Φ never mentions.
        used.compile(
            ssum(
                sprod([Var(f"a{i}") + Var(f"b{i}"), Var(f"a{i}") + Var(f"c{i}")])
                for i in range(self.HISTORY)
            )
        )
        assert used.mutex_nodes_created == self.HISTORY
        peak, mutex, tree = self.measure(used)
        assert fresh_mutex > 0 and mutex == fresh_mutex
        assert tree == fresh_tree
        assert peak <= 1.5 * fresh_peak

    def test_the_d_tree_memo_is_the_only_memo(self):
        compiler = boolean_compiler({"a": 0.5, "b": 0.5, "c": 0.5})
        compiler.compile(parse_expr("(a+b)*(a+c)"))
        memos = [name for name, value in vars(compiler).items() if isinstance(value, dict)]
        assert memos == ["_memo"]


class TestNSemiringCompilation:
    def test_bag_multiplicity_distribution(self):
        reg = VariableRegistry()
        reg.integer("m", {0: 0.2, 1: 0.5, 2: 0.3})
        reg.integer("n", {1: 0.6, 3: 0.4})
        compiler = Compiler(reg, NATURALS)
        expr = Var("m") * Var("n")  # multiplicity of a joined tuple
        expected = ProbabilitySpace(reg, NATURALS).distribution_of(expr)
        assert compiler.distribution(expr).almost_equals(expected)

    def test_probability_defaults_to_semiring_one(self):
        reg = VariableRegistry()
        reg.integer("m", {0: 0.25, 1: 0.75})
        compiler = Compiler(reg, NATURALS)
        assert compiler.probability(Var("m")) == pytest.approx(0.75)


class TestNothingIsRebuilt:
    """Step II hands back what no rule changes: compiling a step-I
    annotation over independent pairs builds no composite node — not in
    the normaliser, not in pruning, not for the cache key."""

    PAIRS = 50

    @classmethod
    def _registry(cls) -> VariableRegistry:
        reg = VariableRegistry()
        for i in range(cls.PAIRS):
            reg.bernoulli(f"x{i}", 0.3)
            reg.bernoulli(f"y{i}", 0.6)
        return reg

    @classmethod
    def _pairs(cls) -> list:
        return [sprod([Var(f"x{i}"), Var(f"y{i}")]) for i in range(cls.PAIRS)]

    @classmethod
    def _exprs(cls) -> dict:
        return {
            "sum of products": ssum(cls._pairs()),
            "count": aggsum(
                COUNT, [tensor(pair, MConst(COUNT, 1)) for pair in cls._pairs()]
            ),
        }

    @staticmethod
    def _built(run) -> dict:
        """Run ``run()`` and count the composite nodes it constructs."""
        built: dict[str, int] = {}

        def counting(cls):
            init = cls.__init__

            def __init__(self, *args):
                built[cls.__name__] = built.get(cls.__name__, 0) + 1
                init(self, *args)

            return mock.patch.object(cls, "__init__", __init__)

        with ExitStack() as stack:
            for cls in (Sum, Prod, Tensor, AggSum):
                stack.enter_context(counting(cls))
            run()
        return built

    @pytest.mark.parametrize("name", ["sum of products", "count"])
    def test_compiler_distribution_builds_no_node(self, name):
        expr = self._exprs()[name]
        compiler = Compiler(self._registry(), BOOLEAN)
        assert self._built(lambda: compiler.distribution(expr)) == {}

    @pytest.mark.parametrize("name", ["sum of products", "count"])
    def test_cache_distribution_builds_no_node(self, name):
        expr = self._exprs()[name]
        cache = CompilationCache(Compiler(self._registry(), BOOLEAN))
        assert self._built(lambda: cache.distribution(expr)) == {}

    def test_the_counter_sees_a_rule_firing(self):
        # x·x collapses in B, so the sum over it is rebuilt.
        expr = ssum([sprod([Var("x0"), Var("x0")]), sprod([Var("x1"), Var("y1")])])
        compiler = Compiler(self._registry(), BOOLEAN)
        assert self._built(lambda: compiler.distribution(expr)) == {"Sum": 1}

    @pytest.mark.parametrize("name", ["sum of products", "count"])
    def test_prune_hands_back_a_condition_free_expression(self, name):
        expr = self._exprs()[name]
        assert prune(expr, BOOLEAN) is expr
