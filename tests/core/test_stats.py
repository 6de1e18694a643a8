"""Tests for d-tree statistics collection."""

import pytest

from repro.algebra.parser import parse_expr
from repro.algebra.semiring import BOOLEAN
from repro.core.compile import Compiler
from repro.core.stats import collect_stats
from repro.prob.variables import VariableRegistry
from tests.conftest import assert_tabulated_twin


def compiler_for(names, p=0.5):
    reg = VariableRegistry()
    for name in names:
        reg.bernoulli(name, p)
    return Compiler(reg, BOOLEAN)


class TestCollectStats:
    def test_leaf_counts(self):
        compiler = compiler_for("ab")
        tree = compiler.compile(parse_expr("a*b"))
        stats = collect_stats(tree)
        assert stats.var_leaves == 2
        assert stats.times_nodes == 1
        assert stats.dag_size == 3

    def test_read_once_has_no_mutex(self):
        compiler = compiler_for("abcd")
        tree = compiler.compile(parse_expr("a*b + c*d"))
        stats = collect_stats(tree)
        assert stats.mutex_nodes == 0
        assert stats.plus_nodes == 1
        assert stats.decomposition_nodes >= 3

    def test_mutex_counted(self, algorithm1_verbatim):
        compiler = compiler_for("abc")
        tree = compiler.compile(parse_expr("(a+b)*(a+c)"))
        stats = collect_stats(tree)
        assert stats.mutex_nodes >= 1
        assert stats.mutex_branches >= 2
        assert stats.table_leaves == stats.table_worlds == 0

    def test_table_leaf_counted(self, numpy_kernels):
        compiler = compiler_for("abc")
        tree = assert_tabulated_twin(compiler, parse_expr("(a+b)*(a+c)"))
        stats = collect_stats(tree, compiler.context)
        assert (stats.table_leaves, stats.table_worlds) == (1, 8)
        assert stats.dag_size == stats.leaf_count == 1
        # The leaf's own distribution is what its table cost to bin.
        assert stats.distribution_cost() == stats.max_distribution_size == 2

    def test_distribution_sizes_recorded_with_context(self):
        compiler = compiler_for("ab")
        tree = compiler.compile(parse_expr("a+b"))
        stats = collect_stats(tree, compiler.context)
        assert stats.max_distribution_size == 2
        assert stats.distribution_cost() >= 3 * 2  # three nodes, binary dists

    def test_without_context_no_distribution_info(self):
        compiler = compiler_for("ab")
        tree = compiler.compile(parse_expr("a+b"))
        stats = collect_stats(tree)
        assert stats.max_distribution_size is None
        assert stats.node_distribution_sizes == []

    def test_depth_matches_tree(self):
        compiler = compiler_for("abcd")
        tree = compiler.compile(parse_expr("a*b + c*d"))
        stats = collect_stats(tree)
        assert stats.depth == tree.depth() == 3
