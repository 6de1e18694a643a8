"""Tests for Graphviz DOT export of d-trees."""

from repro.algebra.parser import parse_expr
from repro.algebra.monoid import MAX
from repro.algebra.semiring import BOOLEAN
from repro.core.compile import Compiler
from repro.core.export import to_dot
from repro.prob.variables import VariableRegistry
from tests.conftest import assert_tabulated_twin


def compiler_for(names, p=0.5):
    reg = VariableRegistry()
    for name in names:
        reg.bernoulli(name, p)
    return Compiler(reg, BOOLEAN)


class TestToDot:
    def test_read_once_tree(self):
        compiler = compiler_for("abcd")
        tree = compiler.compile(parse_expr("a*b + c*d"))
        dot = to_dot(tree)
        assert dot.startswith("digraph dtree {")
        assert dot.rstrip().endswith("}")
        assert "⊕" in dot and "⊙" in dot
        for name in "abcd":
            assert f'label="{name}"' in dot

    def test_mutex_edges_are_labelled(self, algorithm1_verbatim):
        compiler = compiler_for("abc")
        tree = compiler.compile(parse_expr("(a+b)*(a+c)"))
        dot = to_dot(tree)
        assert "⊔ a" in dot
        assert "a←False" in dot and "a←True" in dot

    def test_table_leaf_is_labelled(self, numpy_kernels):
        tree = assert_tabulated_twin(compiler_for("abc"), parse_expr("(a+b)*(a+c)"))
        assert 'label="table {a, b, c} · 8 worlds", shape=box' in to_dot(tree)
        assert tree.pretty() == "table {a, b, c} · 8 worlds"

    def test_module_tree_mentions_monoid(self):
        compiler = compiler_for(["x", "y"])
        tree = compiler.compile(
            parse_expr("x@10 + y@20", monoid=MAX)
        )
        dot = to_dot(tree)
        assert "MAX" in dot
        assert "⊗" in dot

    def test_shared_nodes_rendered_once(self):
        compiler = compiler_for("ab")
        expr = parse_expr("a*b")
        tree = compiler.compile(expr)
        dot = to_dot(tree)
        # one definition line per unique node
        definitions = [line for line in dot.splitlines() if "label=" in line]
        assert len(definitions) == tree.dag_size()

    def test_custom_graph_name(self):
        compiler = compiler_for("a")
        tree = compiler.compile(parse_expr("a"))
        assert to_dot(tree, "figure6").startswith("digraph figure6")

    def test_quotes_escaped(self):
        compiler = compiler_for("a")
        tree = compiler.compile(parse_expr("a + 1"))
        dot = to_dot(tree)
        assert '\\"' not in dot or dot.count('"') % 2 == 0
