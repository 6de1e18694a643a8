"""Export of decomposition trees to Graphviz DOT.

Renders a d-tree (DAG) in the style of the paper's Figures 5 and 6:
inner nodes labelled ⊕, ⊙, ⊗, [θ], ⊔ₓ; leaves labelled with variables,
constants or — for a tabulated residual — ``table {x, y, z} · 8 worlds``;
mutex edges labelled with the eliminated value and its
probability.  Shared sub-DAGs (from compiler memoisation) are rendered
once, with multiple incoming edges.

Usage::

    tree = Compiler(registry).compile(expr)
    print(to_dot(tree))            # pipe into `dot -Tsvg`
"""

from __future__ import annotations

from repro.core.dtree import (
    CompareNode,
    ConstLeaf,
    DTree,
    MPlusNode,
    MutexNode,
    PlusNode,
    TableLeaf,
    TensorNode,
    TimesNode,
    VarLeaf,
)

__all__ = ["to_dot"]


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _node_label(node: DTree) -> str:
    if isinstance(node, VarLeaf):
        return node.name
    if isinstance(node, ConstLeaf):
        return repr(node.value)
    if isinstance(node, TableLeaf):
        return node._label()
    if isinstance(node, PlusNode):
        return "⊕"
    if isinstance(node, TimesNode):
        return "⊙"
    if isinstance(node, MPlusNode):
        return f"⊕ {node.monoid.name}"
    if isinstance(node, TensorNode):
        return "⊗"
    if isinstance(node, CompareNode):
        return f"[{node.op.symbol}]"
    if isinstance(node, MutexNode):
        return f"⊔ {node.name}"
    return node.tag


def _node_shape(node: DTree) -> str:
    if isinstance(node, (VarLeaf, ConstLeaf, TableLeaf)):
        return "box"
    if isinstance(node, MutexNode):
        return "diamond"
    return "circle"


def to_dot(tree: DTree, graph_name: str = "dtree") -> str:
    """Render the d-tree DAG as a Graphviz DOT document."""
    lines = [
        f"digraph {graph_name} {{",
        "  node [fontname=\"Helvetica\"];",
    ]
    ids: dict[int, str] = {}
    for index, node in enumerate(tree.iter_unique()):
        ids[id(node)] = f"n{index}"
    for node in tree.iter_unique():
        node_id = ids[id(node)]
        label = _escape(_node_label(node))
        shape = _node_shape(node)
        lines.append(f'  {node_id} [label="{label}", shape={shape}];')
        if isinstance(node, MutexNode):
            for value, probability, child in node.branches:
                edge_label = _escape(f"{node.name}←{value!r} ({probability:g})")
                lines.append(
                    f'  {node_id} -> {ids[id(child)]} [label="{edge_label}"];'
                )
        else:
            for child in node.children:
                lines.append(f"  {node_id} -> {ids[id(child)]};")
    lines.append("}")
    return "\n".join(lines)
