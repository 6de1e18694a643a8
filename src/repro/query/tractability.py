"""Tractable query classes ``Q_ind`` and ``Q_hie`` (Section 6, Theorem 3).

The paper characterises a class of aggregate queries with polynomial-time
data complexity on tuple-independent databases.  The building blocks are

* **hierarchical** non-repeating select-project-join queries: for each two
  attribute classes ``A*``, ``B*`` (transitive closures of join
  equalities) that are neither projected out in the head nor equated to a
  constant, their relation-occurrence sets ``at(A*)``, ``at(B*)`` are
  disjoint or one contains the other;
* **root attributes**: classes occurring in *every* joined relation.

``Q_ind`` (Definition 8) contains queries whose result tuples are pairwise
independent; ``Q_hie`` (Definition 9) additionally allows one level of
grouping/aggregation over a hierarchical join of ``Q_ind`` queries.

The analysis implemented here is a *sufficient* syntactic check: it
classifies a query as ``QIND`` or ``QHIE`` when it matches the shapes of
Definitions 8/9, and as ``UNKNOWN`` otherwise (the query may still happen
to be tractable).  It mirrors how a query optimiser would dispatch between
the polynomial-time plan and generic compilation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping

from repro.cache import capture_stamp
from repro.db.pvc_table import PVCDatabase
from repro.db.schema import Schema
from repro.query.ast import (
    BaseRelation,
    GroupAgg,
    Product,
    Project,
    Query,
    Select,
)
from repro.query.predicates import AttrRef, Comparison, Literal

__all__ = [
    "QueryClass",
    "Classification",
    "classify_query",
    "is_hierarchical",
    "root_attribute_classes",
    "attribute_classes",
    "tuple_independent_relations",
    "SPJBlock",
    "flatten_spj",
]


class QueryClass(enum.Enum):
    """Outcome of the static tractability analysis."""

    QIND = "Q_ind"
    QHIE = "Q_hie"
    UNKNOWN = "unknown"


@dataclass
class Classification:
    """Classification result with a human-readable justification trail."""

    query_class: QueryClass
    reasons: list[str] = field(default_factory=list)

    @property
    def tractable(self) -> bool:
        """True when Theorem 3 guarantees PTIME data complexity."""
        return self.query_class in (QueryClass.QIND, QueryClass.QHIE)

    def __repr__(self):
        return f"Classification({self.query_class.value}: {'; '.join(self.reasons)})"


@dataclass
class SPJBlock:
    """A query viewed as ``π_{A̅} σ_φ (Q₁ × ... × Qₙ)``."""

    head: tuple | None  # projection attributes; None = no outer projection
    atoms: list  # Comparison atoms of the selection
    leaves: list  # the Qᵢ


def flatten_spj(query: Query) -> SPJBlock:
    """View a query as a select-project-join block over opaque leaves.

    Only the *outermost* projection becomes the head; nested projections
    stay inside their leaf sub-queries (they change the leaf's schema, not
    the block structure).
    """
    head = None
    if isinstance(query, Project):
        head = query.attributes
        query = query.child
    atoms: list = []
    leaves: list = []

    def descend(node: Query):
        if isinstance(node, Select):
            atoms.extend(node.predicate.atoms())
            descend(node.child)
        elif isinstance(node, Product):
            descend(node.left)
            descend(node.right)
        else:
            leaves.append(node)

    descend(query)
    return SPJBlock(head, atoms, leaves)


def attribute_classes(
    block: SPJBlock, catalog: Mapping[str, Schema]
) -> tuple[dict[str, frozenset], set[str]]:
    """Equivalence classes ``A*`` of attributes under join equalities.

    Returns ``(class_of, constant_classes)`` where ``class_of`` maps each
    attribute to its class (a frozenset of attribute names) and
    ``constant_classes`` collects attributes transitively equated with a
    constant.
    """
    parent: dict[str, str] = {}

    def find(a: str) -> str:
        root = a
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(a, a) != a:
            parent[a], a = root, parent[a]
        return root

    def union(a: str, b: str):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    all_attrs: set[str] = set()
    for leaf in block.leaves:
        all_attrs |= set(leaf.schema(catalog).attributes)
    for attribute in all_attrs:
        parent.setdefault(attribute, attribute)

    constant_roots: set[str] = set()
    for atom in block.atoms:
        if not isinstance(atom, Comparison) or atom.op.symbol != "=":
            continue
        left, right = atom.left, atom.right
        if isinstance(left, AttrRef) and isinstance(right, AttrRef):
            if left.name in parent and right.name in parent:
                union(left.name, right.name)
        elif isinstance(left, AttrRef) and isinstance(right, Literal):
            constant_roots.add(left.name)
        elif isinstance(right, AttrRef) and isinstance(left, Literal):
            constant_roots.add(right.name)

    groups: dict[str, set[str]] = {}
    for attribute in all_attrs:
        groups.setdefault(find(attribute), set()).add(attribute)
    class_of = {
        attribute: frozenset(groups[find(attribute)]) for attribute in all_attrs
    }
    constants = {
        attribute
        for attribute in all_attrs
        if any(find(c) == find(attribute) for c in constant_roots)
    }
    return class_of, constants


def _at_sets(
    block: SPJBlock, catalog: Mapping[str, Schema], class_of
) -> dict[frozenset, frozenset]:
    """``at(A*)``: the leaf indices whose schema meets the class."""
    at: dict[frozenset, set[int]] = {}
    for index, leaf in enumerate(block.leaves):
        attrs = set(leaf.schema(catalog).attributes)
        for attribute in attrs:
            at.setdefault(class_of[attribute], set()).add(index)
    return {cls: frozenset(indices) for cls, indices in at.items()}


def _effective_head(block: SPJBlock, catalog) -> set:
    """The projected attributes; absence of a projection keeps them all."""
    if block.head is not None:
        return set(block.head)
    head: set = set()
    for leaf in block.leaves:
        head |= set(leaf.schema(catalog).attributes)
    return head


def is_hierarchical(query: Query, catalog: Mapping[str, Schema]) -> bool:
    """The hierarchical property of Section 6 for non-repeating queries."""
    if not query.is_non_repeating():
        return False
    block = flatten_spj(query)
    class_of, constants = attribute_classes(block, catalog)
    at = _at_sets(block, catalog, class_of)
    head = _effective_head(block, catalog)
    relevant = [
        cls
        for cls in set(class_of.values())
        if not (cls & head) and not (cls & constants)
    ]
    for i, cls_a in enumerate(relevant):
        for cls_b in relevant[i + 1:]:
            sa, sb = at[cls_a], at[cls_b]
            if not (sa.isdisjoint(sb) or sa <= sb or sb <= sa):
                return False
    return True


def root_attribute_classes(
    query: Query, catalog: Mapping[str, Schema]
) -> set[frozenset]:
    """Classes occurring in every joined relation (root attributes)."""
    block = flatten_spj(query)
    class_of, _ = attribute_classes(block, catalog)
    at = _at_sets(block, catalog, class_of)
    leaf_count = len(block.leaves)
    return {cls for cls, indices in at.items() if len(indices) == leaf_count}


def tuple_independent_relations(db: PVCDatabase) -> frozenset:
    """Base tables that are tuple-independent.

    A table qualifies when every tuple is annotated with its own variable
    (or is certain — a variable-free annotation is a deterministic
    multiplicity, trivially independent of everything), no variable is
    reused (within or across tables), and no tuple value is a semimodule
    expression.

    No row is read: each table's write path maintains the counts this
    needs (:class:`~repro.db.pvc_table.TableFacts`), so the work is
    O(#tables) plus C-level set operations over the variable names, and
    the answer is kept on the database under the stamp of its tables
    (:mod:`repro.cache`) — the same object until a row of any table
    changes.  A table whose facts are missing or stale (built from rows,
    or edited in place) is counted once, alone.  An answer assembled from
    one table before a write and another after describes no database
    state: it is computed again, never kept or returned.
    """
    while True:
        stamp = capture_stamp(db)
        names = db.independence_memo.get(stamp)
        if names is not None:
            return names
        names = _independent_tables(db)
        if db.independence_memo.put(stamp, names, after=capture_stamp(db)):
            return names


def _independent_tables(db: PVCDatabase) -> frozenset:
    facts = {name: table.facts() for name, table in db.tables.items()}
    seen: set[str] = set()
    shared: set[str] = set()  # variables annotating rows of two tables
    for table_facts in facts.values():
        names = table_facts.annotation_rows
        shared.update(seen.intersection(names))
        seen.update(names)
    return frozenset(
        name
        for name, table_facts in facts.items()
        if not table_facts.dependent
        and table_facts.mentions == len(table_facts.annotation_rows)
        and table_facts.annotation_rows.keys().isdisjoint(shared)
    )


def classify_query(
    query: Query,
    catalog: Mapping[str, Schema],
    tuple_independent: set[str],
) -> Classification:
    """Classify a query into ``Q_ind`` ⊂ ``Q_hie`` or ``UNKNOWN``.

    ``tuple_independent`` names the base relations known to be
    tuple-independent (see :func:`tuple_independent_relations`).
    """
    if not query.is_non_repeating():
        return Classification(
            QueryClass.UNKNOWN, ["query repeats a base relation"]
        )
    result = _classify_qind(query, catalog, tuple_independent)
    if result is not None:
        return result
    result = _classify_qhie(query, catalog, tuple_independent)
    if result is not None:
        return result
    return Classification(
        QueryClass.UNKNOWN,
        ["query matches neither Definition 8 nor Definition 9"],
    )


def _is_proper_block(block: SPJBlock, query: Query) -> bool:
    """True when flattening actually decomposed the query.

    Prevents the SPJ rules from recursing on a query that is its own
    single leaf (e.g. a bare GroupAgg or Union).
    """
    return not (len(block.leaves) == 1 and block.leaves[0] is query)


def _is_qind(query, catalog, ti) -> bool:
    result = _classify_qind(query, catalog, ti)
    return result is not None


def _classify_qind(
    query: Query, catalog, ti: set[str]
) -> Classification | None:
    # Definition 8.1: a tuple-independent base relation.
    if isinstance(query, BaseRelation):
        if query.name in ti:
            return Classification(
                QueryClass.QIND,
                [f"{query.name} is a tuple-independent relation (Def. 8.1)"],
            )
        return None

    # Definition 8.2(a): π_A σ_φ($_{A̅;γ}(Q1)) with γ not in A.
    inner, head, _ = _peel_project_select(query)
    if isinstance(inner, GroupAgg) and _is_qind(inner.child, catalog, ti):
        agg_outputs = {spec.output for spec in inner.aggregations}
        # The projection must drop the aggregation attribute (γ ∉ A̅); a
        # query exposing γ belongs to Definition 9.1, not 8.2(a).
        if head is not None and not (set(head) & agg_outputs):
            return Classification(
                QueryClass.QIND,
                [
                    "π σ over a grouped aggregation of a Q_ind query, "
                    "projecting away the aggregation attribute (Def. 8.2a)"
                ],
            )

    # Definition 8.2(c): π_∅ σ_{γ1 θ γ2}($_∅(Q1) × $_∅(Q2)).
    if head == ():
        block = flatten_spj(query)
        if (
            len(block.leaves) == 2
            and all(
                isinstance(leaf, GroupAgg)
                and not leaf.groupby
                and _is_qind(leaf.child, catalog, ti)
                for leaf in block.leaves
            )
        ):
            return Classification(
                QueryClass.QIND,
                [
                    "Boolean comparison of two independent ungrouped "
                    "aggregates (Def. 8.2c)"
                ],
            )

    # Definition 8.2(b): hierarchical π_A σ_φ(Q1 × ... × Qn) over Q_ind
    # queries with every head attribute a root attribute.
    block = flatten_spj(query)
    if _is_proper_block(block, query) and all(
        _is_qind(leaf, catalog, ti) for leaf in block.leaves
    ):
        if is_hierarchical(query, catalog):
            roots = root_attribute_classes(query, catalog)
            root_attrs = set().union(*roots) if roots else set()
            head_attrs = _effective_head(block, catalog)
            if head_attrs <= root_attrs:
                return Classification(
                    QueryClass.QIND,
                    [
                        "hierarchical join of Q_ind queries projecting "
                        "onto root attributes (Def. 8.2b)"
                    ],
                )
    return None


def _classify_qhie(
    query: Query, catalog, ti: set[str]
) -> Classification | None:
    # Definition 9.2: non-repeating hierarchical SPJ query over Q_ind.
    block = flatten_spj(query)
    if (
        _is_proper_block(block, query)
        and not any(isinstance(leaf, GroupAgg) for leaf in block.leaves)
        and all(_is_qind(leaf, catalog, ti) for leaf in block.leaves)
        and is_hierarchical(query, catalog)
    ):
        return Classification(
            QueryClass.QHIE,
            ["non-repeating hierarchical SPJ query over Q_ind inputs (Def. 9.2)"],
        )

    # Definition 9.1: π_A $_{A;γ}(σ_ψ(Q1 × ... × Qn)) with the underlying
    # SPJ query hierarchical.
    node = query
    head = None
    if isinstance(node, Project):
        head = node.attributes
        node = node.child
    if isinstance(node, GroupAgg):
        agg = node
        inner_block = flatten_spj(agg.child)
        if all(_is_qind(leaf, catalog, ti) for leaf in inner_block.leaves):
            spj_view = Project(agg.child, agg.groupby)
            if is_hierarchical(spj_view, catalog):
                if head is None or set(head) <= set(agg.groupby):
                    return Classification(
                        QueryClass.QHIE,
                        [
                            "grouped aggregation over a hierarchical join "
                            "of Q_ind queries (Def. 9.1)"
                        ],
                    )
    return None


def _peel_project_select(query: Query):
    """Strip one optional ``π`` and any ``σ`` layers; returns
    ``(core, head, atoms)`` with ``head=None`` when no projection."""
    head = None
    if isinstance(query, Project):
        head = query.attributes
        query = query.child
    atoms = []
    while isinstance(query, Select):
        atoms.extend(query.predicate.atoms())
        query = query.child
    return query, head, atoms
