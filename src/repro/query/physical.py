"""The physical plan layer — stage 2 of the step-I pipeline.

Lowers a (logically optimized) ``Q``-algebra tree to a tree of physical
operators.  The headline transformation extracts equi-join conditions from
``σ`` over ``×`` into :class:`HashJoin` nodes, ordered greedily
smallest-relation-first by base-table cardinality estimates; everything
else lowers structurally to :class:`Filter` / :class:`NestedLoopProduct` /
:class:`ProjectOp` / :class:`GroupAggOp` and friends.

The plan is engine-agnostic: the same tree is executed symbolically
(annotations constructed in the semiring, :class:`~repro.db.pvc_table.PVCTable`
out) by the SPROUT-style engine, and deterministically (concrete semiring
multiplicities, :class:`~repro.db.relation.Relation` out) per world by the
brute-force and Monte-Carlo engines — see :mod:`repro.query.executor`.

``explain_plan`` renders the tree, and ``Session.explain`` combines it
with the optimizer's rule trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.db.schema import Schema
from repro.errors import QueryValidationError
from repro.query.ast import (
    BaseRelation,
    Extend,
    GroupAgg,
    Product,
    Project,
    Query,
    Select,
    Union,
)
from repro.query.predicates import (
    AttrRef,
    Comparison,
    Literal,
    Predicate,
    conj,
)

__all__ = [
    "PhysicalOp",
    "Scan",
    "EmptyResult",
    "Filter",
    "HashJoin",
    "NestedLoopProduct",
    "ProjectOp",
    "ReorderOp",
    "ExtendOp",
    "UnionOp",
    "GroupAggOp",
    "plan_query",
    "bind_plan",
    "explain_plan",
]


@dataclass(frozen=True)
class PhysicalOp:
    """Base class of physical operators; ``schema`` is the output schema."""

    schema: Schema

    #: Child operators, for generic tree walks.
    children: tuple = field(default=(), init=False, repr=False, compare=False)

    def walk(self) -> Iterator["PhysicalOp"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def label(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class Scan(PhysicalOp):
    """Read a stored base relation (duplicates merged, set-of-tuples view)."""

    name: str
    estimate: int

    def label(self):
        return f"Scan[{self.name}] (~{self.estimate} rows)"


@dataclass(frozen=True)
class EmptyResult(PhysicalOp):
    """A statically-empty input (constant-false selection)."""

    def label(self):
        return "EmptyResult"


@dataclass(frozen=True)
class Filter(PhysicalOp):
    """σ: keep rows satisfying the conjunction; symbolic comparisons are
    multiplied into the annotation (Figure 4, σ rule)."""

    child: PhysicalOp
    predicate: Predicate

    def __post_init__(self):
        object.__setattr__(self, "children", (self.child,))

    def label(self):
        return f"Filter[{self.predicate!r}]"


@dataclass(frozen=True)
class HashJoin(PhysicalOp):
    """Equi-join; the hash table is built on the ``right`` (incoming) side.

    The greedy order makes the accumulated intermediate the probe side:
    the build side is always a fresh input, which for a base-table scan
    means the executor reuses the table's *cached* hash index instead of
    rebuilding one per execution — cheaper across repeated queries even
    when the incoming side is the larger one.

    That index is what a *re-walk* saves (a write moved a read table, or
    the plan is new); a repeat at unchanged table epochs does not walk
    at all — :func:`~repro.query.executor.symbolic_answer` serves the
    rows the plan kept."""

    left: PhysicalOp
    right: PhysicalOp
    left_keys: tuple
    right_keys: tuple
    estimate: int

    def __post_init__(self):
        object.__setattr__(self, "children", (self.left, self.right))

    def label(self):
        pairs = ", ".join(
            f"{l} = {r}" for l, r in zip(self.left_keys, self.right_keys)
        )
        return f"HashJoin[{pairs}] (build=right, ~{self.estimate} rows)"


@dataclass(frozen=True)
class NestedLoopProduct(PhysicalOp):
    """×: cartesian product for join-condition-free combinations."""

    left: PhysicalOp
    right: PhysicalOp
    estimate: int

    def __post_init__(self):
        object.__setattr__(self, "children", (self.left, self.right))

    def label(self):
        return f"NestedLoopProduct (~{self.estimate} rows)"


@dataclass(frozen=True)
class ProjectOp(PhysicalOp):
    """π: project and merge duplicates (annotations sum)."""

    child: PhysicalOp
    attributes: tuple

    def __post_init__(self):
        object.__setattr__(self, "children", (self.child,))

    def label(self):
        return f"Project[{', '.join(self.attributes)}]"


@dataclass(frozen=True)
class ReorderOp(PhysicalOp):
    """Pure column permutation restoring the declared attribute order
    after join reordering (no merging — the permutation is bijective)."""

    child: PhysicalOp
    attributes: tuple

    def __post_init__(self):
        object.__setattr__(self, "children", (self.child,))

    def label(self):
        return f"Reorder[{', '.join(self.attributes)}]"


@dataclass(frozen=True)
class ExtendOp(PhysicalOp):
    """δ: duplicate attribute ``source`` under the name ``target``."""

    child: PhysicalOp
    target: str
    source: str

    def __post_init__(self):
        object.__setattr__(self, "children", (self.child,))

    def label(self):
        return f"Extend[{self.target}←{self.source}]"


@dataclass(frozen=True)
class UnionOp(PhysicalOp):
    """∪: concatenate and merge duplicates (annotations sum)."""

    left: PhysicalOp
    right: PhysicalOp

    def __post_init__(self):
        object.__setattr__(self, "children", (self.left, self.right))

    def label(self):
        return "Union"


@dataclass(frozen=True)
class GroupAggOp(PhysicalOp):
    """$: grouping with semimodule aggregation (Figure 4, $ rule)."""

    child: PhysicalOp
    groupby: tuple
    aggregations: tuple

    def __post_init__(self):
        object.__setattr__(self, "children", (self.child,))

    def label(self):
        aggs = ", ".join(map(repr, self.aggregations))
        keys = ", ".join(self.groupby) if self.groupby else "∅"
        return f"GroupAgg[{keys}; {aggs}]"


# -- the planner --------------------------------------------------------------


def plan_query(
    query: Query,
    catalog: Mapping[str, Schema],
    cardinalities: Mapping[str, int] | None = None,
    *,
    extract_joins: bool = True,
) -> PhysicalOp:
    """Lower a logical query to a physical plan.

    ``cardinalities`` maps base-table names to row counts and drives the
    greedy smallest-relation-first join ordering; missing entries default
    to 1 (planning still succeeds without statistics).

    ``extract_joins=False`` lowers ``σ(×…)`` literally — a filter over
    nested-loop products, exactly the Figure-4 reading — instead of
    extracting hash joins.  The brute-force oracle plans this way so its
    evaluation path stays independent of the join planner it verifies.
    """
    plan = _Planner(catalog, cardinalities or {}, extract_joins).plan(query)
    declared = query.schema(catalog)
    if plan.schema.attributes != declared.attributes:
        # Join reordering permuted the columns; physical operators resolve
        # attributes by name, so only the root restores declared order.
        plan = ReorderOp(declared, plan, declared.attributes)
    return plan


class _Planner:
    def __init__(self, catalog, cardinalities, extract_joins=True):
        self.catalog = catalog
        self.cardinalities = cardinalities
        self.extract_joins = extract_joins

    def plan(self, query: Query) -> PhysicalOp:
        if isinstance(query, BaseRelation):
            return Scan(query.schema(self.catalog), query.name, self._cardinality(query.name))
        if isinstance(query, Select):
            return self._plan_select(query)
        if isinstance(query, Project):
            child = self.plan(query.child)
            return ProjectOp(
                child.schema.project(query.attributes), child, tuple(query.attributes)
            )
        if isinstance(query, Product):
            left, right = self.plan(query.left), self.plan(query.right)
            return NestedLoopProduct(
                left.schema.concat(right.schema),
                left,
                right,
                self._estimate_op(left) * self._estimate_op(right),
            )
        if isinstance(query, Union):
            schema = query.schema(self.catalog)
            left, right = self.plan(query.left), self.plan(query.right)
            # Union merges positionally: realign operands whose columns a
            # nested join reordering permuted.
            if left.schema.attributes != schema.attributes:
                left = ReorderOp(schema, left, schema.attributes)
            if right.schema.attributes != schema.attributes:
                right = ReorderOp(schema, right, schema.attributes)
            return UnionOp(schema, left, right)
        if isinstance(query, Extend):
            child = self.plan(query.child)
            return ExtendOp(
                child.schema.extend(
                    query.target,
                    aggregation=child.schema.is_aggregation(query.source),
                ),
                child,
                query.target,
                query.source,
            )
        if isinstance(query, GroupAgg):
            return GroupAggOp(
                query.schema(self.catalog),
                self.plan(query.child),
                tuple(query.groupby),
                tuple(query.aggregations),
            )
        raise QueryValidationError(f"cannot plan query node {query!r}")

    # -- cardinality estimation ----------------------------------------------

    def _cardinality(self, name: str) -> int:
        return max(1, int(self.cardinalities.get(name, 1)))

    def _estimate(self, query: Query) -> int:
        """A coarse row-count estimate from base-table cardinalities."""
        if isinstance(query, BaseRelation):
            return self._cardinality(query.name)
        if isinstance(query, Select):
            # Constant equalities are selective; attribute comparisons are
            # not assumed to be.  A crude 1/3 per constant equality keeps
            # filtered relations preferred as join start points.
            estimate = self._estimate(query.child)
            for atom in query.predicate.atoms():
                if atom.is_constant_equality():
                    estimate = max(1, estimate // 3)
            return estimate
        if isinstance(query, (Project, Extend)):
            return self._estimate(query.child)
        if isinstance(query, GroupAgg):
            return self._estimate(query.child)
        if isinstance(query, Product):
            return self._estimate(query.left) * self._estimate(query.right)
        if isinstance(query, Union):
            return self._estimate(query.left) + self._estimate(query.right)
        return 1

    def _estimate_op(self, op: PhysicalOp) -> int:
        if isinstance(op, (Scan, HashJoin, NestedLoopProduct)):
            return op.estimate
        if isinstance(op, EmptyResult):
            return 0
        if isinstance(op, (Filter, ProjectOp, ReorderOp, ExtendOp, GroupAggOp)):
            return self._estimate_op(op.children[0])
        if isinstance(op, UnionOp):
            return self._estimate_op(op.left) + self._estimate_op(op.right)
        return 1

    # -- selections and joins -------------------------------------------------

    def _plan_select(self, query: Select) -> PhysicalOp:
        schema = query.schema(self.catalog)
        verdict = _constant_verdict(query.predicate)
        if verdict is False:
            return EmptyResult(schema)
        if self.extract_joins and isinstance(query.child, Product):
            return self._plan_join(query, schema)
        child = self.plan(query.child)
        if verdict is True:
            return child
        return Filter(child.schema, child, query.predicate)

    def _plan_join(self, query: Select, schema: Schema) -> PhysicalOp:
        """Extract equi-joins from ``σ(× ...)`` and order them greedily.

        Flattening descends through interposed ``σ(×)`` nodes, merging
        their predicates into one atom pool — selection pushdown (and
        users writing nested ``equijoin`` sugar) otherwise fragment the
        product tree into per-pair selections, which would hide the full
        join graph from the global greedy ordering.
        """
        leaves: list[Query] = []
        pool: list[Comparison] = []

        def flatten(node: Query):
            if isinstance(node, Product):
                flatten(node.left)
                flatten(node.right)
            elif isinstance(node, Select) and isinstance(node.child, Product):
                pool.extend(node.predicate.atoms())
                flatten(node.child)
            else:
                leaves.append(node)

        flatten(query.child)
        pool.extend(query.predicate.atoms())
        pool = list(dict.fromkeys(pool))  # structural dedup across levels
        leaf_schemas = [leaf.schema(self.catalog) for leaf in leaves]

        local: list[list] = [[] for _ in leaves]
        join_atoms: list[Comparison] = []
        residual: list[Comparison] = []
        for atom in pool:
            if isinstance(atom.left, Literal) and isinstance(atom.right, Literal):
                if not atom.op(atom.left.value, atom.right.value):
                    return EmptyResult(schema)
                continue
            homes = [
                i
                for i, leaf_schema in enumerate(leaf_schemas)
                if atom.attributes() <= set(leaf_schema.attributes)
            ]
            if homes:
                local[homes[0]].append(atom)
            elif self._hash_joinable(atom, leaf_schemas):
                join_atoms.append(atom)
            else:
                residual.append(atom)

        plans: list[PhysicalOp] = []
        estimates: list[int] = []
        for leaf, leaf_query, atoms in zip(
            (self.plan(leaf) for leaf in leaves), leaves, local
        ):
            estimate = self._estimate(leaf_query)
            if atoms:
                leaf = Filter(leaf.schema, leaf, conj(*atoms))
                for atom in atoms:
                    if atom.is_constant_equality():
                        estimate = max(1, estimate // 3)
            plans.append(leaf)
            estimates.append(estimate)

        joined = self._greedy_join_order(plans, estimates, join_atoms)
        if residual:
            joined = Filter(joined.schema, joined, conj(*residual))
        # Column order is restored once, at the plan root (see plan_query)
        # or below a Union — never per join.
        return joined

    def _hash_joinable(self, atom: Comparison, leaf_schemas) -> bool:
        """Equality between concrete (non-aggregation) attributes of two
        different leaves."""
        if atom.op.symbol != "=":
            return False
        if not (
            isinstance(atom.left, AttrRef) and isinstance(atom.right, AttrRef)
        ):
            return False
        for name in (atom.left.name, atom.right.name):
            for leaf_schema in leaf_schemas:
                if name in leaf_schema and leaf_schema.is_aggregation(name):
                    return False
        return True

    def _greedy_join_order(
        self,
        plans: list[PhysicalOp],
        estimates: list[int],
        join_atoms: list[Comparison],
    ) -> PhysicalOp:
        """Smallest-relation-first greedy ordering over the join graph.

        Starts from the smallest estimated input, repeatedly hash-joins
        with the smallest input connected by a pending equality (building
        the hash table on the incoming, typically smaller side), and falls
        back to a cartesian product with the smallest input when the graph
        is disconnected.  Equalities whose sides end up inside one
        intermediate (cycles in the join graph) become residual filters.
        """
        remaining = sorted(
            range(len(plans)), key=lambda i: (estimates[i], i)
        )
        pending = list(join_atoms)
        first = remaining.pop(0)
        current, current_estimate = plans[first], estimates[first]

        while remaining:
            current_attrs = set(current.schema.attributes)
            best, best_atoms = None, []
            for index in remaining:
                candidate_attrs = set(plans[index].schema.attributes)
                atoms = [
                    atom
                    for atom in pending
                    if len({atom.left.name, atom.right.name} & current_attrs) == 1
                    and len({atom.left.name, atom.right.name} & candidate_attrs) == 1
                ]
                if atoms and (best is None or estimates[index] < estimates[best]):
                    best, best_atoms = index, atoms
            if best is None:
                best = min(remaining, key=lambda i: estimates[i])
            remaining.remove(best)
            candidate, candidate_estimate = plans[best], estimates[best]
            schema = current.schema.concat(candidate.schema)
            if best_atoms:
                left_keys, right_keys = [], []
                for atom in best_atoms:
                    if atom.left.name in current.schema:
                        left_keys.append(atom.left.name)
                        right_keys.append(atom.right.name)
                    else:
                        left_keys.append(atom.right.name)
                        right_keys.append(atom.left.name)
                estimate = max(current_estimate, candidate_estimate)
                current = HashJoin(
                    schema,
                    current,
                    candidate,
                    tuple(left_keys),
                    tuple(right_keys),
                    estimate,
                )
                for atom in best_atoms:
                    pending.remove(atom)
            else:
                estimate = current_estimate * candidate_estimate
                current = NestedLoopProduct(schema, current, candidate, estimate)
            current_estimate = estimate
        if pending:
            # Both sides of these equalities ended up in one intermediate
            # (join-graph cycle): apply as an ordinary filter.
            current = Filter(current.schema, current, conj(*pending))
        return current


def _constant_verdict(predicate: Predicate):
    """True/False when every atom is literal-only, else None."""
    verdict = True
    for atom in predicate.atoms():
        if isinstance(atom.left, Literal) and isinstance(atom.right, Literal):
            if not atom.op(atom.left.value, atom.right.value):
                return False
        else:
            verdict = None
    return verdict


def bind_plan(op: PhysicalOp, values) -> PhysicalOp:
    """The plan ``op`` with each :class:`~repro.query.predicates.Param`
    replaced by its value in ``values``; subtrees without one are shared."""
    children = tuple(bind_plan(child, values) for child in op.children)
    if isinstance(op, Filter):
        predicate = op.predicate.bind(values)
        if children[0] is op.child and predicate is op.predicate:
            return op
        return Filter(op.schema, children[0], predicate)
    if all(new is old for new, old in zip(children, op.children)):
        return op
    return _REBUILD[type(op)](op, *children)


#: How each operator with children is rebuilt over new ones.
_REBUILD = {
    HashJoin: lambda op, left, right: HashJoin(
        op.schema, left, right, op.left_keys, op.right_keys, op.estimate
    ),
    NestedLoopProduct: lambda op, left, right: NestedLoopProduct(
        op.schema, left, right, op.estimate
    ),
    UnionOp: lambda op, left, right: UnionOp(op.schema, left, right),
    ProjectOp: lambda op, child: ProjectOp(op.schema, child, op.attributes),
    ReorderOp: lambda op, child: ReorderOp(op.schema, child, op.attributes),
    ExtendOp: lambda op, child: ExtendOp(op.schema, child, op.target, op.source),
    GroupAggOp: lambda op, child: GroupAggOp(
        op.schema, child, op.groupby, op.aggregations
    ),
}


def explain_plan(plan: PhysicalOp) -> str:
    """Render the physical tree, one operator per line."""
    lines: list[str] = []

    def render(op: PhysicalOp, depth: int):
        lines.append("  " * depth + op.label())
        for child in op.children:
            render(child, depth + 1)

    render(plan, 0)
    return "\n".join(lines)
