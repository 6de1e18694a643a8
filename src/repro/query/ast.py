"""The query language ``Q``: positive relational algebra with aggregation.

Definition 5 of the paper: queries built from the operators

* ``δ_{B←A}`` (:class:`Extend`) — duplicate attribute A under a new name B,
* ``σ_φ`` (:class:`Select`),
* ``π_{A̅}`` (:class:`Project`),
* ``×`` (:class:`Product`),
* ``∪`` (:class:`Union`),
* ``$_{A̅; α₁←AGG₁(B₁), ...}`` (:class:`GroupAgg`) — grouping/aggregation,

subject to the constraint that projection, union and grouping are never
applied to aggregation attributes.  Output schemas (with aggregation-
attribute markings) are computed against a catalog of base-table schemas;
the Definition-5 constraints are enforced by
:mod:`repro.query.validate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from repro.algebra.monoid import COUNT, Monoid, monoid_by_name
from repro.db.schema import Schema
from repro.errors import QueryValidationError, SchemaError
from repro.query.predicates import Predicate, conj, eq

__all__ = [
    "Query",
    "BaseRelation",
    "Extend",
    "Select",
    "Project",
    "Product",
    "Union",
    "GroupAgg",
    "AggSpec",
    "relation",
    "product_of",
    "equijoin",
    "rebuild",
    "bind_query",
]


class Query:
    """Base class of query-algebra nodes."""

    #: Child queries, for generic tree walks.
    children: tuple = ()
    #: ``(template, values)`` when the query is one text of a statement
    #: shape whose plan is the template's plan with ``values`` bound
    #: (:func:`repro.query.sql.bind_template`); not part of its identity.
    shape: tuple | None = None

    def schema(self, catalog: Mapping[str, Schema]) -> Schema:
        """The output schema against a catalog of base-table schemas."""
        raise NotImplementedError

    def walk(self) -> Iterator["Query"]:
        """Yield this node and all descendants (pre-order)."""
        yield self
        for child in self.children:
            yield from child.walk()

    def base_relations(self) -> list[str]:
        """The names of base relations, in occurrence order."""
        return [node.name for node in self.walk() if isinstance(node, BaseRelation)]

    def is_non_repeating(self) -> bool:
        """True if every base relation occurs at most once (Section 6)."""
        names = self.base_relations()
        return len(names) == len(set(names))


@dataclass(frozen=True)
class BaseRelation(Query):
    """A reference to a stored pvc-table."""

    name: str

    def schema(self, catalog):
        try:
            return catalog[self.name]
        except KeyError:
            raise QueryValidationError(
                f"query references unknown relation {self.name!r}"
            ) from None

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class Extend(Query):
    """``δ_{B←A}``: append a copy of attribute ``source`` named ``target``."""

    child: Query
    target: str
    source: str

    def __post_init__(self):
        object.__setattr__(self, "children", (self.child,))

    def schema(self, catalog):
        child_schema = self.child.schema(catalog)
        child_schema.index(self.source)
        return child_schema.extend(
            self.target, aggregation=child_schema.is_aggregation(self.source)
        )

    def __repr__(self):
        return f"δ[{self.target}←{self.source}]({self.child!r})"


@dataclass(frozen=True)
class Select(Query):
    """``σ_φ``: selection by a conjunctive predicate."""

    child: Query
    predicate: Predicate

    def __post_init__(self):
        object.__setattr__(self, "children", (self.child,))

    def schema(self, catalog):
        child_schema = self.child.schema(catalog)
        for attribute in self.predicate.attributes():
            child_schema.index(attribute)
        return child_schema

    def __repr__(self):
        return f"σ[{self.predicate!r}]({self.child!r})"


@dataclass(frozen=True)
class Project(Query):
    """``π_{A̅}``: projection onto ``attributes`` (duplicates merge)."""

    child: Query
    attributes: tuple

    def __init__(self, child: Query, attributes: Sequence[str]):
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "attributes", tuple(attributes))
        object.__setattr__(self, "children", (child,))

    def schema(self, catalog):
        return self.child.schema(catalog).project(self.attributes)

    def __repr__(self):
        return f"π[{', '.join(self.attributes)}]({self.child!r})"


@dataclass(frozen=True)
class Product(Query):
    """``×``: cartesian product (attribute names must be disjoint)."""

    left: Query
    right: Query

    def __post_init__(self):
        object.__setattr__(self, "children", (self.left, self.right))

    def schema(self, catalog):
        return self.left.schema(catalog).concat(self.right.schema(catalog))

    def __repr__(self):
        return f"({self.left!r} × {self.right!r})"


@dataclass(frozen=True)
class Union(Query):
    """``∪``: union of compatible relations (annotations add)."""

    left: Query
    right: Query

    def __post_init__(self):
        object.__setattr__(self, "children", (self.left, self.right))

    def schema(self, catalog):
        left_schema = self.left.schema(catalog)
        right_schema = self.right.schema(catalog)
        if left_schema.attributes != right_schema.attributes:
            raise SchemaError(
                f"union of incompatible schemas {left_schema!r} and "
                f"{right_schema!r}"
            )
        return Schema(
            left_schema.attributes,
            left_schema.aggregation_attributes
            | right_schema.aggregation_attributes,
        )

    def __repr__(self):
        return f"({self.left!r} ∪ {self.right!r})"


@dataclass(frozen=True)
class AggSpec:
    """One aggregation of a ``$`` operator: ``output ← AGG(attribute)``.

    For COUNT the input ``attribute`` is ``None`` (each tuple counts 1).
    """

    output: str
    monoid: Monoid
    attribute: str | None

    @classmethod
    def of(cls, output: str, agg: str | Monoid, attribute: str | None = None):
        monoid = monoid_by_name(agg) if isinstance(agg, str) else agg
        if attribute is None and monoid != COUNT:
            raise QueryValidationError(
                f"aggregation {monoid.name} requires an input attribute"
            )
        return cls(output, monoid, attribute)

    def __repr__(self):
        inner = "*" if self.attribute is None else self.attribute
        return f"{self.output}←{self.monoid.name}({inner})"


@dataclass(frozen=True)
class GroupAgg(Query):
    """``$_{A̅; α₁←AGG₁(B₁), ...}``: grouping with aggregation."""

    child: Query
    groupby: tuple
    aggregations: tuple

    def __init__(
        self,
        child: Query,
        groupby: Sequence[str],
        aggregations: Sequence[AggSpec],
    ):
        if not aggregations:
            raise QueryValidationError("$ operator needs at least one aggregation")
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "groupby", tuple(groupby))
        object.__setattr__(self, "aggregations", tuple(aggregations))
        object.__setattr__(self, "children", (child,))

    def schema(self, catalog):
        child_schema = self.child.schema(catalog)
        for attribute in self.groupby:
            child_schema.index(attribute)
        for spec in self.aggregations:
            if spec.attribute is not None:
                child_schema.index(spec.attribute)
        names = self.groupby + tuple(spec.output for spec in self.aggregations)
        return Schema(names, [spec.output for spec in self.aggregations])

    def __repr__(self):
        aggs = ", ".join(map(repr, self.aggregations))
        groupby = ", ".join(self.groupby) if self.groupby else "∅"
        return f"$[{groupby}; {aggs}]({self.child!r})"


def relation(name: str) -> BaseRelation:
    """Shorthand for a base-relation reference."""
    return BaseRelation(name)


def product_of(*queries: Query) -> Query:
    """Left-deep product of several queries."""
    if not queries:
        raise QueryValidationError("product of no relations")
    result = queries[0]
    for query in queries[1:]:
        result = Product(result, query)
    return result


def equijoin(left: Query, right: Query, pairs: Sequence[tuple[str, str]]) -> Query:
    """``left ⋈ right`` on attribute-equality pairs (sugar for σ(×))."""
    return Select(
        Product(left, right), conj(*(eq(a, b) for a, b in pairs))
    )


def rebuild(query: Query, recurse) -> Query:
    """Apply ``recurse`` to the children of a node, preserving its shape.

    Returns ``query`` itself when no child changed (identity preserved),
    so unchanged subtrees cost nothing in the fixpoint convergence check.
    """
    if isinstance(query, BaseRelation):
        return query
    if isinstance(query, Select):
        child = recurse(query.child)
        return query if child is query.child else Select(child, query.predicate)
    if isinstance(query, Project):
        child = recurse(query.child)
        return query if child is query.child else Project(child, query.attributes)
    if isinstance(query, Product):
        left, right = recurse(query.left), recurse(query.right)
        if left is query.left and right is query.right:
            return query
        return Product(left, right)
    if isinstance(query, Union):
        left, right = recurse(query.left), recurse(query.right)
        if left is query.left and right is query.right:
            return query
        return Union(left, right)
    if isinstance(query, GroupAgg):
        child = recurse(query.child)
        if child is query.child:
            return query
        return GroupAgg(child, query.groupby, query.aggregations)
    if isinstance(query, Extend):
        child = recurse(query.child)
        if child is query.child:
            return query
        return Extend(child, query.target, query.source)
    return query


def bind_query(query: Query, values) -> Query:
    """``query`` with each :class:`~repro.query.predicates.Param` replaced
    by its value in ``values``; subtrees without one are shared."""
    if isinstance(query, Select):
        child = bind_query(query.child, values)
        predicate = query.predicate.bind(values)
        if child is query.child and predicate is query.predicate:
            return query
        return Select(child, predicate)
    return rebuild(query, lambda child: bind_query(child, values))
