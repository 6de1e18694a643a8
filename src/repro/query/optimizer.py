"""The rule-based logical optimizer — stage 1 of the step-I pipeline.

Step I of the paper's architecture (computing result tuples with symbolic
annotations) is executed as a three-stage pipeline: **logical optimizer**
(this module) → physical planner (:mod:`repro.query.physical`) → physical
executor (:mod:`repro.query.executor`).  This module rewrites ``Q``-algebra
trees with classical algebraic equivalences.  Because annotations live in
a commutative semiring, the standard bag-semantics equivalences hold in
*every* commutative semiring (Green et al. [7]) and therefore preserve not
just the answer tuples but their annotation *values* — hence all
probabilities and aggregate distributions.

Each rewrite is a named :class:`Rule` in a registry; :func:`optimize`
applies the registry to a fixpoint and :func:`optimize_traced` additionally
reports which rules fired on which pass (surfaced by
``Session.explain``).  The default registry:

* ``fold-constants``      — evaluate literal-only atoms and trivial
  self-equalities at plan time; drop true atoms, collapse to a single
  false atom (the planner lowers it to an empty result);
* ``merge-selections``    — ``σ_φ(σ_ψ(Q)) → σ_{φ∧ψ}(Q)`` with duplicate
  atoms removed (``σ_φ(σ_φ(Q)) → σ_φ(Q)``);
* ``pushdown-selections`` — push atoms through ``×`` (to the side holding
  their attributes), ``∪`` (into both operands), ``δ`` (rewriting the
  duplicated attribute to its source), ``π``, and ``$`` (atoms over
  group-by attributes only);
* ``collapse-projections``— ``π_A(π_B(Q)) → π_A(Q)``;
* ``pushdown-projections``— narrow base relations to the attributes some
  ancestor actually needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro.db.schema import Schema
from repro.query.ast import (
    BaseRelation,
    Extend,
    GroupAgg,
    Product,
    Project,
    Query,
    Select,
    Union,
    rebuild,
)
from repro.query.predicates import (
    AttrRef,
    Comparison,
    Literal,
    conj,
)

__all__ = [
    "Rule",
    "RuleFiring",
    "DEFAULT_RULES",
    "optimize",
    "optimize_traced",
    "merge_selections",
    "collapse_projections",
    "pushdown_selections",
    "pushdown_projections",
    "fold_constant_predicates",
]

#: Safety bound on fixpoint iteration; the default rules converge in 2-3
#: passes, so hitting this indicates a non-confluent rule pair.
MAX_PASSES = 10


@dataclass(frozen=True)
class Rule:
    """One named rewrite: a pure function ``Query → Query``."""

    name: str
    description: str
    apply: Callable[[Query, Mapping[str, Schema]], Query]


@dataclass(frozen=True)
class RuleFiring:
    """One trace entry: rule ``name`` changed the tree on pass ``pass_no``."""

    pass_no: int
    name: str

    def __repr__(self):
        return f"{self.name}@{self.pass_no}"


# -- selection merging --------------------------------------------------------


def merge_selections(query: Query, catalog: Mapping[str, Schema] | None = None) -> Query:
    """Fuse cascading selections into single deduplicated conjunctions.

    Like every rule in this module, returns ``query`` itself (not a
    rebuilt copy) when nothing changed, so the fixpoint driver detects
    convergence with an identity check instead of a deep tree comparison.
    """
    if isinstance(query, Select):
        child = merge_selections(query.child)
        atoms = list(query.predicate.atoms())
        cascaded = isinstance(child, Select)
        while isinstance(child, Select):
            atoms.extend(child.predicate.atoms())
            child = child.child
        deduped = list(dict.fromkeys(atoms))
        if not cascaded and deduped == atoms:
            if child is query.child:
                return query
            return Select(child, query.predicate)
        return Select(child, conj(*deduped))
    return rebuild(query, merge_selections)


# -- projection collapsing ----------------------------------------------------


def collapse_projections(query: Query, catalog: Mapping[str, Schema] | None = None) -> Query:
    """Drop inner projections that an outer projection overrides."""
    if isinstance(query, Project):
        child = collapse_projections(query.child)
        while isinstance(child, Project):
            child = child.child
        if child is query.child:
            return query
        return Project(child, query.attributes)
    return rebuild(query, collapse_projections)


# -- constant folding ---------------------------------------------------------


def fold_constant_predicates(query: Query, catalog: Mapping[str, Schema]) -> Query:
    """Evaluate atoms that need no data: literal θ literal comparisons."""

    def fold(node: Query) -> Query:
        if isinstance(node, Select):
            child = fold(node.child)
            kept: list[Comparison] = []
            for atom in node.predicate.atoms():
                verdict = _static_verdict(atom)
                if verdict is True:
                    continue
                if verdict is False:
                    # One canonical false atom; the physical planner lowers
                    # a constant-false selection to an empty result.
                    return Select(child, atom)
                kept.append(atom)
            if not kept:
                return child
            if child is node.child and len(kept) == len(node.predicate.atoms()):
                return node
            return Select(child, conj(*kept))
        return rebuild(node, fold)

    return fold(query)


def _static_verdict(atom: Comparison):
    """True/False when the atom is decidable without data, else None.

    Only literal-to-literal comparisons qualify.  Reflexive atoms
    (``A = A``) are deliberately *not* folded: float NaN values make
    ``=``/``<=``/``>=`` non-reflexive at runtime, so folding them would
    change the answer set.
    """
    if isinstance(atom.left, Literal) and isinstance(atom.right, Literal):
        return bool(atom.op(atom.left.value, atom.right.value))
    return None


# -- selection pushdown -------------------------------------------------------


def pushdown_selections(query: Query, catalog: Mapping[str, Schema]) -> Query:
    """Push selection atoms as close to the base relations as possible.

    All rewrites are annotation-value-preserving: selections commute with
    ``×`` and ``δ``, distribute over ``∪``, commute with ``π`` (merged
    rows share all projected values, so the filtered condition expression
    is identical across merged alternatives), and commute with ``$`` for
    atoms over group-by attributes (dropping a group equals dropping all
    of its input rows).
    """

    def push(node: Query) -> Query:
        if not isinstance(node, Select):
            return rebuild(node, push)
        child = node.child
        atoms = list(node.predicate.atoms())
        if not atoms:
            return push(child)
        if isinstance(child, Product):
            left_attrs = set(child.left.schema(catalog).attributes)
            right_attrs = set(child.right.schema(catalog).attributes)
            left_atoms, right_atoms, rest = [], [], []
            for atom in atoms:
                attrs = atom.attributes()
                if attrs and attrs <= left_attrs:
                    left_atoms.append(atom)
                elif attrs and attrs <= right_attrs:
                    right_atoms.append(atom)
                else:
                    rest.append(atom)
            if not left_atoms and not right_atoms:
                pushed = push(child)
                if pushed is child:
                    return node
                return Select(pushed, node.predicate)
            left = Select(child.left, conj(*left_atoms)) if left_atoms else child.left
            right = (
                Select(child.right, conj(*right_atoms)) if right_atoms else child.right
            )
            lowered = Product(push(left), push(right))
            if rest:
                return Select(lowered, conj(*rest))
            return lowered
        if isinstance(child, Union):
            return Union(
                push(Select(child.left, node.predicate)),
                push(Select(child.right, node.predicate)),
            )
        if isinstance(child, Extend):
            rewritten = [
                _replace_attribute(atom, child.target, child.source)
                for atom in atoms
            ]
            return Extend(
                push(Select(child.child, conj(*rewritten))),
                child.target,
                child.source,
            )
        if isinstance(child, Project):
            return Project(
                push(Select(child.child, node.predicate)), child.attributes
            )
        if isinstance(child, GroupAgg) and child.groupby:
            keys = set(child.groupby)
            below = [atom for atom in atoms if atom.attributes() <= keys]
            above = [atom for atom in atoms if not atom.attributes() <= keys]
            if not below:
                pushed = push(child)
                if pushed is child:
                    return node
                return Select(pushed, node.predicate)
            lowered = GroupAgg(
                push(Select(child.child, conj(*below))),
                child.groupby,
                child.aggregations,
            )
            if above:
                return Select(lowered, conj(*above))
            return lowered
        pushed = push(child)
        if pushed is child:
            return node
        return Select(pushed, node.predicate)

    return push(query)


def _replace_attribute(atom: Comparison, old: str, new: str) -> Comparison:
    """The atom with references to attribute ``old`` renamed to ``new``."""

    def swap(operand):
        if isinstance(operand, AttrRef) and operand.name == old:
            return AttrRef(new)
        return operand

    left, right = swap(atom.left), swap(atom.right)
    if left is atom.left and right is atom.right:
        return atom
    return Comparison(left, atom.op, right)


# -- projection pushdown ------------------------------------------------------


def pushdown_projections(query: Query, catalog: Mapping[str, Schema]) -> Query:
    """Insert narrowing projections directly above the leaf access paths.

    The projection lands *above* a selection sitting on a base relation
    (``π_keep(σ_φ(R))``), matching the canonical operator order that
    selection pushdown also converges to — the two rules are confluent.
    """
    required = set(query.schema(catalog).attributes)
    return _pushdown(query, required, catalog)


def _pushdown(query: Query, required: set, catalog) -> Query:
    if isinstance(query, BaseRelation):
        schema = query.schema(catalog)
        keep = [a for a in schema.attributes if a in required]
        if len(keep) < len(schema.attributes) and keep:
            return Project(query, keep)
        return query
    if isinstance(query, Select):
        if isinstance(query.child, BaseRelation):
            # Keep σ directly on the scan; narrow above it so the
            # predicate's attributes need not survive the projection.
            schema = query.child.schema(catalog)
            keep = [a for a in schema.attributes if a in required]
            if len(keep) < len(schema.attributes) and keep:
                return Project(Select(query.child, query.predicate), keep)
            return query
        needed = required | query.predicate.attributes()
        child = _pushdown(query.child, needed, catalog)
        return query if child is query.child else Select(child, query.predicate)
    if isinstance(query, Project):
        # The projection itself defines what is needed below.
        needed = set(query.attributes)
        child = _pushdown(query.child, needed, catalog)
        # Strip projections inserted directly underneath: the outer one
        # subsumes them, and dropping them here keeps the rule idempotent
        # (no collapse/pushdown oscillation across fixpoint passes).
        while isinstance(child, Project):
            child = child.child
        return query if child is query.child else Project(child, query.attributes)
    if isinstance(query, Product):
        left_attrs = set(query.left.schema(catalog).attributes)
        right_attrs = set(query.right.schema(catalog).attributes)
        left = _pushdown(query.left, required & left_attrs, catalog)
        right = _pushdown(query.right, required & right_attrs, catalog)
        if left is query.left and right is query.right:
            return query
        return Product(left, right)
    if isinstance(query, Union):
        # Union operands share the full schema; narrowing them would
        # change which tuples merge, so push nothing (projections above
        # the union already handle narrowing).
        left = _pushdown(
            query.left, set(query.left.schema(catalog).attributes), catalog
        )
        right = _pushdown(
            query.right, set(query.right.schema(catalog).attributes), catalog
        )
        if left is query.left and right is query.right:
            return query
        return Union(left, right)
    if isinstance(query, GroupAgg):
        idempotent = all(
            spec.monoid.name in ("MIN", "MAX") for spec in query.aggregations
        )
        if idempotent:
            # New merging projections are sound below MIN/MAX: the
            # monoids are idempotent, so (Φ₁+Φ₂)⊗m = Φ₁⊗m + Φ₂⊗m.
            needed = set(query.groupby)
            for spec in query.aggregations:
                if spec.attribute is not None:
                    needed.add(spec.attribute)
        else:
            # SUM/COUNT/PROD count *tuples*; inserting a projection that
            # merges distinct tuples would change multiplicities under
            # set semantics, so require the full child schema (existing
            # user projections below are untouched and remain sound).
            needed = set(query.child.schema(catalog).attributes)
        child = _pushdown(query.child, needed, catalog)
        if child is query.child:
            return query
        return GroupAgg(child, query.groupby, query.aggregations)
    if isinstance(query, Extend):
        needed = (required - {query.target}) | {query.source}
        child = _pushdown(query.child, needed, catalog)
        if child is query.child:
            return query
        return Extend(child, query.target, query.source)
    return query


# -- the registry and the fixpoint driver ------------------------------------

DEFAULT_RULES: tuple[Rule, ...] = (
    Rule(
        "fold-constants",
        "evaluate literal-only and reflexive atoms at plan time",
        fold_constant_predicates,
    ),
    Rule(
        "merge-selections",
        "σ_φ(σ_ψ(Q)) → σ_{φ∧ψ}(Q), deduplicating atoms",
        merge_selections,
    ),
    Rule(
        "pushdown-selections",
        "push selection atoms through ×, ∪, δ, π and $",
        pushdown_selections,
    ),
    Rule(
        "collapse-projections",
        "π_A(π_B(Q)) → π_A(Q)",
        collapse_projections,
    ),
    Rule(
        "pushdown-projections",
        "narrow base relations to the attributes ancestors need",
        pushdown_projections,
    ),
)


def optimize_traced(
    query: Query,
    catalog: Mapping[str, Schema],
    rules: Sequence[Rule] | None = None,
) -> tuple[Query, tuple[RuleFiring, ...]]:
    """Apply ``rules`` to a fixpoint; also report which rules fired when."""
    registry = DEFAULT_RULES if rules is None else tuple(rules)
    firings: list[RuleFiring] = []
    for pass_no in range(1, MAX_PASSES + 1):
        changed = False
        for rule in registry:
            rewritten = rule.apply(query, catalog)
            # Rules preserve identity on no-op subtrees, so the common
            # case is a cheap identity check; the structural comparison
            # only runs for rules that rebuilt an equal tree.
            if rewritten is not query and rewritten != query:
                firings.append(RuleFiring(pass_no, rule.name))
                query = rewritten
                changed = True
        if not changed:
            break
    return query, tuple(firings)


def optimize(
    query: Query,
    catalog: Mapping[str, Schema],
    rules: Sequence[Rule] | None = None,
) -> Query:
    """Apply all rewrites to a fixpoint; the result is equivalent."""
    return optimize_traced(query, catalog, rules)[0]
