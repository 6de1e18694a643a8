"""The physical executor — stage 3 of the step-I pipeline.

A possible world is a semiring homomorphism applied to the annotations
of a pvc-table, so ``ν(Q(T)) = Q(ν(T))``: positive relational algebra
with ``$`` (Figure 4 / Definition 6) is *one* set of operators over
whatever the annotations are.  :class:`_PlanWalk` is that set, written
once over the plans of :mod:`repro.query.physical` — joint use
multiplies annotations, alternative use sums them — and two *domains*
answer only what differs:

* **symbolic** (:func:`execute_symbolic`) — annotations are semiring
  *expressions* over a pvc-database; symbolic comparisons multiply
  ``[A θ B]`` into the annotation and ``$`` builds semimodule
  expressions.  Produces the pvc-table of step I.
* **concrete** (:func:`execute_deterministic`, :func:`execute_rows`) —
  annotations are multiplicities in 𝔹/ℕ over one possible world: the
  interpreter behind :func:`world_evaluator` and the paper's Q0
  baseline.

:func:`world_evaluator` is the one per-world loop body of the engines
that evaluate worlds one by one — the brute-force oracle and
Monte-Carlo's fallback: ``{variable: value} → {values: multiplicity}``
over the tables as they were when it was built.

:func:`prepare` bundles validation, the rule-based logical optimizer and
the physical planner into a reusable :class:`PreparedQuery`, so engines
that evaluate many worlds plan once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.algebra.conditions import compare
from repro.algebra.expressions import ONE, ZERO, SemiringExpr, sprod, ssum
from repro.algebra.monoid import COUNT, SUM, CountMonoid
from repro.algebra.semimodule import MConst, ModuleExpr, aggsum, tensor
from repro.algebra.valuation import Valuation
from repro.cache import StampedSlot, capture_stamp
from repro.db.pvc_table import (
    PVCDatabase,
    PVCRow,
    PVCTable,
    merge_annotated_rows,
    tuple_getter,
)
from repro.db.relation import Relation
from repro.db.schema import Schema
from repro.errors import ConcurrentMutationError, QueryValidationError
from repro.query.ast import Query, bind_query
from repro.query.optimizer import RuleFiring, optimize_traced
from repro.query.physical import (
    EmptyResult,
    ExtendOp,
    Filter,
    GroupAggOp,
    HashJoin,
    NestedLoopProduct,
    PhysicalOp,
    ProjectOp,
    ReorderOp,
    Scan,
    UnionOp,
    bind_plan,
    plan_query,
)
from repro.query.predicates import AttrRef
from repro.query.validate import validate_query

__all__ = [
    "PreparedQuery",
    "prepare",
    "evaluate",
    "execute_symbolic",
    "symbolic_answer",
    "execute_deterministic",
    "execute_rows",
    "world_evaluator",
    "check_stamp",
]


def _memo(factory):
    """A mutable field of the frozen plan, outside its identity."""
    return field(default_factory=factory, repr=False, compare=False, hash=False)


@dataclass(frozen=True)
class PreparedQuery:
    """A query carried through the whole step-I pipeline, reusable across
    executions (and, for the per-world engines, across worlds).

    The plan itself is *data-independent*; the mutable fields are memos
    that live and die with it (with its :class:`~repro.engine.base.PlanCache`
    entry, when it has one): ``op_cache`` never holds row data, the two
    slots hold what was derived from it under the stamp that makes it valid.

    A plan prepared from a statement shape's template (each literal a
    :class:`~repro.query.predicates.Param`) is never run: :meth:`bind`
    makes the plan of each text of the shape from it.
    """

    query: Query
    optimized: Query
    plan: PhysicalOp
    trace: tuple[RuleFiring, ...]
    schema: Schema
    #: Per-operator compile cache (predicate accessors, key getters),
    #: keyed on operator identity.  Shared by every execution of this
    #: prepared plan, so the per-world engines compile each operator once.
    op_cache: dict = _memo(dict)
    #: The rows of this plan's step-I answer, stamped with the tables it
    #: reads; filled and read only by :func:`symbolic_answer`.
    answer: StampedSlot = _memo(StampedSlot)
    #: :func:`~repro.engine.base.select_engine_name`'s choice, stamped with
    #: every table; one slot per statement shape (see :meth:`bind`).
    classification: StampedSlot = _memo(StampedSlot)

    def bind(self, query: Query, values: tuple) -> "PreparedQuery":
        """The plan of ``query``, a text of the shape this template plan
        was prepared for, with its literal ``values``: the optimised query
        and the physical plan with the values bound, the rule trace and
        the schema as they are — what :func:`prepare` of ``query`` returns
        when :func:`~repro.query.sql.bind_template` gave it a shape.  The
        plan's memos are its own, except the classification, which reads
        the structure alone and stays the shape's."""
        return PreparedQuery(
            query,
            bind_query(self.optimized, values),
            bind_plan(self.plan, values),
            self.trace,
            self.schema,
            classification=self.classification,
        )


def prepare(
    query: Query,
    catalog: Mapping[str, Schema],
    cardinalities: Mapping[str, int] | None = None,
    *,
    optimize: bool = True,
    extract_joins: bool = True,
) -> PreparedQuery:
    """Validate, logically optimize and physically plan ``query``."""
    schema = validate_query(query, catalog)
    if optimize:
        optimized, trace = optimize_traced(query, catalog)
    else:
        optimized, trace = query, ()
    plan = plan_query(
        optimized, catalog, cardinalities, extract_joins=extract_joins
    )
    return PreparedQuery(query, optimized, plan, trace, schema)


def evaluate(query: Query, db: PVCDatabase, *, optimize: bool = True) -> PVCTable:
    """Step I end to end: the pvc-table of symbolic result tuples."""
    prepared = prepare(
        query, db.catalog(), db.cardinalities(), optimize=optimize
    )
    return execute_symbolic(prepared, db)


def execute_symbolic(prepared: PreparedQuery, db: PVCDatabase) -> PVCTable:
    """Execute the plan symbolically, constructing annotations in ``K``."""
    return symbolic_answer(prepared, db)[0]


def symbolic_answer(
    prepared: PreparedQuery, db: PVCDatabase
) -> tuple[PVCTable, bool]:
    """Step I of ``prepared`` on ``db``: ``(table, reused)``.

    A step-I answer is a function of the plan and of the rows of the
    tables it scans — not of any probability — so the plan keeps it
    (:mod:`repro.cache`) under the stamp of every base relation of
    the query, table objects included: a write to a scanned table, a
    dropped-and-recreated table or another database all miss, a write
    elsewhere and a ``p=`` update do not.  Rows are admitted on second
    sight, so a plan that runs once per table state never pins them.

    The slot keeps the immutable :class:`PVCRow` list; every call wraps
    it in a fresh :class:`PVCTable`, so the caller owns what it gets.
    """
    stamp = capture_stamp(db, prepared.query.base_relations())
    rows = prepared.answer.get(stamp)
    reused = rows is not None
    if not reused:
        walk = _PlanWalk(_SymbolicDomain(db), prepared.op_cache)
        rows = [
            PVCRow(values, annotation)
            for values, annotation in walk.rows(prepared.plan)
        ]
        prepared.answer.offer(stamp, rows)
    return PVCTable(prepared.plan.schema, rows), reused


def execute_deterministic(
    prepared: PreparedQuery,
    world: Mapping[str, Relation],
    semiring,
) -> Relation:
    """Execute the plan on one deterministic world (concrete
    multiplicities): the plan walk over the concrete domain."""
    tuples = dict(execute_rows(prepared.plan, world, semiring, prepared.op_cache))
    return Relation.from_mapping(prepared.plan.schema, semiring, tuples)


def execute_rows(
    op: PhysicalOp, world: Mapping[str, Relation], semiring, op_cache: dict
) -> list:
    """The interpreter on one world: the ``(values, multiplicity)`` pairs
    of the subplan ``op`` — distinct values, no zero multiplicity.
    ``op_cache`` is a :attr:`PreparedQuery.op_cache` (or a fresh dict)."""
    return _PlanWalk(_ConcreteDomain(world, semiring), op_cache).rows(op)


def world_evaluator(prepared: PreparedQuery, db: PVCDatabase, names, stamp):
    """The function mapping a ``{variable: value}`` assignment over
    ``names`` to the ``{values: multiplicity}`` answer of ``prepared`` in
    that world of ``db``: it instantiates each table the plan reads and
    runs the interpreter on them.  The rows are read here, once, under
    ``stamp`` — :func:`~repro.cache.capture_stamp` of
    ``prepared.query.base_relations()``, which the caller takes before
    it reads ``names`` off those tables: a write landing after this
    returns changes no later world, and one landing since the stamp
    raises :class:`~repro.errors.ConcurrentMutationError`.
    """
    semiring = db.semiring
    # ``PVCTable.add`` appends in place: copy each row list once.
    tables = {
        name: PVCTable(table.schema, table.rows) for name, table, _ in stamp[0]
    }
    plan, op_cache = prepared.plan, prepared.op_cache

    def evaluate(assignment) -> dict:
        valuation = Valuation(assignment, semiring)
        world = {
            name: table.instantiate(valuation, semiring)
            for name, table in tables.items()
        }
        return dict(execute_rows(plan, world, semiring, op_cache))

    check_stamp(db, prepared.query.base_relations(), stamp)
    return evaluate


def check_stamp(db: PVCDatabase, read, stamp) -> None:
    """Raise :class:`~repro.errors.ConcurrentMutationError` unless the
    tables ``read`` are still at ``stamp``."""
    if capture_stamp(db, read) != stamp:
        raise ConcurrentMutationError(
            "database mutated while a run read its tables"
        )


# -- the two annotation domains -----------------------------------------------


def _mul(a: SemiringExpr, b: SemiringExpr) -> SemiringExpr:
    """``a ·_K b`` with fast identity paths for the hot join loops."""
    if a is ONE or a.is_one():
        return b
    if b is ONE or b.is_one():
        return a
    return sprod((a, b))


class _SymbolicDomain:
    """Annotations are expressions of the free semiring ``K`` over the
    variables of a pvc-database — the Figure-4 construction."""

    mul = staticmethod(_mul)
    is_zero = staticmethod(SemiringExpr.is_zero)
    #: ``[A θ B]``, multiplied into the annotation (Figure 4, σ rule).
    condition = staticmethod(compare)
    merge = staticmethod(merge_annotated_rows)

    def __init__(self, db: PVCDatabase):
        self.db = db

    def scan(self, name: str) -> list:
        return self.db[name].scan_rows()

    def index(self, name: str, attributes) -> dict:
        table = self.db[name]
        return table.hash_index(tuple(table.schema.index(a) for a in attributes))

    def group_row(self, op: GroupAggOp, agg_indices, key, members) -> tuple:
        gammas = tuple(
            _gamma(spec, index, members)
            for spec, index in zip(op.aggregations, agg_indices)
        )
        if op.groupby:
            # Non-emptiness guard [Σ_K Φ ≠ 0_K].
            annotation = compare(
                ssum(annotation for _, annotation in members), "!=", ZERO
            )
        else:
            annotation = ONE
        return key + gammas, annotation


def _gamma(spec, index, members) -> ModuleExpr:
    """``Γ = Σ_AGG (Φ ⊗ B)``, resp. ``Σ_SUM (Φ ⊗ 1)`` for COUNT."""
    monoid = SUM if spec.monoid == COUNT else spec.monoid
    terms = []
    for values, annotation in members:
        if index is None or spec.monoid == COUNT:
            value = 1
        else:
            value = values[index]
            if isinstance(value, ModuleExpr):
                raise QueryValidationError(
                    f"cannot aggregate over semimodule values in "
                    f"attribute {spec.attribute!r}"
                )
        terms.append(tensor(annotation, MConst(monoid, value)))
    return aggsum(monoid, terms)


class _ConcreteDomain:
    """Annotations are multiplicities of a concrete semiring over one
    possible world ``{name: Relation}`` — the image of the symbolic
    domain under the world's valuation."""

    def __init__(self, world: Mapping[str, Relation], semiring):
        self.world = world
        self.semiring = semiring
        self.mul = semiring.mul
        zero = semiring.zero
        self.is_zero = lambda multiplicity: multiplicity == zero
        # A comparison on a semimodule value never holds in a concrete
        # world (mirrors ``Predicate.evaluate(row) is True`` exactly).
        self.condition = lambda left, op, right: zero

    def _relation(self, name: str) -> Relation:
        try:
            return self.world[name]
        except KeyError:
            raise QueryValidationError(
                f"world has no relation named {name!r}"
            ) from None

    def scan(self, name: str) -> list:
        return list(self._relation(name).tuples())

    def index(self, name: str, attributes) -> dict:
        return self._relation(name).hash_index(attributes)

    def merge(self, rows) -> list:
        add, zero = self.semiring.add, self.semiring.zero
        merged: dict = {}
        for values, multiplicity in rows:
            current = merged.get(values)
            if current is None:
                merged[values] = multiplicity
                continue
            combined = add(current, multiplicity)
            if combined == zero:
                del merged[values]
            else:
                merged[values] = combined
        return list(merged.items())

    def group_row(self, op: GroupAggOp, agg_indices, key, members) -> tuple:
        semiring = self.semiring
        aggregated = []
        for spec, index in zip(op.aggregations, agg_indices):
            monoid = spec.monoid
            constant = index is None or isinstance(monoid, CountMonoid)
            acc = monoid.zero
            for values, multiplicity in members:
                contribution = 1 if constant else values[index]
                acc = monoid.add(
                    acc, monoid.act(multiplicity, contribution, semiring)
                )
            aggregated.append(acc)
        return key + tuple(aggregated), semiring.one


# -- per-operator compilation -------------------------------------------------


def _compile_atoms(op: Filter) -> list:
    """Lower a conjunction to ``(left_index, left_const, op, right_index,
    right_const)`` tuples resolving operands positionally — no per-row
    attribute dictionaries on the hot filter path."""
    schema = op.child.schema
    compiled = []
    for atom in op.predicate.atoms():
        left, right = atom.left, atom.right
        if isinstance(left, AttrRef):
            left_index, left_const = schema.index(left.name), None
        else:
            left_index, left_const = None, left.value
        if isinstance(right, AttrRef):
            right_index, right_const = schema.index(right.name), None
        else:
            right_index, right_const = None, right.value
        compiled.append((left_index, left_const, atom.op, right_index, right_const))
    return compiled


def _compile_join_keys(op: HashJoin) -> tuple:
    left_schema, right_schema = op.left.schema, op.right.schema
    return (
        tuple_getter([left_schema.index(a) for a in op.left_keys]),
        tuple_getter([right_schema.index(a) for a in op.right_keys]),
    )


def _compile_attribute_getter(op: ProjectOp | ReorderOp):
    return tuple_getter([op.child.schema.index(a) for a in op.attributes])


def _compile_extend_index(op: ExtendOp) -> int:
    return op.child.schema.index(op.source)


def _compile_group_accessors(op: GroupAggOp) -> tuple:
    child_schema = op.child.schema
    group_indices = [child_schema.index(a) for a in op.groupby]
    agg_indices = tuple(
        None if spec.attribute is None else child_schema.index(spec.attribute)
        for spec in op.aggregations
    )
    return tuple_getter(group_indices), agg_indices


# -- the walk -----------------------------------------------------------------


class _PlanWalk:
    """Evaluates a plan to a list of ``(values, annotation)`` pairs over
    an annotation domain (symbolic or concrete).

    ``cache`` memoises the compiled per-operator accessors on operator
    identity (the :class:`PreparedQuery` keeps the plan alive); it is the
    prepared query's, shared across executions and across both domains,
    so the per-world engines compile each operator once.  Child row
    lists may be shared with a table's scan cache: no operator mutates
    its input.
    """

    def __init__(self, domain, cache: dict):
        self.domain = domain
        self.cache = cache

    def rows(self, op: PhysicalOp) -> list:
        return self._DISPATCH[type(op)](self, op)

    def _compiled(self, op: PhysicalOp, compile_op):
        key = id(op)
        entry = self.cache.get(key)
        if entry is None:
            entry = self.cache[key] = compile_op(op)
        return entry

    def _scan(self, op: Scan) -> list:
        return self.domain.scan(op.name)

    def _empty(self, op: EmptyResult) -> list:
        return []

    def _filter(self, op: Filter) -> list:
        atoms = self._compiled(op, _compile_atoms)
        domain = self.domain
        mul, is_zero, condition = domain.mul, domain.is_zero, domain.condition
        result = []
        for values, annotation in self.rows(op.child):
            for left_index, left_const, cmp_op, right_index, right_const in atoms:
                left = values[left_index] if left_index is not None else left_const
                right = values[right_index] if right_index is not None else right_const
                if isinstance(left, ModuleExpr) or isinstance(right, ModuleExpr):
                    annotation = mul(annotation, condition(left, cmp_op, right))
                    if is_zero(annotation):
                        break  # a 0-annotated tuple is not in the relation
                elif not cmp_op(left, right):
                    break
            else:
                result.append((values, annotation))
        return result

    def _hash_join(self, op: HashJoin) -> list:
        left_key, right_key = self._compiled(op, _compile_join_keys)
        if isinstance(op.right, Scan):
            # Base-table build side: reuse the table's cached hash index.
            buckets = self.domain.index(op.right.name, op.right_keys)
        else:
            buckets = {}
            for row in self.rows(op.right):
                key = right_key(row[0])
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = bucket = []
                bucket.append(row)
        mul = self.domain.mul
        result = []
        empty = ()
        for values, annotation in self.rows(op.left):
            for right_values, right_annotation in buckets.get(
                left_key(values), empty
            ):
                result.append(
                    (values + right_values, mul(annotation, right_annotation))
                )
        return result

    def _product(self, op: NestedLoopProduct) -> list:
        right_rows = self.rows(op.right)
        mul, is_zero = self.domain.mul, self.domain.is_zero
        result = []
        for values, annotation in self.rows(op.left):
            if is_zero(annotation):
                continue
            for right_values, right_annotation in right_rows:
                result.append(
                    (values + right_values, mul(annotation, right_annotation))
                )
        return result

    def _project(self, op: ProjectOp) -> list:
        getter = self._compiled(op, _compile_attribute_getter)
        return self.domain.merge(
            (getter(values), annotation)
            for values, annotation in self.rows(op.child)
        )

    def _reorder(self, op: ReorderOp) -> list:
        getter = self._compiled(op, _compile_attribute_getter)
        return [
            (getter(values), annotation)
            for values, annotation in self.rows(op.child)
        ]

    def _extend(self, op: ExtendOp) -> list:
        index = self._compiled(op, _compile_extend_index)
        return [
            (values + (values[index],), annotation)
            for values, annotation in self.rows(op.child)
        ]

    def _union(self, op: UnionOp) -> list:
        return self.domain.merge(self.rows(op.left) + self.rows(op.right))

    def _group_agg(self, op: GroupAggOp) -> list:
        group_key, agg_indices = self._compiled(op, _compile_group_accessors)
        is_zero = self.domain.is_zero
        groups: dict[tuple, list] = {}
        for row in self.rows(op.child):
            if is_zero(row[1]):
                continue
            key = group_key(row[0])
            group = groups.get(key)
            if group is None:
                groups[key] = group = []
            group.append(row)
        if not op.groupby and not groups:
            groups[()] = []  # $∅ always yields one tuple (Figure 4).
        group_row = self.domain.group_row
        return [
            group_row(op, agg_indices, key, members)
            for key, members in groups.items()
        ]

    _DISPATCH = {
        Scan: _scan,
        EmptyResult: _empty,
        Filter: _filter,
        HashJoin: _hash_join,
        NestedLoopProduct: _product,
        ProjectOp: _project,
        ReorderOp: _reorder,
        ExtendOp: _extend,
        UnionOp: _union,
        GroupAggOp: _group_agg,
    }
