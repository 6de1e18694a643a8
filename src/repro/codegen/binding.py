"""Bind a compiled plan to a pvc-database: the per-world fast path.

A :class:`BoundPlan` hoists every piece of world-invariant work out of
the per-world loop the naive oracle and the Monte-Carlo fallback run:

* **deterministic tables** (no random variables) are instantiated once;
  their tuple mappings, hash indexes, and any *subplan* touching only
  deterministic tables are evaluated once — by the interpreter, the
  conformance oracle — and injected into the kernel's statics mapping,
  so the kernel skips those blocks entirely on every world;
* **uncertain tables** are lowered to a columnar layout: the raw rows
  once, and each *distinct* annotation expression compiled once to a
  closure over a coerced valuation vector (annotation-level CSE — the
  interpreter re-evaluates the annotation per row per world);
* an all-``Var``-annotated Boolean table becomes a single
  fancy-indexing gather per world (``presence[slots]``), list-ified back
  to Python bools so results stay bit-identical.

``run_assignment`` (a ``{variable: value}`` assignment — one enumerated
world of the naive oracle, one sampled world of Monte-Carlo's fallback
loop) then evaluates one world as ``instantiate dynamic tables → run
kernel``, replicating ``PVCTable.instantiate`` and ``Relation.add``
merge semantics exactly.
"""

from __future__ import annotations

import numpy as _np

from repro.algebra.conditions import Compare
from repro.algebra.expressions import Prod, SConst, Sum, Var
from repro.algebra.semimodule import AggSum, MConst, ModuleExpr, Tensor
from repro.algebra.valuation import Valuation
from repro.codegen.runtime import CodegenUnsupported

__all__ = ["BoundPlan", "compile_annotation"]


def compile_annotation(expr, slots: dict, semiring):
    """Compile an annotation expression to a closure over a valuation
    vector (``vals[slots[name]]`` is the *coerced* value of ``name``).

    Replicates :func:`repro.algebra.valuation.evaluate` case by case —
    including the ``Prod`` zero short-circuit — so values and error
    behavior are identical.  Raises :class:`CodegenUnsupported` for
    expression types the interpreter would also reject (or that we do
    not compile), letting callers fall back wholesale.
    """
    if isinstance(expr, Var):
        try:
            slot = slots[expr.name]
        except KeyError:
            raise CodegenUnsupported(
                f"variable {expr.name!r} is not covered by the bound "
                f"valuation order"
            ) from None

        def fn(vals, _slot=slot):
            return vals[_slot]

        return fn
    if isinstance(expr, SConst):
        constant = semiring.coerce(expr.value)
        return lambda vals: constant
    if isinstance(expr, Sum):
        parts = tuple(
            compile_annotation(child, slots, semiring) for child in expr.children
        )

        def fn(vals, _parts=parts, _add=semiring.add, _zero=semiring.zero):
            result = _zero
            for part in _parts:
                result = _add(result, part(vals))
            return result

        return fn
    if isinstance(expr, Prod):
        parts = tuple(
            compile_annotation(child, slots, semiring) for child in expr.children
        )

        def fn(
            vals,
            _parts=parts,
            _mul=semiring.mul,
            _one=semiring.one,
            _zero=semiring.zero,
        ):
            result = _one
            for part in _parts:
                result = _mul(result, part(vals))
                if result == _zero:
                    return result
            return result

        return fn
    if isinstance(expr, Compare):
        left = compile_annotation(expr.left, slots, semiring)
        right = compile_annotation(expr.right, slots, semiring)

        def fn(
            vals,
            _left=left,
            _right=right,
            _op=expr.op,
            _cond=semiring.from_condition,
        ):
            return _cond(_op(_left(vals), _right(vals)))

        return fn
    if isinstance(expr, MConst):
        value = expr.value
        return lambda vals: value
    if isinstance(expr, Tensor):
        phi = compile_annotation(expr.phi, slots, semiring)
        arg = compile_annotation(expr.arg, slots, semiring)

        def fn(
            vals, _phi=phi, _arg=arg, _act=expr.monoid.act, _sr=semiring
        ):
            return _act(_phi(vals), _arg(vals), _sr)

        return fn
    if isinstance(expr, AggSum):
        parts = tuple(
            compile_annotation(child, slots, semiring) for child in expr.children
        )

        def fn(
            vals,
            _parts=parts,
            _add=expr.monoid.add,
            _zero=expr.monoid.zero,
        ):
            result = _zero
            for part in _parts:
                result = _add(result, part(vals))
            return result

        return fn
    raise CodegenUnsupported(
        f"cannot compile annotation of type {type(expr).__name__}"
    )


class BoundPlan:
    """A compiled plan with all world-invariant work pre-evaluated."""

    def __init__(self, compiled, db, names):
        semiring = compiled.semiring
        if db.semiring != semiring:
            raise CodegenUnsupported(
                f"plan compiled for semiring {semiring.name!r} cannot bind "
                f"a {db.semiring.name!r} database"
            )
        self._compiled = compiled
        self._semiring = semiring
        self._zero = semiring.zero
        self._add = semiring.add
        self._names = list(names)
        self._slots = {name: i for i, name in enumerate(self._names)}

        tables = {}
        for name in compiled.scan_names:
            table = db.tables.get(name)
            if table is None:
                raise CodegenUnsupported(
                    f"database has no table named {name!r}"
                )
            tables[name] = table
        static_names = {
            name for name, table in tables.items() if not table.variables
        }

        # World-invariant statics: deterministic tables instantiated once,
        # their hash indexes built once, and every block whose subplan
        # touches only deterministic tables evaluated once (by the
        # interpreter — the oracle defines the hoisted values).
        statics: dict = {}
        static_world = {}
        if static_names:
            empty = Valuation({}, semiring)
            for name in static_names:
                relation = tables[name].instantiate(empty, semiring)
                static_world[name] = relation
                statics[f"t:{name}"] = relation._tuples
            for key, name, attributes, _indices in compiled.index_sites:
                if name in static_names:
                    statics[key] = static_world[name].hash_index(attributes)
            from repro.query.executor import execute_rows

            op_cache: dict = {}
            for key, kind, op, extra in compiled.block_sites:
                if not set(compiled.block_scans[key]) <= static_names:
                    continue
                rows = execute_rows(op, static_world, semiring, op_cache)
                if kind == "dict":
                    statics[key] = dict(rows)
                elif kind == "list":
                    statics[key] = rows
                elif kind == "index":
                    buckets: dict = {}
                    for row in rows:
                        bucket_key = tuple(row[0][i] for i in extra)
                        bucket = buckets.get(bucket_key)
                        if bucket is None:
                            buckets[bucket_key] = bucket = []
                        bucket.append(row)
                    statics[key] = buckets
        self._statics = statics

        # Columnar layout + compiled annotations for the uncertain tables.
        ann_fns: list = []
        ann_slots: dict = {}
        dynamic = []
        for name in compiled.scan_names:
            if name in static_names:
                continue
            table = tables[name]
            raw_rows = table.rows
            annotations = [row.annotation for row in raw_rows]
            fast = None
            if semiring.is_boolean and all(
                isinstance(annotation, Var) for annotation in annotations
            ):
                module_free = all(
                    not any(
                        isinstance(value, ModuleExpr) for value in row.values
                    )
                    for row in raw_rows
                )
                if module_free:
                    fast = (
                        [tuple(row.values) for row in raw_rows],
                        _np.array(
                            [
                                self._slots[annotation.name]
                                for annotation in annotations
                            ],
                            dtype=_np.intp,
                        )
                        if raw_rows
                        else _np.array([], dtype=_np.intp),
                    )
            if fast is not None:
                dynamic.append((name, None, fast))
                continue
            rows = []
            for row, annotation in zip(raw_rows, annotations):
                try:
                    index = ann_slots.get(annotation)
                except TypeError:
                    index = None
                if index is None:
                    index = len(ann_fns)
                    ann_fns.append(
                        compile_annotation(annotation, self._slots, semiring)
                    )
                    try:
                        ann_slots[annotation] = index
                    except TypeError:
                        pass
                modules = tuple(
                    (position, compile_annotation(value, self._slots, semiring))
                    for position, value in enumerate(row.values)
                    if isinstance(value, ModuleExpr)
                ) or None
                rows.append((tuple(row.values), index, modules))
            dynamic.append((name, rows, None))
        self._ann_fns = tuple(ann_fns)
        self._dynamic = tuple(dynamic)
        self._nvars = len(self._names)

    @property
    def statics(self) -> dict:
        return self._statics

    def run_values(self, vals, trace=None, check_deadline=None) -> dict:
        """Evaluate one world given the coerced valuation vector."""
        ann = [fn(vals) for fn in self._ann_fns]
        zero = self._zero
        add = self._add
        world = {}
        presence = None
        for name, rows, fast in self._dynamic:
            mapping: dict = {}
            if fast is not None:
                values_list, slot_array = fast
                if presence is None:
                    presence = _np.fromiter(
                        vals, dtype=_np.bool_, count=self._nvars
                    )
                for values, present in zip(
                    values_list, presence[slot_array].tolist()
                ):
                    if present:
                        # Boolean merge: True ∨ anything is True.
                        mapping[values] = True
            else:
                for values, index, modules in rows:
                    multiplicity = ann[index]
                    if multiplicity == zero:
                        continue
                    if modules is not None:
                        buffer = list(values)
                        for position, fn in modules:
                            buffer[position] = fn(vals)
                        values = tuple(buffer)
                    # Relation.add merge semantics, verbatim.
                    combined = add(mapping.get(values, zero), multiplicity)
                    if combined == zero:
                        mapping.pop(values, None)
                    else:
                        mapping[values] = combined
            world[name] = mapping
        return self._compiled.fn(world, self._statics, trace, check_deadline)

    def run_assignment(self, assignment, trace=None, check_deadline=None) -> dict:
        """Evaluate the world of a ``{variable: raw value}`` assignment."""
        coerce = self._semiring.coerce
        vals = [coerce(assignment[name]) for name in self._names]
        return self.run_values(vals, trace, check_deadline)
