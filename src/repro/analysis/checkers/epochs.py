"""Cache-epoch discipline checker.

The mutable-table work keys every memoised view (row scans, hash
indexes, columnar layouts, bound plans) on a per-object **epoch**
counter instead of the row count — an equal-size in-place update changes
no ``len()`` and would serve stale caches forever.  The discipline is
structural and therefore statically checkable:

``cache-epoch``
    A method of a *cache-bearing* class (one that stores memoised state
    in ``*_cache`` attributes) mutates its row storage (``self.rows`` /
    ``self._tuples`` — rebinding, item store/delete, or a mutating
    method such as ``.append`` / ``.pop`` / ``.clear``) without bumping
    the epoch in the same function: no ``self._version`` write and no
    ``self.invalidate_caches()`` / ``self.bump_epoch()`` call.

A class that also keeps *maintained facts* (a ``self._facts`` entry
stamped with the epoch, which mutators adjust instead of dropping) owes
one thing more: a method that mutates row storage and re-stamps the
facts (assigns ``self._facts`` anything but ``None``) must maintain them
in the same function — a ``.count_row(...)`` call.  Leaving the stamp
stale is always allowed (readers reject it and recount); re-stamping
unmaintained facts would serve them as current.

The epoch is also owed *in order*, in every class that keeps one —
cache-bearing or not (``VariableRegistry`` stamps other objects' caches,
not its own): readers stamp what they build with the epoch they read
*first*, so a mutator changes its storage (``self.rows`` /
``self._tuples`` / ``self._distributions`` and the registry's record of
what was reassigned, ``self._reassigned``) and bumps *after*.  A bump
that lexically precedes a storage mutation of the same function opens a
window in which a reader pairs the new epoch with the old content and
keeps that pair for good — or, for the reassignment record, reconciles
at the new epoch without the name it stands for and never looks again.

``__init__``-family methods are exempt (they populate storage before
any cache exists), as are ``*_locked`` helpers whose callers own the
bump, matching the lock checker's conventions.  Classes without cache
attributes owe only the order — a plain row container that keeps no
epoch owes nobody anything.

``cache-stamp``
    The reading side: whether something kept is still valid is decided
    in :mod:`repro.cache` alone.  Anywhere else, comparing something
    *stored* (a subscript ``record[2]``, an attribute ``entry.stamp``)
    with something *freshly read* (an expression mentioning a
    ``STAMP_READS`` name, or a name the module assigns one to) decides
    reuse by hand.  Two fresh captures compared whole keep nothing
    (``enumerate_database_worlds``' guard); the per-object records
    compare ``self._version``, which is neither.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.registry import EXEMPT_METHODS, LOCKED_SUFFIX
from repro.analysis.runner import AnalysisContext, BaseChecker
from repro.analysis.source import SourceModule

__all__ = [
    "CacheEpochChecker",
    "ROW_STORAGE_ATTRS",
    "EPOCH_STAMPED_ATTRS",
    "EPOCH_BUMP_CALLS",
    "FACTS_ATTR",
    "FACTS_MAINTAIN_CALLS",
]

#: Attributes holding the row storage the memoised views derive from.
ROW_STORAGE_ATTRS = frozenset({"rows", "_tuples"})

#: Storage an epoch stands for without the class memoising views of it
#: itself; covered by the assign-then-bump order only.
EPOCH_STAMPED_ATTRS = ROW_STORAGE_ATTRS | {"_distributions", "_reassigned"}

#: ``self.<name>(...)`` calls that count as an epoch bump.
EPOCH_BUMP_CALLS = frozenset({"invalidate_caches", "bump_epoch"})

#: The epoch counter attribute; any write to it counts as a bump.
EPOCH_ATTR = "_version"

#: The maintained-facts entry, stamped with the epoch like a cache.
FACTS_ATTR = "_facts"

#: ``<facts>.<name>(...)`` calls that adjust the facts for a row.
FACTS_MAINTAIN_CALLS = frozenset({"count_row"})

#: The one module allowed to compare a stored stamp with a fresh one.
STAMP_HOME = "repro/cache.py"

#: Names whose mention makes an expression a freshly read stamp.
STAMP_READS = frozenset({
    "epoch", "table_epochs", "capture_stamp", "stamp", "epochs",
})

#: Method names treated as mutations of the receiver (superset of the
#: lock checker's list: sort/reverse reorder rows, which invalidates
#: positional caches just as surely as growth does).
_MUTATING_METHODS = frozenset({
    "append",
    "extend",
    "insert",
    "remove",
    "pop",
    "popitem",
    "clear",
    "update",
    "setdefault",
    "add",
    "discard",
    "sort",
    "reverse",
    "appendleft",
    "popleft",
    "move_to_end",
})

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _self_attribute(node: ast.expr) -> str | None:
    """``name`` when ``node`` is ``self.<name>`` (unwrapping subscripts)."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _assign_targets(node: ast.Assign | ast.AnnAssign | ast.AugAssign) -> list:
    return node.targets if isinstance(node, ast.Assign) else [node.target]


def _class_cache_attrs(cls: ast.ClassDef) -> set[str]:
    """The ``*_cache`` attributes a class assigns on ``self`` anywhere."""
    caches: set[str] = set()
    for node in ast.walk(cls):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = _assign_targets(node)
            for target in targets:
                attr = _self_attribute(target)
                if attr is not None and attr.endswith("_cache"):
                    caches.add(attr)
    return caches


def _row_mutations(
    fn: ast.AST, storage: frozenset = ROW_STORAGE_ATTRS
) -> Iterator[tuple[ast.AST, str, str]]:
    """Yield ``(node, attr, how)`` for each mutation of ``storage`` in ``fn``."""
    for node in ast.walk(fn):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = _assign_targets(node)
            for target in targets:
                attr = _self_attribute(target)
                if attr in storage:
                    yield node, attr, "assigns"
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                attr = _self_attribute(target)
                if attr in storage:
                    yield node, attr, "deletes from"
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATING_METHODS
            ):
                attr = _self_attribute(func.value)
                if attr in storage:
                    yield node, attr, f"calls .{func.attr}() on"


def _epoch_bumps(fn: ast.AST) -> Iterator[ast.AST]:
    """The ``self._version`` writes and bump-helper calls of ``fn``."""
    for node in ast.walk(fn):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = _assign_targets(node)
            for target in targets:
                if _self_attribute(target) == EPOCH_ATTR:
                    yield node
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in EPOCH_BUMP_CALLS
                and isinstance(func.value, ast.Name)
                and func.value.id == "self"
            ):
                yield node


def _facts_restamps(fn: ast.AST) -> Iterator[ast.AST]:
    """Assignments of anything but ``None`` to ``self._facts`` in ``fn``."""
    for node in ast.walk(fn):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = _assign_targets(node)
            value = node.value
            if isinstance(value, ast.Constant) and value.value is None:
                continue
            for target in targets:
                if _self_attribute(target) == FACTS_ATTR:
                    yield node


def _maintains_facts(fn: ast.AST) -> bool:
    return any(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in FACTS_MAINTAIN_CALLS
        for node in ast.walk(fn)
    )


def _reads_stamp(node: ast.AST, fresh: set) -> bool:
    """Whether ``node`` mentions a ``fresh`` attribute or bare name."""
    return any(
        getattr(child, "attr", getattr(child, "id", None)) in fresh
        for child in ast.walk(node)
    )


def _is_stored(node: ast.expr) -> bool:
    """A subscript, or an attribute that is not itself a counter."""
    if isinstance(node, ast.Attribute):
        return node.attr not in ("epoch", EPOCH_ATTR)
    return isinstance(node, ast.Subscript)


class CacheEpochChecker(BaseChecker):
    """Row-storage mutations in cache-bearing classes must bump the epoch,
    and may re-stamp maintained facts only after adjusting them; wherever
    an epoch is bumped, it is bumped after the change it stands for; a
    kept stamp meets a fresh one only in ``repro/cache.py``."""

    name = "epochs"
    rules = ("cache-epoch", "cache-stamp")

    def check_module(
        self, module: SourceModule, context: AnalysisContext
    ) -> Iterator[Finding]:
        if not module.path.replace("\\", "/").endswith(STAMP_HOME):
            yield from self._check_stamp_compares(module)
        for statement in module.tree.body:
            if not isinstance(statement, ast.ClassDef):
                continue
            caches = _class_cache_attrs(statement)
            for item in statement.body:
                if not isinstance(item, _FUNCTION_NODES):
                    continue
                if item.name in EXEMPT_METHODS or item.name.endswith(
                    LOCKED_SUFFIX
                ):
                    continue
                yield from self._check_order(module, statement, item)
                if caches:
                    yield from self._check_bumped(
                        module, statement, item, caches
                    )

    def _check_stamp_compares(self, module) -> Iterator[Finding]:
        """No stored-against-fresh comparison outside ``STAMP_HOME``."""
        nodes = list(ast.walk(module.tree))
        fresh = set(STAMP_READS)
        for node in nodes:
            if isinstance(node, ast.Assign) and _reads_stamp(node.value, fresh):
                fresh.update(t.id for t in node.targets if isinstance(t, ast.Name))
        for node in nodes:
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            stored = [o for o in operands if _is_stored(o)]
            if stored and any(o not in stored and _reads_stamp(o, fresh) for o in operands):
                yield Finding(
                    file=module.path,
                    line=node.lineno,
                    rule_id="cache-stamp",
                    severity="error",
                    message=(
                        f"the stored '{ast.unparse(stored[0])}' is compared with a "
                        f"freshly read epoch: reuse is decided once, in {STAMP_HOME} "
                        f"— capture_stamp(...) before the read, then StampedSlot.get / .offer"
                    ),
                )

    def _check_order(self, module, cls, fn) -> Iterator[Finding]:
        """Assign, then bump: no epoch bump before a storage mutation."""
        bumps = [node.lineno for node in _epoch_bumps(fn)]
        if not bumps:
            return
        first_bump = min(bumps)
        for node, attr, how in _row_mutations(fn, EPOCH_STAMPED_ATTRS):
            if node.lineno > first_bump:
                yield Finding(
                    file=module.path,
                    line=node.lineno,
                    rule_id="cache-epoch",
                    severity="error",
                    message=(
                        f"{cls.name}.{fn.name} {how} self.{attr} after "
                        f"bumping the epoch (line {first_bump}): a reader "
                        f"in between stamps the old content with the new "
                        f"epoch and keeps it; change the storage first, "
                        f"bump self.{EPOCH_ATTR} after"
                    ),
                )

    def _check_bumped(self, module, cls, fn, caches) -> Iterator[Finding]:
        mutations = list(_row_mutations(fn))
        if not mutations:
            return
        if any(_epoch_bumps(fn)):
            if not _maintains_facts(fn):
                for node in _facts_restamps(fn):
                    yield Finding(
                        file=module.path,
                        line=node.lineno,
                        rule_id="cache-epoch",
                        severity="error",
                        message=(
                            f"{cls.name}.{fn.name} mutates "
                            f"self.{mutations[0][1]} and re-stamps "
                            f"self.{FACTS_ATTR} without maintaining "
                            f"the facts: readers will take them as "
                            f"current; adjust them with "
                            f"{sorted(FACTS_MAINTAIN_CALLS)} for the "
                            f"rows that changed, or leave the stamp "
                            f"stale"
                        ),
                    )
            return
        for node, attr, how in mutations:
            yield Finding(
                file=module.path,
                line=getattr(node, "lineno", fn.lineno),
                rule_id="cache-epoch",
                severity="error",
                message=(
                    f"{cls.name}.{fn.name} {how} "
                    f"self.{attr} but never bumps the epoch: the "
                    f"memoised {sorted(caches)} views key on "
                    f"self.{EPOCH_ATTR} and will serve stale data; "
                    f"add 'self.{EPOCH_ATTR} += 1' or call "
                    f"self.invalidate_caches()"
                ),
            )
