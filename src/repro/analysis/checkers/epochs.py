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
``self._tuples`` / ``self._distributions``) and bumps *after*.  A bump
that lexically precedes a storage mutation of the same function opens a
window in which a reader pairs the new epoch with the old content and
keeps that pair for good.

``__init__``-family methods are exempt (they populate storage before
any cache exists), as are ``*_locked`` helpers whose callers own the
bump, matching the lock checker's conventions.  Classes without cache
attributes owe only the order — a plain row container that keeps no
epoch owes nobody anything.
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
EPOCH_STAMPED_ATTRS = ROW_STORAGE_ATTRS | {"_distributions"}

#: ``self.<name>(...)`` calls that count as an epoch bump.
EPOCH_BUMP_CALLS = frozenset({"invalidate_caches", "bump_epoch"})

#: The epoch counter attribute; any write to it counts as a bump.
EPOCH_ATTR = "_version"

#: The maintained-facts entry, stamped with the epoch like a cache.
FACTS_ATTR = "_facts"

#: ``<facts>.<name>(...)`` calls that adjust the facts for a row.
FACTS_MAINTAIN_CALLS = frozenset({"count_row"})

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


class CacheEpochChecker(BaseChecker):
    """Row-storage mutations in cache-bearing classes must bump the epoch,
    and may re-stamp maintained facts only after adjusting them; wherever
    an epoch is bumped, it is bumped after the change it stands for."""

    name = "epochs"
    rules = ("cache-epoch",)

    def check_module(
        self, module: SourceModule, context: AnalysisContext
    ) -> Iterator[Finding]:
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
