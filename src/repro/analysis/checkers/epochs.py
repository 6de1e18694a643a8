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

``__init__``-family methods are exempt (they populate storage before
any cache exists), as are ``*_locked`` helpers whose callers own the
bump, matching the lock checker's conventions.  Classes without cache
attributes are ignored entirely — plain row containers owe nobody an
epoch.
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
    "EPOCH_BUMP_CALLS",
    "FACTS_ATTR",
    "FACTS_MAINTAIN_CALLS",
]

#: Attributes holding the row storage the memoised views derive from.
ROW_STORAGE_ATTRS = frozenset({"rows", "_tuples"})

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


def _row_mutations(fn: ast.AST) -> Iterator[tuple[ast.AST, str, str]]:
    """Yield ``(node, attr, how)`` for each row-storage mutation in ``fn``."""
    for node in ast.walk(fn):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = _assign_targets(node)
            for target in targets:
                attr = _self_attribute(target)
                if attr in ROW_STORAGE_ATTRS:
                    yield node, attr, "assigns"
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                attr = _self_attribute(target)
                if attr in ROW_STORAGE_ATTRS:
                    yield node, attr, "deletes from"
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATING_METHODS
            ):
                attr = _self_attribute(func.value)
                if attr in ROW_STORAGE_ATTRS:
                    yield node, attr, f"calls .{func.attr}() on"


def _bumps_epoch(fn: ast.AST) -> bool:
    """Whether ``fn`` writes ``self._version`` or calls a bump helper."""
    for node in ast.walk(fn):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = _assign_targets(node)
            for target in targets:
                if _self_attribute(target) == EPOCH_ATTR:
                    return True
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in EPOCH_BUMP_CALLS
                and isinstance(func.value, ast.Name)
                and func.value.id == "self"
            ):
                return True
    return False


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
    and may re-stamp maintained facts only after adjusting them."""

    name = "epochs"
    rules = ("cache-epoch",)

    def check_module(
        self, module: SourceModule, context: AnalysisContext
    ) -> Iterator[Finding]:
        for statement in module.tree.body:
            if not isinstance(statement, ast.ClassDef):
                continue
            caches = _class_cache_attrs(statement)
            if not caches:
                continue
            for item in statement.body:
                if not isinstance(item, _FUNCTION_NODES):
                    continue
                if item.name in EXEMPT_METHODS or item.name.endswith(
                    LOCKED_SUFFIX
                ):
                    continue
                mutations = list(_row_mutations(item))
                if not mutations:
                    continue
                if _bumps_epoch(item):
                    if not _maintains_facts(item):
                        for node in _facts_restamps(item):
                            yield Finding(
                                file=module.path,
                                line=node.lineno,
                                rule_id="cache-epoch",
                                severity="error",
                                message=(
                                    f"{statement.name}.{item.name} mutates "
                                    f"self.{mutations[0][1]} and re-stamps "
                                    f"self.{FACTS_ATTR} without maintaining "
                                    f"the facts: readers will take them as "
                                    f"current; adjust them with "
                                    f"{sorted(FACTS_MAINTAIN_CALLS)} for the "
                                    f"rows that changed, or leave the stamp "
                                    f"stale"
                                ),
                            )
                    continue
                for node, attr, how in mutations:
                    yield Finding(
                        file=module.path,
                        line=getattr(node, "lineno", item.lineno),
                        rule_id="cache-epoch",
                        severity="error",
                        message=(
                            f"{statement.name}.{item.name} {how} "
                            f"self.{attr} but never bumps the epoch: the "
                            f"memoised {sorted(caches)} views key on "
                            f"self.{EPOCH_ATTR} and will serve stale data; "
                            f"add 'self.{EPOCH_ATTR} += 1' or call "
                            f"self.invalidate_caches()"
                        ),
                    )
