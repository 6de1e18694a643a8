"""Epoch-order checker.

Every memoised view of mutable state (a table's scan/index record and
facts, a compiled distribution against the registry, a kept step-I
answer or reply) is stamped with an **epoch** the reader takes *first*,
before it reads what the epoch stands for.  That is sound only if every
writer changes the storage first and bumps the epoch *after*:

``cache-epoch``
    In any class that keeps an epoch (``self._version``), a method that
    bumps it — a ``self._version`` write, or a ``self.invalidate_caches()``
    / ``self.bump_epoch()`` call — must not mutate the storage the epoch
    stands for (``self.rows`` / ``self._tuples`` / ``self._distributions``
    and the registry's record of what was reassigned, ``self._reassigned``:
    rebinding, item store/delete, or a mutating method such as
    ``.append`` / ``.pop`` / ``.move_to_end``) lexically after the bump.
    A bump that precedes the mutation opens a window in which a reader
    pairs the new epoch with the old content and keeps that pair for
    good — or, for the reassignment record, reconciles at the new epoch
    without the name it stands for and never looks again.

No tier-1 test stands in for this rule: moving the bump above the row
change in ``PVCTable.add`` or ``PVCTable.update_rows`` passes the whole
suite (EXPERIMENTS.md, "Third verdict round: the analysis suite").
``__init__``-family methods are exempt (they populate storage before
any reader exists), as are ``*_locked`` helpers whose callers own the
bump, matching the lock checker's conventions.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.registry import EXEMPT_METHODS, LOCKED_SUFFIX
from repro.analysis.source import SourceModule

__all__ = ["CacheEpochChecker", "EPOCH_STAMPED_ATTRS", "EPOCH_BUMP_CALLS"]

#: The storage an epoch stands for.
EPOCH_STAMPED_ATTRS = frozenset({"rows", "_tuples", "_distributions", "_reassigned"})

#: ``self.<name>(...)`` calls that count as an epoch bump.
EPOCH_BUMP_CALLS = frozenset({"invalidate_caches", "bump_epoch"})

#: The epoch counter attribute; any write to it counts as a bump.
EPOCH_ATTR = "_version"

#: Method names treated as mutations of the receiver.
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


def _storage_mutations(fn: ast.AST) -> Iterator[tuple[ast.AST, str, str]]:
    """Yield ``(node, attr, how)`` for each mutation of epoch-stamped
    storage in ``fn``."""
    for node in ast.walk(fn):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            for target in _assign_targets(node):
                attr = _self_attribute(target)
                if attr in EPOCH_STAMPED_ATTRS:
                    yield node, attr, "assigns"
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                attr = _self_attribute(target)
                if attr in EPOCH_STAMPED_ATTRS:
                    yield node, attr, "deletes from"
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATING_METHODS
            ):
                attr = _self_attribute(func.value)
                if attr in EPOCH_STAMPED_ATTRS:
                    yield node, attr, f"calls .{func.attr}() on"


def _epoch_bumps(fn: ast.AST) -> Iterator[ast.AST]:
    """The ``self._version`` writes and bump-helper calls of ``fn``."""
    for node in ast.walk(fn):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            for target in _assign_targets(node):
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


class CacheEpochChecker:
    """Wherever an epoch is bumped, it is bumped after the change it
    stands for."""

    name = "epochs"
    rules = ("cache-epoch",)

    def check_module(self, module: SourceModule) -> Iterator[Finding]:
        for statement in module.tree.body:
            if not isinstance(statement, ast.ClassDef):
                continue
            for item in statement.body:
                if not isinstance(item, _FUNCTION_NODES):
                    continue
                if item.name in EXEMPT_METHODS or item.name.endswith(
                    LOCKED_SUFFIX
                ):
                    continue
                yield from self._check_order(module, statement, item)

    def _check_order(
        self,
        module: SourceModule,
        cls: ast.ClassDef,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> Iterator[Finding]:
        """Assign, then bump: no epoch bump before a storage mutation."""
        bumps = [node.lineno for node in _epoch_bumps(fn)]
        if not bumps:
            return
        first_bump = min(bumps)
        for node, attr, how in _storage_mutations(fn):
            if node.lineno > first_bump:
                yield Finding(
                    file=module.path,
                    line=node.lineno,
                    rule_id="cache-epoch",
                    message=(
                        f"{cls.name}.{fn.name} {how} self.{attr} after "
                        f"bumping the epoch (line {first_bump}): a reader "
                        f"in between stamps the old content with the new "
                        f"epoch and keeps it; change the storage first, "
                        f"bump self.{EPOCH_ATTR} after"
                    ),
                )
