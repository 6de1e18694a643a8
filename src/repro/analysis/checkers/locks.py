"""Lock-discipline / race checker.

Consumes the ``_shared_state_`` declarations (:mod:`repro.analysis.registry`)
and enforces three rules over every declaring class or module:

``race-unguarded-write``
    A declared field is mutated (assignment, augmented assignment,
    ``del``, subscript store, or a mutating method such as ``.append`` /
    ``.pop`` / ``.clear``) outside a ``with <owning lock>:`` block.
    ``__init__``-family methods and ``*_locked`` helpers are exempt —
    the former run before the object is shared, the latter assert the
    caller holds the lock.

``race-await-under-lock``
    An ``async`` function awaits while holding a declared lock.
    Declared locks are *threading* locks; awaiting under one parks the
    whole event loop behind a lock that another executor thread may
    hold for milliseconds.

``race-unlocked-helper-call``
    A ``*_locked`` helper is invoked with no declared lock held,
    breaking the caller-holds-lock contract its suffix advertises.

The checker is intentionally flow-insensitive about *which* lock a
``*_locked`` helper needs (the suffix names a contract, not a lock);
everything else is matched exactly against the declaration.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.findings import Finding
from repro.analysis.registry import (
    EXEMPT_METHODS,
    LOCKED_SUFFIX,
    SharedStateDecl,
    collect_declarations,
)
from repro.analysis.source import SourceModule

__all__ = ["LockDisciplineChecker", "MUTATING_METHODS"]

#: Method names treated as mutations of the receiver.
MUTATING_METHODS = frozenset(
    {
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
        "appendleft",
        "popleft",
    }
)

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _field_of(node: ast.expr, decl: SharedStateDecl, on_self: bool) -> str | None:
    """The declared field ``node`` refers to, if any."""
    if on_self:
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and node.attr in decl.guards
        ):
            return node.attr
    else:
        if isinstance(node, ast.Name) and node.id in decl.guards:
            return node.id
    return None


def _acquired_locks(
    node: ast.With | ast.AsyncWith, decl: SharedStateDecl, on_self: bool
) -> set[str]:
    acquired: set[str] = set()
    for item in node.items:
        expr = item.context_expr
        if on_self and isinstance(expr, ast.Attribute):
            if (
                isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
                and expr.attr in decl.locks
            ):
                acquired.add(expr.attr)
        elif not on_self and isinstance(expr, ast.Name):
            if expr.id in decl.locks:
                acquired.add(expr.id)
    return acquired


class _FunctionAuditor:
    """Walks one function body tracking the set of held declared locks."""

    def __init__(
        self,
        module: SourceModule,
        decl: SharedStateDecl,
        on_self: bool,
        assume_held: bool,
        is_async: bool,
    ):
        self.module = module
        self.decl = decl
        self.on_self = on_self
        self.assume_held = assume_held
        self.is_async = is_async
        self.findings: list[Finding] = []

    def _finding(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(
            Finding(
                file=self.module.path,
                line=getattr(node, "lineno", 1),
                rule_id=rule,
                message=message,
            )
        )

    def _owner_desc(self) -> str:
        return self.decl.owner or "module"

    def _check_write(self, target: ast.expr, node: ast.AST, held: set) -> None:
        base = target
        while isinstance(base, ast.Subscript):
            base = base.value
        field = _field_of(base, self.decl, self.on_self)
        if field is None:
            return
        required = self.decl.guards[field]
        if self.assume_held or required in held:
            return
        self._finding(
            node,
            "race-unguarded-write",
            f"{self._owner_desc()} field {field!r} is declared guarded by "
            f"{required!r} in _shared_state_ but is mutated without holding it",
        )

    def _check_expr(self, expr: ast.expr, held: set) -> None:
        """Calls (mutators, ``*_locked`` helpers) and awaits inside ``expr``."""
        for node in ast.walk(expr):
            if isinstance(node, ast.Await):
                for lock in sorted(held):
                    self._finding(
                        node,
                        "race-await-under-lock",
                        f"await while holding threading lock {lock!r} "
                        f"of {self._owner_desc()}; this blocks the event "
                        f"loop — compute first, await after release",
                    )
            elif isinstance(node, ast.Call):
                self._check_call(node, held)

    def _check_call(self, call: ast.Call, held: set) -> None:
        func = call.func
        # Mutating method on a declared field.
        if isinstance(func, ast.Attribute) and func.attr in MUTATING_METHODS:
            base = func.value
            while isinstance(base, ast.Subscript):
                base = base.value
            field = _field_of(base, self.decl, self.on_self)
            if field is not None:
                required = self.decl.guards[field]
                if not self.assume_held and required not in held:
                    self._finding(
                        call,
                        "race-unguarded-write",
                        f"{self._owner_desc()} field {field!r} is declared "
                        f"guarded by {required!r} in _shared_state_ but is "
                        f"mutated without holding it",
                    )
        # ``*_locked`` helper invoked without any declared lock held.
        helper: str | None = None
        if (
            self.on_self
            and isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
            and func.attr.endswith(LOCKED_SUFFIX)
        ):
            helper = func.attr
        elif (
            not self.on_self
            and isinstance(func, ast.Name)
            and func.id.endswith(LOCKED_SUFFIX)
        ):
            helper = func.id
        if helper is not None and not self.assume_held and not held:
            self._finding(
                call,
                "race-unlocked-helper-call",
                f"{helper}() is a caller-holds-lock helper (the "
                f"'{LOCKED_SUFFIX}' suffix) but no {self._owner_desc()} "
                f"lock from _shared_state_ is held at this call",
            )

    def visit_body(self, body: Iterable[ast.stmt], held: set) -> None:
        for statement in body:
            self.visit(statement, held)

    def visit(self, node: ast.stmt, held: set) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                self._check_expr(item.context_expr, held)
            acquired = _acquired_locks(node, self.decl, self.on_self)
            self.visit_body(node.body, held | acquired)
        elif isinstance(node, ast.Assign):
            self._check_expr(node.value, held)
            for target in node.targets:
                self._check_write(target, node, held)
        elif isinstance(node, ast.AugAssign):
            self._check_expr(node.value, held)
            self._check_write(node.target, node, held)
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self._check_expr(node.value, held)
                self._check_write(node.target, node, held)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                self._check_write(target, node, held)
        elif isinstance(node, (ast.If, ast.While)):
            self._check_expr(node.test, held)
            self.visit_body(node.body, held)
            self.visit_body(node.orelse, held)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            self._check_expr(node.iter, held)
            self.visit_body(node.body, held)
            self.visit_body(node.orelse, held)
        elif isinstance(node, ast.Try):
            self.visit_body(node.body, held)
            for handler in node.handlers:
                self.visit_body(handler.body, held)
            self.visit_body(node.orelse, held)
            self.visit_body(node.finalbody, held)
        elif isinstance(node, _FUNCTION_NODES):
            # A nested function runs later, possibly without the locks
            # currently held; audit it standalone under the same
            # exemption rules as a method of this owner.
            auditor = _FunctionAuditor(
                self.module,
                self.decl,
                self.on_self,
                assume_held=node.name.endswith(LOCKED_SUFFIX),
                is_async=isinstance(node, ast.AsyncFunctionDef),
            )
            auditor.visit_body(node.body, set())
            self.findings.extend(auditor.findings)
        elif isinstance(node, (ast.Return, ast.Expr)):
            if node.value is not None:
                self._check_expr(node.value, held)
        elif isinstance(node, ast.Assert):
            self._check_expr(node.test, held)
        elif isinstance(node, ast.Raise):
            if node.exc is not None:
                self._check_expr(node.exc, held)
        # Remaining statement kinds (pass, import, global, ...) carry no
        # guarded-state mutations.


def _audit_function(
    module: SourceModule,
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
    decl: SharedStateDecl,
    on_self: bool,
) -> list[Finding]:
    assume_held = fn.name in EXEMPT_METHODS or fn.name.endswith(LOCKED_SUFFIX)
    auditor = _FunctionAuditor(
        module,
        decl,
        on_self,
        assume_held=assume_held,
        is_async=isinstance(fn, ast.AsyncFunctionDef),
    )
    auditor.visit_body(fn.body, set())
    return auditor.findings


class LockDisciplineChecker:
    name = "locks"
    rules = (
        "race-unguarded-write",
        "race-await-under-lock",
        "race-unlocked-helper-call",
    )

    def check_module(self, module: SourceModule) -> Iterator[Finding]:
        declarations = collect_declarations(module)
        if not declarations:
            return
        class_decls = {d.owner: d for d in declarations if d.owner is not None}
        module_decl = next(
            (d for d in declarations if d.owner is None), None
        )
        for statement in module.tree.body:
            if (
                isinstance(statement, ast.ClassDef)
                and statement.name in class_decls
            ):
                decl = class_decls[statement.name]
                for item in statement.body:
                    if isinstance(item, _FUNCTION_NODES):
                        yield from _audit_function(module, item, decl, True)
            elif isinstance(statement, _FUNCTION_NODES) and module_decl:
                yield from _audit_function(
                    module, statement, module_decl, False
                )
