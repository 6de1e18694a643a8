"""Stats/fingerprint lint.

Answer fingerprinting (:mod:`repro.server.codec`) hashes a result's
stats after dropping the keys declared in ``VOLATILE_STAT_KEYS``
(:mod:`repro.engine.stats`) —
wall-clock times, cache hit counts, worker counts and other values that
legitimately differ between two runs of the same query.  A stats key
that is volatile **but not declared so** silently breaks fingerprint
equality between runs (the PR-8 ``batched`` bug class); a key nobody
classified is a landmine waiting for the first kernels-on-vs-off or
parallel-vs-serial divergence.

This lint closes the loop statically: every key written into a stats
mapping anywhere under ``engine/``, ``codegen/`` or ``server/`` must be
declared, either in ``DETERMINISTIC_STAT_KEYS`` (same value for the
same query+data, fingerprint-relevant) or in ``VOLATILE_STAT_KEYS``
(dropped before hashing).  The declarations themselves are read
statically from the scanned tree — the module defining both frozensets
as literals (``repro/engine/stats.py``) is discovered, not imported.
The reverse is ``stats-unwritten``: a declared key that no scanned
module writes is reported where it is declared, so the registry cannot
keep classifying keys nothing emits.

Tracked mappings, by naming convention: locals named ``stats`` /
``info`` or ending in ``stats`` / ``_info``, and attributes named
``.stats``.  Keys must be string literals (or loop
variables over a literal tuple — the ``for key in ("a", "b")`` delta
idiom); anything else is ``stats-dynamic-key``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.runner import AnalysisContext, BaseChecker
from repro.analysis.source import SourceModule

__all__ = ["StatsKeyChecker"]

_DECL_NAMES = ("DETERMINISTIC_STAT_KEYS", "VOLATILE_STAT_KEYS")

#: Directories whose modules are subject to the lint.
_SCANNED_PARTS = frozenset({"engine", "codegen", "server"})

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _tracked_name(node: ast.expr) -> str | None:
    """The display name of a tracked stats mapping, if ``node`` is one."""
    if isinstance(node, ast.Name):
        name = node.id
        if name in ("stats", "info") or name.endswith(("stats", "_info")):
            return name
    if isinstance(node, ast.Attribute):
        if node.attr == "stats":
            return node.attr
    return None


def _literal_str_elements(node: ast.expr) -> dict[str, int] | None:
    """The string elements of a literal collection, with their lines."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        keys = {}
        for element in node.elts:
            if isinstance(element, ast.Constant) and isinstance(
                element.value, str
            ):
                keys[element.value] = element.lineno
            else:
                return None
        return keys
    return None


def collect_declared_keys(
    modules: list[SourceModule],
) -> dict[str, tuple[str, int]] | None:
    """Both declaration frozensets, read statically: key → the
    ``(path, line)`` declaring it.

    Returns ``None`` when no scanned module declares them — the lint
    then has nothing to check against and stays silent.
    """
    declared: dict[str, tuple[str, int]] | None = None
    for module in modules:
        for statement in module.tree.body:
            if not isinstance(statement, ast.Assign):
                continue
            for target in statement.targets:
                if (
                    not isinstance(target, ast.Name)
                    or target.id not in _DECL_NAMES
                ):
                    continue
                value = statement.value
                if (
                    isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Name)
                    and value.func.id == "frozenset"
                    and len(value.args) == 1
                ):
                    value = value.args[0]
                keys = _literal_str_elements(value)
                if keys is not None:
                    declared = declared or {}
                    for key, line in keys.items():
                        declared[key] = (module.path, line)
    return declared


class StatsKeyChecker(BaseChecker):
    name = "statskeys"
    rules = ("stats-undeclared-key", "stats-dynamic-key", "stats-unwritten")

    def check_project(self, context: AnalysisContext) -> Iterator[Finding]:
        declared = collect_declared_keys(context.modules)
        if declared is None:
            return
        #: Every literal key :meth:`_judge` saw written during this run.
        self._written: set[str] = set()
        include_all = bool(context.options.get("statskeys_include_all"))
        names = set(declared)
        scanned: set[str] = set()
        for module in context.modules:
            parts = set(module.path.replace("\\", "/").split("/"))
            if not include_all and not (parts & _SCANNED_PARTS):
                continue
            scanned.add(module.path)
            yield from self._check_module_keys(module, names)
        for key in sorted(names - self._written):
            path, line = declared[key]
            if path not in scanned:
                continue  # declared in a tree the lint is not run over
            yield Finding(
                file=path,
                line=line,
                rule_id="stats-unwritten",
                severity="error",
                message=(
                    f"stats key {key!r} is declared but no scanned module "
                    f"writes it; delete the declaration (or write the key "
                    f"where the lint can see it)"
                ),
            )

    def _check_module_keys(
        self, module: SourceModule, declared: set[str]
    ) -> Iterator[Finding]:
        yield from self._visit_body(module, module.tree.body, declared, {})

    def _visit_body(
        self,
        module: SourceModule,
        body: list[ast.stmt],
        declared: set[str],
        loop_keys: dict[str, tuple[str, ...]],
    ) -> Iterator[Finding]:
        for statement in body:
            yield from self._visit(module, statement, declared, loop_keys)

    def _visit(
        self,
        module: SourceModule,
        node: ast.stmt,
        declared: set[str],
        loop_keys: dict[str, tuple[str, ...]],
    ) -> Iterator[Finding]:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                yield from self._check_target(
                    module, target, node.value, declared, loop_keys
                )
            yield from self._check_calls(module, node.value, declared)
        elif isinstance(node, ast.AugAssign):
            yield from self._check_target(
                module, node.target, None, declared, loop_keys
            )
        elif isinstance(node, ast.Expr):
            yield from self._check_calls(module, node.value, declared)
        elif isinstance(node, ast.Return):
            if node.value is not None:
                yield from self._check_calls(module, node.value, declared)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            inner = dict(loop_keys)
            if isinstance(node.target, ast.Name):
                keys = _literal_str_elements(node.iter)
                if keys is not None:
                    inner[node.target.id] = tuple(keys)
                else:
                    inner.pop(node.target.id, None)
            yield from self._visit_body(module, node.body, declared, inner)
            yield from self._visit_body(module, node.orelse, declared, loop_keys)
        elif isinstance(node, (ast.If, ast.While)):
            yield from self._visit_body(module, node.body, declared, loop_keys)
            yield from self._visit_body(
                module, node.orelse, declared, loop_keys
            )
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            yield from self._visit_body(module, node.body, declared, loop_keys)
        elif isinstance(node, ast.Try):
            yield from self._visit_body(module, node.body, declared, loop_keys)
            for handler in node.handlers:
                yield from self._visit_body(
                    module, handler.body, declared, loop_keys
                )
            yield from self._visit_body(module, node.orelse, declared, loop_keys)
            yield from self._visit_body(
                module, node.finalbody, declared, loop_keys
            )
        elif isinstance(node, _FUNCTION_NODES):
            yield from self._visit_body(module, node.body, declared, {})
        elif isinstance(node, ast.ClassDef):
            yield from self._visit_body(module, node.body, declared, {})

    def _check_target(
        self,
        module: SourceModule,
        target: ast.expr,
        value: ast.expr | None,
        declared: set[str],
        loop_keys: dict[str, tuple[str, ...]],
    ) -> Iterator[Finding]:
        if isinstance(target, ast.Subscript):
            tracked = _tracked_name(target.value)
            if tracked is None:
                return
            key_node = target.slice
            if isinstance(key_node, ast.Constant) and isinstance(
                key_node.value, str
            ):
                yield from self._judge(
                    module, target, tracked, key_node.value, declared
                )
            elif (
                isinstance(key_node, ast.Name)
                and key_node.id in loop_keys
            ):
                for key in loop_keys[key_node.id]:
                    yield from self._judge(
                        module, target, tracked, key, declared
                    )
            else:
                yield Finding(
                    file=module.path,
                    line=target.lineno,
                    rule_id="stats-dynamic-key",
                    severity="error",
                    message=(
                        f"{tracked}[...] written through a non-literal key; "
                        f"use a string literal (or a loop over a literal "
                        f"tuple) so the stats lint can classify it"
                    ),
                )
        elif value is not None:
            tracked = _tracked_name(target)
            if tracked is None:
                return
            yield from self._check_dict_literal(
                module, value, tracked, declared
            )

    def _check_dict_literal(
        self,
        module: SourceModule,
        value: ast.expr,
        tracked: str,
        declared: set[str],
    ) -> Iterator[Finding]:
        if isinstance(value, ast.Dict):
            for key_node in value.keys:
                if key_node is None:
                    continue  # **spread: the source mapping is checked at
                    # its own write sites
                if isinstance(key_node, ast.Constant) and isinstance(
                    key_node.value, str
                ):
                    yield from self._judge(
                        module, key_node, tracked, key_node.value, declared
                    )
                else:
                    yield Finding(
                        file=module.path,
                        line=key_node.lineno,
                        rule_id="stats-dynamic-key",
                        severity="error",
                        message=(
                            f"{tracked} dict literal has a non-literal key; "
                            f"use string literals so the stats lint can "
                            f"classify them"
                        ),
                    )
        elif isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
            if value.func.id == "dict":
                for keyword in value.keywords:
                    if keyword.arg is not None:
                        yield from self._judge(
                            module, keyword, tracked, keyword.arg, declared
                        )

    def _check_calls(
        self, module: SourceModule, expr: ast.expr, declared: set[str]
    ) -> Iterator[Finding]:
        for node in ast.walk(expr):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            tracked = _tracked_name(func.value)
            if tracked is None:
                continue
            if func.attr == "setdefault" and node.args:
                key_node = node.args[0]
                if isinstance(key_node, ast.Constant) and isinstance(
                    key_node.value, str
                ):
                    yield from self._judge(
                        module, node, tracked, key_node.value, declared
                    )
            elif func.attr == "update" and node.args:
                source = node.args[0]
                if isinstance(source, ast.Dict):
                    yield from self._check_dict_literal(
                        module, source, tracked, declared
                    )
                # updating from another tracked mapping (or an opaque
                # expression) is silent: its keys are checked where
                # *they* are written.

    def _judge(
        self,
        module: SourceModule,
        node: ast.AST,
        tracked: str,
        key: str,
        declared: set[str],
    ) -> Iterator[Finding]:
        self._written.add(key)
        if key in declared:
            return
        yield Finding(
            file=module.path,
            line=getattr(node, "lineno", 1),
            rule_id="stats-undeclared-key",
            severity="error",
            message=(
                f"stats key {key!r} (written into {tracked}) is declared "
                f"in neither DETERMINISTIC_STAT_KEYS nor "
                f"VOLATILE_STAT_KEYS; classify it so answer "
                f"fingerprinting stays stable"
            ),
        )
