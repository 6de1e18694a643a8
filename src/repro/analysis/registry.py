"""Discovery of the shared-state registry declarations.

Runtime modules declare their lock discipline next to the state itself
with a plain class (or module) attribute, e.g.::

    class BoundedLRU:
        _shared_state_ = {
            "_lock": ("hits", "misses", "evictions", "_entries"),
        }

meaning: the listed attributes may only be *mutated* while holding
``self._lock`` (for a module-level declaration, the module global of
that name).  The declaration is a frozen dict of string literals, so the
race checker consumes it **statically** — no runtime import of the
declared module ever happens — and the declaration doubles as living
documentation beside the fields it governs.

Two conventions complete the discipline:

* methods whose name ends in ``_locked`` (or is ``__init__`` /
  ``__new__`` / ``__post_init__``) are exempt from the unguarded-write
  rule — ``_locked`` asserts "my caller holds the lock", and the
  checker separately verifies that every call of a ``*_locked`` helper
  happens with a declared lock held;
* an ``async`` function must never ``await`` while holding a declared
  lock — declared locks are *threading* locks, and awaiting under one
  blocks the event loop (the asyncio per-tenant locks are not declared
  here and are exempt by construction).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.source import SourceModule

__all__ = ["SharedStateDecl", "collect_declarations"]

DECLARATION_NAME = "_shared_state_"

#: Methods that may touch guarded fields before the object is shared.
EXEMPT_METHODS = frozenset({"__init__", "__new__", "__post_init__"})

LOCKED_SUFFIX = "_locked"


@dataclass
class SharedStateDecl:
    """One class's (or module's) declared lock discipline."""

    module_path: str
    #: Class name, or None for a module-level declaration.
    owner: str | None
    line: int
    #: field name -> owning lock name.
    guards: dict[str, str] = field(default_factory=dict)

    @property
    def locks(self) -> set[str]:
        return set(self.guards.values())

    def lock_of(self, name: str) -> str | None:
        return self.guards.get(name)


def _literal_str(node: ast.AST) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _parse_declaration(
    module: SourceModule, owner: str | None, node: ast.Assign | ast.AnnAssign
) -> SharedStateDecl | None:
    value = node.value
    if not isinstance(value, ast.Dict):
        return None
    decl = SharedStateDecl(module.path, owner, node.lineno)
    for key_node, fields_node in zip(value.keys, value.values):
        lock = _literal_str(key_node) if key_node is not None else None
        if lock is None:
            return None
        if not isinstance(fields_node, (ast.Tuple, ast.List, ast.Set)):
            return None
        for element in fields_node.elts:
            name = _literal_str(element)
            if name is None:
                return None
            decl.guards[name] = lock
    return decl


def _assign_targets(node: ast.stmt):
    if isinstance(node, ast.Assign):
        for target in node.targets:
            if isinstance(target, ast.Name):
                yield target.id, node
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        if node.value is not None:
            yield node.target.id, node


def collect_declarations(module: SourceModule) -> list[SharedStateDecl]:
    """Every ``_shared_state_`` declaration in ``module``."""
    declarations: list[SharedStateDecl] = []
    for statement in module.tree.body:
        for name, node in _assign_targets(statement):
            if name == DECLARATION_NAME:
                decl = _parse_declaration(module, None, node)
                if decl is not None:
                    declarations.append(decl)
        if isinstance(statement, ast.ClassDef):
            for inner in statement.body:
                for name, node in _assign_targets(inner):
                    if name == DECLARATION_NAME:
                        decl = _parse_declaration(module, statement.name, node)
                        if decl is not None:
                            declarations.append(decl)
    return declarations
