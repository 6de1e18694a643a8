"""The server-wide prepared-statement cache.

Keyed on *normalised query text* (the edgedb idiom: one shared compiled
cache in front of per-connection state): when tenant B sends the same
SQL tenant A already ran, the parse is skipped here, the optimised
physical plan is reused via the shared
:class:`~repro.engine.base.PlanCache`, and the compiled distributions
come out of the shared :class:`~repro.engine.base.CompilationCache` —
the whole compile pipeline collapses to cache lookups.

Normalisation is deliberately conservative — textual, lossless, and
quote-aware: runs of whitespace *outside* string literals collapse to a
single space and trailing semicolons are dropped, while quoted literals
are preserved byte-for-byte (two queries differing only inside a string
constant must never collide).  Keyword case is **not** folded, so
``SELECT`` and ``select`` are distinct statements; the cache trades a
few extra misses for guaranteed semantic identity.
"""

from __future__ import annotations

from repro.cache import BoundedLRU
from repro.errors import QueryValidationError
from repro.query.sql import parse_sql

__all__ = ["normalise_statement", "StatementCache"]


def normalise_statement(text: str) -> str:
    """The cache key of a SQL string (see the module docstring)."""
    if not isinstance(text, str):
        raise QueryValidationError(
            f"statement must be a SQL string, got {type(text).__name__}"
        )
    out: list[str] = []
    pending_space = False
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "'":
            # Copy the quoted literal verbatim; a doubled '' stays inside.
            j = i + 1
            while j < n:
                if text[j] == "'":
                    if j + 1 < n and text[j + 1] == "'":
                        j += 2
                        continue
                    break
                j += 1
            if pending_space and out:
                out.append(" ")
            pending_space = False
            out.append(text[i : min(j + 1, n)])
            i = j + 1
        elif ch.isspace():
            pending_space = True
            i += 1
        else:
            if pending_space and out:
                out.append(" ")
            pending_space = False
            out.append(ch)
            i += 1
    key = "".join(out)
    while key.endswith(";"):
        key = key[:-1].rstrip()
    return key


class StatementCache(BoundedLRU):
    """Bounded LRU from normalised SQL text to parsed query ASTs.

    Thread-safe (the server parses on executor threads).  ``hits`` are
    cross-request (and, on a shared server, cross-tenant) statement
    reuses, ``evictions`` count entries dropped past ``max_entries``.
    Parse errors propagate to the caller and cache nothing.
    """

    def __init__(self, max_entries: int | None = 256):
        super().__init__(max_entries)

    def get_or_parse(self, text: str, parser=parse_sql):
        """``(query, hit)`` for ``text``, parsing (and caching) on miss."""
        key = normalise_statement(text)
        return self.lookup_or_build(key, lambda: parser(key))
