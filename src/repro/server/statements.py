"""The server-wide prepared-statement cache.

Keyed on *normalised query text* (the edgedb idiom: one shared compiled
cache in front of per-connection state): when tenant B sends the same
SQL tenant A already ran, the parse is skipped here, the optimised
physical plan is reused via the shared
:class:`~repro.engine.base.PlanCache`, and the compiled distributions
come out of the shared :class:`~repro.cache.CompilationCache` —
the whole compile pipeline collapses to cache lookups.

A text never seen before is not parsed when its *shape* — the text with
each literal lifted into a parameter (:func:`~repro.query.sql.lift_literals`)
— was: the shape's template is parsed once and the text's values are
bound into it (:func:`~repro.query.sql.bind_template`), and the plan memo
does the same with the template's plan, so the front end of a request
runs once per statement shape, not once per text.

Normalisation is deliberately conservative — textual, lossless, and
quote-aware: runs of whitespace *outside* string literals collapse to a
single space and trailing semicolons are dropped, while quoted literals
are preserved byte-for-byte (two queries differing only inside a string
constant must never collide).  Keyword case is **not** folded, so
``SELECT`` and ``select`` are distinct statements; the cache trades a
few extra misses for guaranteed semantic identity.

An entry also keeps the *encoded replies* the server computed for its
statement (see :class:`StatementCache`), which is why the server
normalises every request's text on the event loop: a text without a
quote takes the C-level ``split``/``join`` path.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.cache import BoundedLRU, StampedSlot
from repro.errors import QueryValidationError
from repro.query.sql import bind_template, lift_literals, parse_sql, parse_template

__all__ = ["normalise_statement", "StatementCache"]


def normalise_statement(text: str) -> str:
    """The cache key of a SQL string (see the module docstring)."""
    if not isinstance(text, str):
        raise QueryValidationError(
            f"statement must be a SQL string, got {type(text).__name__}"
        )
    if "'" not in text:
        # No literal to protect: str.split() splits on exactly the
        # characters str.isspace() accepts, and drops the blank ends.
        key = " ".join(text.split())
    else:
        key = _normalise_quoted(text)
    while key.endswith(";"):
        key = key[:-1].rstrip()
    return key


def _normalise_quoted(text: str) -> str:
    """Whitespace collapsed outside ``'...'`` literals, one char at a time."""
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
    return "".join(out)


#: Option sets one statement keeps replies for (oldest leaves first): a
#: client sweeping ``epsilon`` over one text must not grow its entry.
_OPTION_SETS_PER_STATEMENT = 8


class _Statement(NamedTuple):
    """One entry: the parsed query and, for the stamp it was last
    answered at, a map from option set to that option set's own slot —
    read and written only under the owning cache's ``_lock``."""

    query: object
    replies: StampedSlot


class StatementCache(BoundedLRU):
    """Bounded LRU from normalised SQL text to parsed query ASTs.

    Thread-safe (the server parses on executor threads).  ``hits`` are
    cross-request (and, on a shared server, cross-tenant) statement
    reuses, ``evictions`` count entries dropped past ``max_entries``.
    Parse errors propagate to the caller and cache nothing.  The parsed
    templates of the statement shapes seen are kept beside the entries,
    in an LRU of the same bound that no counter reports.

    An entry also keeps the replies its statement was answered with
    (:meth:`reply` / :meth:`keep_reply`): per option set, the encoded
    result, valid for one *stamp* — whatever besides text and options
    determines the answer (``QueryServer._stamp``).  A reply is an
    :class:`~repro.server.codec.EncodedResult`: the wire dict with its
    JSON bytes, serialised once when it was computed, which the protocol
    writers splice in so a hit serialises nothing.  Replies, bytes
    included, are bounded by ``max_entries`` ×
    :data:`_OPTION_SETS_PER_STATEMENT` and leave with their entry;
    there is no second map, bound or counter.  The
    event loop reads them and executor threads write them, both under
    ``_lock``: the option-set map of one stamp is edited in place.
    """

    def __init__(self, max_entries: int | None = 256):
        super().__init__(max_entries)
        self._templates = BoundedLRU(max_entries)

    def get_or_parse(self, text: str):
        """``(query, hit)`` for ``text``; on a miss the query is bound
        into its shape's template (parsed on the shape's first text)."""
        key = normalise_statement(text)
        statement, hit = self.lookup_or_build(key, lambda: _Statement(self._parse(key), StampedSlot()))
        return statement.query, hit

    def _parse(self, key: str):
        shape, values = lift_literals(key)
        if not values:
            return parse_sql(key)
        template, _ = self._templates.lookup_or_build(shape, lambda: parse_template(key))
        return bind_template(template, values)

    def reply(self, key: str, options, stamp):
        """The reply kept for the statement ``key`` (normalised text)
        under ``options``, if it was computed at ``stamp``; else ``None``.

        A reply found is the request's whole statement lookup and counts
        as a hit; ``None`` counts nothing — the caller goes on to
        :meth:`get_or_parse`, which counts.
        """
        with self._lock:
            statement = self.peek(key)
            slots = None if statement is None else statement.replies.get(stamp)
            slot = None if slots is None else slots.get(options)
            kept = None if slot is None else slot.get(stamp)
            if kept is not None:
                self.hits += 1
            return kept

    def keep_reply(self, key: str, options, stamp, reply) -> None:
        """Offer ``reply`` as the answer of ``key`` under ``options``,
        computed from the state ``stamp`` was captured *before*.

        Each option set has its own :class:`~repro.cache.StampedSlot`
        (second sight: an ad-hoc text never pins a reply); a new stamp
        drops everything kept at the old one.  No-op on an evicted entry.
        """
        with self._lock:
            statement = self.peek(key)
            if statement is None:
                return
            slots = statement.replies.get(stamp)
            if slots is None:
                slots = {}
                statement.replies.put(stamp, slots)
            slot = slots.get(options)
            if slot is None:
                if len(slots) >= _OPTION_SETS_PER_STATEMENT:
                    del slots[next(iter(slots))]
                slot = slots[options] = StampedSlot()
            slot.offer(stamp, reply)
