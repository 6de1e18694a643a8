"""The one LRU behind every bounded cache in the library.

:class:`~repro.server.statements.StatementCache`,
:class:`~repro.engine.base.PlanCache` and
:class:`~repro.engine.base.CompilationCache` are this class plus their
key function: bounding, recency, locking and the hit/miss/eviction
counters live here once.  What makes an entry *valid* is not this
class's business — it is in the key (normalised text; query plus
read-table cardinalities; normalised annotation), see the cache list in
:mod:`repro.db.mutations`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.errors import QueryValidationError

__all__ = ["BoundedLRU"]


class BoundedLRU:
    """A thread-safe least-recently-used map with hit/miss counters.

    ``max_entries`` bounds the map (``None`` = unbounded): a store past
    the bound evicts the least recently used entries, counts them in
    ``evictions`` and reports each to ``on_evict(key)``.  A lookup
    refreshes recency.  ``None`` is not a storable value — it is what a
    miss returns.

    One reentrant lock serialises every operation; subclasses take the
    same ``self._lock`` around compound operations of their own.
    """

    #: Lock discipline, enforced statically by ``repro.analysis`` (the
    #: ``locks`` checker): the listed fields are mutated only while
    #: holding ``self._lock``.
    _shared_state_ = {
        "_lock": ("hits", "misses", "evictions", "_entries"),
    }

    def __init__(self, max_entries: int | None = None, on_evict=None):
        if max_entries is not None and max_entries <= 0:
            raise QueryValidationError(
                f"max_entries must be a positive integer or None, "
                f"got {max_entries!r}"
            )
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: OrderedDict = OrderedDict()
        self._on_evict = on_evict
        self._lock = threading.RLock()

    def lookup(self, key):
        """The value under ``key`` or ``None``, counted as a hit or miss."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
            else:
                self.hits += 1
                self._entries.move_to_end(key)
            return value

    def peek(self, key):
        """:meth:`lookup` without touching the counters."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def store(self, key, value) -> None:
        """Insert as most recent and evict past the bound."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            if self.max_entries is not None:
                while len(self._entries) > self.max_entries:
                    evicted, _ = self._entries.popitem(last=False)
                    self.evictions += 1
                    if self._on_evict is not None:
                        self._on_evict(evicted)

    def lookup_or_build(self, key, build) -> tuple:
        """``(value, hit)``; a miss stores ``build()``, run under the lock.

        The miss is counted once the value exists, so a ``build`` that
        raises counts and stores nothing.
        """
        with self._lock:
            value = self.peek(key)
            if value is not None:
                self.hits += 1
                return value, True
            value = build()
            self.misses += 1
            self.store(key, value)
            return value, False

    def discard(self, key) -> None:
        """Drop one entry; not an eviction, so no counter and no hook."""
        with self._lock:
            self._entries.pop(key, None)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict:
        """Counters snapshot (entries/bound/hits/misses/evictions)."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self):
        return (
            f"{type(self).__name__}({len(self)} entries, {self.hits} hits, "
            f"{self.misses} misses, {self.evictions} evictions)"
        )
