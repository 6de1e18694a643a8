"""The two cache primitives of the library.

:class:`BoundedLRU` — :class:`~repro.server.statements.StatementCache`,
:class:`~repro.engine.base.PlanCache` and
:class:`~repro.engine.base.CompilationCache` are this class plus their
key function: bounding, recency, locking and the hit/miss/eviction
counters live here once.

:func:`capture_stamp` and :class:`StampedSlot` — where validity cannot
live in a key, "is this kept thing still valid?" is asked here, once: a
value is kept under the stamp captured before it was computed and served
only to a reader whose own capture compares equal (the sites:
:mod:`repro.db.mutations`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.errors import QueryValidationError

__all__ = ["BoundedLRU", "StampedSlot", "capture_stamp"]


def capture_stamp(db, names=None, *, registry=False, cache=None) -> tuple:
    """What a read of ``db`` depends on, as one immutable value:
    ``(((name, table, epoch), ...), registry epoch, data_generation)`` —
    the tables called ``names`` (all when ``None``; a missing one held as
    ``None``), the registry epoch if ``registry``, the ``data_generation``
    of ``cache`` (a ``CompilationCache``) if given.  Compare stamps whole,
    with ``==``: tables define no ``__eq__``, so they compare by identity
    and counters by value — a table recreated or swapped at the same
    epoch, or another database's, is another stamp.  The database itself
    is not held: a slot on it would keep it alive in a cycle.

    Capture **before** reading what the stamp stands for.  Every counter
    is bumped *after* the change it counts (the ``cache-epoch`` checker)
    and each table is read before its epoch, so a write landing mid-read
    leaves a value stamped older than its content, which no later capture
    equals.  ``cache`` closes a ``p=`` update: the registry changes first,
    the cache is told second, and a run in between reads old
    distributions under the new registry epoch.
    """
    tables = db.tables
    held = list(tables.items()) if names is None else [(n, tables.get(n)) for n in names]
    return (
        tuple([(n, t, None if t is None else t.epoch) for n, t in held]),
        db.registry.epoch if registry else None,
        None if cache is None else cache.data_generation,
    )


class StampedSlot:
    """One kept value and the stamp (:func:`capture_stamp`) it is valid at.

    The record is one ``(stamp, value)`` tuple, only ever replaced whole,
    so threads sharing a slot need no lock: a reader sees one record or
    the other, never half of each.  ``None`` is what a miss returns.
    """

    __slots__ = ("_record",)

    def __init__(self):
        self._record = (None, None)

    def get(self, stamp):
        """The value kept at ``stamp``, else ``None``."""
        kept_at, value = self._record
        return value if kept_at == stamp else None

    def put(self, stamp, value, after=None) -> bool:
        """Keep ``value`` now, dropping whatever was kept before.  A
        reader that may not even *return* a value torn across a write
        passes ``after``, a second capture taken once ``value`` exists:
        if the stamp moved, nothing is kept and ``False`` says so."""
        kept = after is None or after == stamp
        if kept:
            self._record = (stamp, value)
        return kept

    def offer(self, stamp, value) -> None:
        """Keep ``value`` on second sight: the first offer at a stamp
        records the stamp alone (dropping what an older one kept), the
        next keeps its value — what runs once per state pins nothing."""
        seen = self._record[0] == stamp
        self._record = (stamp, value if seen else None)


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
