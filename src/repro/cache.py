"""The cache primitives of the library, and the one rule of validity.

:class:`BoundedLRU` — :class:`~repro.server.statements.StatementCache`,
:class:`~repro.engine.base.PlanCache` and :class:`CompilationCache` are
this class plus their key function: bounding, recency, locking and the
hit/miss/eviction counters live here once.

:func:`capture_stamp` and :class:`StampedSlot` — where validity cannot
live in a key, "is this kept thing still valid?" is asked here, once: a
value is kept under the stamp captured before it was computed and served
only to a reader whose own capture compares equal (the sites:
:mod:`repro.db.mutations`).

:class:`CompilationCache` — the distribution cache asks the same
question the same way, on read: it compares the registry epoch with the
one it last looked at and drops what the reassignments since flow into.
Nothing is pushed to any cache by any writer.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.algebra.expressions import Expr
from repro.core.compile import Compiler
from repro.db.mutations import LineageIndex
from repro.errors import QueryValidationError
from repro.prob.distribution import Distribution

__all__ = ["BoundedLRU", "CompilationCache", "StampedSlot", "capture_stamp"]


def capture_stamp(db, names=None, *, registry=False) -> tuple:
    """What a read of ``db`` depends on, as one immutable value:
    ``(((name, table, epoch), ...), registry epoch)`` — the tables called
    ``names`` (all when ``None``; a missing one held as ``None``) and the
    registry epoch if ``registry``.  Compare stamps whole, with ``==``:
    tables define no ``__eq__``, so they compare by identity and counters
    by value — a table recreated or swapped at the same epoch, or another
    database's, is another stamp.  The database itself is not held: a
    slot on it would keep it alive in a cycle.

    Capture **before** reading what the stamp stands for.  Every counter
    is bumped *after* the change it counts (the ``cache-epoch`` checker)
    and each table is read before its epoch, so a write landing mid-read
    leaves a value stamped older than its content, which no later capture
    equals.  The registry epoch stands for every distribution derived
    from the registry too: a :class:`CompilationCache` reconciles with it
    before each read, so a run that starts at an epoch never reads a
    distribution older than it.
    """
    tables = db.tables
    held = list(tables.items()) if names is None else [(n, tables.get(n)) for n in names]
    return (
        tuple([(n, t, None if t is None else t.epoch) for n, t in held]),
        db.registry.epoch if registry else None,
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


class CompilationCache(BoundedLRU):
    """Distribution cache keyed on normalized annotations.

    Wraps one persistent :class:`Compiler`, whose d-tree memo already
    shares work between *overlapping* annotations; this cache additionally
    short-circuits *repeated* annotations (the same normalized expression
    across rows, runs, or ``pretty()``/accessor calls) to a stored
    :class:`Distribution` without touching the compiler at all.

    It is the one distribution source of result rows (``distribution``,
    ``semiring``, ``compiler``): a session's, the server's shared one, or
    the private one a bare engine wraps around its per-run compiler.

    A stored distribution is a function of its variables' marginals only
    (Theorem 2), so validity is a question about the registry, asked on
    read: every entry point that hands out marginal-derived state first
    reconciles — if the registry epoch moved since the cache last looked,
    the entries whose lineage mentions a name reassigned since are
    dropped (:meth:`invalidate_variables`).  No writer tells the cache
    anything; ``db.update(p=)``, ``reassign_probability`` and a bare
    ``registry.reassign`` are the same event.

    ``max_entries`` bounds the cache (see :class:`BoundedLRU`).  ``None``
    keeps the legacy unbounded behavior of a private per-session cache;
    the query server shares one *bounded* instance across every tenant
    session.

    All operations are safe under concurrent access from threads (the
    server's executor pool): the LRU's reentrant lock also serializes
    compilation, :meth:`absorb` and :meth:`clear` — the wrapped
    compiler's memo tables are not designed for concurrent mutation, and
    under the GIL serializing the CPU-bound compile costs nothing
    (multi-core compilation goes through the :mod:`repro.parallel`
    process pool instead).
    """

    #: Lock discipline for what this class writes beside the LRU's own
    #: methods (``misses``: an absorbed entry counts as one).
    _shared_state_ = {
        "_lock": (
            "misses",
            "invalidations",
            "_compiler",
            "_lineage",
            "_reconciled",
        ),
    }

    def __init__(self, compiler: Compiler, max_entries: int | None = None):
        #: Variable → dependent cache keys: the lineage index driving
        #: selective invalidation.  A compiled distribution depends on
        #: nothing but the distributions of its variables, so this is the
        #: *exact* dependency set — value edits, inserts and deletes never
        #: invalidate anything here.
        self._lineage = LineageIndex()
        super().__init__(max_entries, on_evict=self._lineage.discard)
        self._compiler = compiler
        #: Entries dropped by lineage invalidation (vs LRU ``evictions``).
        self.invalidations = 0
        #: The registry epoch this cache last reconciled at.  An empty
        #: cache owes the past nothing: it starts reconciled, however
        #: many reassignments the registry has already seen.
        self._reconciled = compiler.registry.epoch

    @property
    def semiring(self):
        return self._compiler.semiring

    @property
    def registry(self):
        return self._compiler.registry

    @property
    def compiler(self) -> Compiler:
        """The current wrapped compiler, reconciled: invalidation replaces
        it, so hold the cache, not this."""
        with self._lock:
            return self._reconcile_locked()

    def _reconcile_locked(self) -> Compiler:
        """Drop what the reassignments since the last look flow into and
        return the wrapped compiler (lock held) — the only way this class
        reaches it for anything derived from a marginal."""
        registry = self._compiler.registry
        now = registry.epoch  # before the names: see ``reassigned_since``
        if now != self._reconciled:
            names = registry.reassigned_since(self._reconciled)
            self._reconciled = now
            if names:
                self.invalidate_variables(names)
        return self._compiler

    def _store_locked(self, key: Expr, distribution: Distribution) -> None:
        """Store ``distribution`` with its lineage (lock held)."""
        self._lineage.record(key, key.variables)
        self.store(key, distribution)

    def lookup(self, key):
        with self._lock:
            self._reconcile_locked()
            return super().lookup(key)

    def peek(self, key):
        with self._lock:
            self._reconcile_locked()
            return super().peek(key)

    def distribution(self, expr: Expr) -> Distribution:
        with self._lock:
            compiler = self._reconcile_locked()
            key = compiler.normalize(expr)
            cached = super().lookup(key)
            if cached is None:
                cached = compiler.distribution(key)
                self._store_locked(key, cached)
            return cached

    def joint_distribution(self, exprs) -> Distribution:
        """:meth:`Compiler.joint_distribution` by the reconciled compiler,
        under the lock (joints are not stored)."""
        with self._lock:
            return self._reconcile_locked().joint_distribution(exprs)

    def normalize(self, expr: Expr) -> Expr:
        """The cache's key function (the compiler's normal form)."""
        with self._lock:
            return self._compiler.normalize(expr)

    def cached(self, key: Expr) -> Distribution | None:
        """The stored distribution of an already-normalized key, if any."""
        return self.peek(key)

    def absorb(
        self, key: Expr, distribution: Distribution, epoch: int | None = None
    ) -> None:
        """Merge one externally compiled distribution into the cache.

        The parallel compilation fan-out calls this with per-worker
        results: ``key`` must already be normalized.  The entry counts as
        a miss — the compile work happened, just in another process — so
        hit/miss accounting stays comparable with serial runs.

        ``epoch`` (when given) is the registry epoch the caller read
        before fanning out: a result one of whose variables was
        reassigned after it was computed against the old marginal and is
        silently discarded rather than stored stale.
        """
        with self._lock:
            self._reconcile_locked()
            if epoch is not None and not key.variables.isdisjoint(
                self.registry.reassigned_since(epoch)
            ):
                return
            if key not in self:
                self.misses += 1
                self._store_locked(key, distribution)

    def compile(self, expr: Expr):
        with self._lock:
            return self._reconcile_locked().compile(expr)

    def _rebuild_compiler_locked(self) -> None:
        """Replace the wrapped compiler, dropping its d-tree memo."""
        self._compiler = Compiler(
            self._compiler.registry,
            self._compiler.semiring,
            heuristic=self._compiler.choose_variable,
            pruning=self._compiler.pruning,
            max_mutex_nodes=self._compiler.max_mutex_nodes,
        )

    def clear(self) -> None:
        """Drop every cached distribution and the compiler's d-tree memo.

        Used by ``Session.close()`` on session-owned caches; the cache
        remains usable afterwards (a closed-and-reused session simply
        recompiles on demand).
        """
        with self._lock:
            super().clear()
            self._lineage.clear()
            self._rebuild_compiler_locked()

    def invalidate_variables(self, names) -> int:
        """Drop exactly the entries whose lineage mentions ``names``.

        Reconciliation calls this with the names reassigned since the
        cache last looked.  Every other stored distribution survives —
        its lineage is untouched, so it is still correct.  The wrapped
        compiler's internal d-tree memo cannot be pruned selectively and
        is rebuilt; surviving entries keep short-circuiting repeated
        annotations, which is where the warm-path work lives.  Returns
        the number of entries dropped.
        """
        with self._lock:
            doomed = self._lineage.pop(names)
            for key in doomed:
                self.discard(key)
            self.invalidations += len(doomed)
            self._rebuild_compiler_locked()
            return len(doomed)

    def stats(self) -> dict:
        """The LRU counters plus ``invalidations``, as of the registry's
        current epoch."""
        with self._lock:
            self._reconcile_locked()
            return {**super().stats(), "invalidations": self.invalidations}
