"""Mutation bookkeeping for live pvc-databases: deltas and lineage.

The paper's pipeline treats the pvc-database as frozen; every cache in
the stack — merged scans, hash indexes, prepared plans, compiled d-tree
distributions, fused kernels — was originally keyed against data that
could never change.  This module is the bookkeeping layer that makes the
database *mutable* without flushing those caches wholesale:

* :class:`Delta` — one immutable record of a mutation: which table, what
  kind of change, how many rows, which random variables the touched rows
  mention, and which variables had their *distribution* changed (the only
  event that invalidates compiled d-trees — annotations are lineage, and
  a distribution is a pure function of its variables' distributions);
* :class:`DeltaLog` — a bounded in-memory log of recent deltas, mostly a
  diagnostic surface (``db.deltas``) for tests, benchmarks and the
  server's ``/stats`` endpoint;
* :class:`LineageIndex` — the variable → dependent-cache-keys map the
  :class:`~repro.engine.base.CompilationCache` maintains, so a
  probability update invalidates exactly the distributions whose lineage
  mentions the reassigned variables and nothing else.

Every cache, its key and its rule
---------------------------------

The paper's two steps fix what a cached object may depend on: a scan or
hash index is a function of one table's rows (step I), a compiled
distribution a function of its variables' marginals only (step II).  So
validity lives in the *key* wherever it can; what depends on more than
one object lives under a *stamp*, by one protocol (:mod:`repro.cache`):
captured before the read, compared whole, the value admitted at once or
— where noted — on second sight.  The first three rows are
:class:`repro.cache.BoundedLRU` subclasses (one bound, one lock, one set
of counters); the rest are fields of the object they are derived from
and go when it goes.

=====================  ==========================  ==========================
cache                  key / what its stamp holds  dropped or rebuilt when
=====================  ==========================  ==========================
statement              normalised SQL text         LRU eviction only: text →
(``StatementCache``)                               AST reads no data
plan (``PlanCache``)   query + row counts of the   LRU eviction; an insert or
                       tables it reads             delete on a read table
                                                   changes the key, equal-size
                                                   updates and writes to other
                                                   tables keep the plan
distribution           normalised annotation       LRU eviction, and the one
(``CompilationCache``)                             explicit rule: a ``p=``
                                                   update drops the entries
                                                   whose lineage mentions the
                                                   ``changed_variables``
                                                   (:class:`LineageIndex`);
                                                   value edits, inserts and
                                                   deletes drop nothing
kernel on plan         the prepared plan object    never: a fused kernel (and
(``kernel_for``)       (``op_cache``) + semiring   the interpreter's compiled
                                                   accessors beside it) is
                                                   data-independent and lives
                                                   and dies with its plan
reply on statement     stamp: every table, the     the stamp moves.  Never
(``keep_reply``)       registry epoch, the         offered: degraded,
                       ``data_generation``; per    Monte-Carlo and
                       option set, second sight    ``deadline_hit`` answers
step-I answer on plan  stamp: the tables the       the stamp moves (``p=``
(``symbolic_answer``)  query reads; second sight   updates keep it:
                                                   annotations are lineage)
engine choice on plan  stamp: every table          the stamp moves
(``Classification``)
independence memo      stamp: every table          the stamp moves
(``PVCDatabase``)
table record           the table's epoch, read     any row change: ``add``
(``PVCTable._views``)  before the rows             patches a current record
                                                   forward, update/delete and
                                                   ``invalidate_caches`` drop
                                                   it; rebuilt on next read
table facts            the table's epoch, read     never dropped by the
(``PVCTable.facts``)   before the rows             mutators, which adjust and
                                                   re-stamp it; recounted
                                                   after ``invalidate_caches``
world-relation index   the relation's epoch +      any ``Relation.add``
(``Relation``)         key attributes
=====================  ==========================  ==========================
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator

__all__ = ["Delta", "DeltaLog", "LineageIndex"]


@dataclass(frozen=True)
class Delta:
    """One applied mutation, as seen by cache-invalidation listeners."""

    #: Name of the mutated table.
    table: str
    #: ``"insert"`` | ``"update"`` | ``"delete"``.
    kind: str
    #: Number of base rows touched (inserted, rewritten, or removed).
    rows: int
    #: Variables mentioned by the annotations of the touched rows (their
    #: distributions are unchanged unless also in ``changed_variables``).
    variables: frozenset = frozenset()
    #: Variables whose *distribution* was reassigned by this mutation —
    #: the lineage that invalidates compiled d-tree distributions.
    changed_variables: frozenset = frozenset()
    #: Whether the table's row count changed (plans re-key on
    #: cardinalities; equal-size updates keep their prepared plans).
    cardinality_changed: bool = False


class DeltaLog:
    """A bounded log of recent :class:`Delta` records.

    Purely observational: invalidation is driven by the database's
    listener fan-out at mutation time, not by replaying the log.  The
    bound keeps bulk loads from accumulating unbounded history.
    """

    def __init__(self, max_entries: int = 256):
        self._entries: deque[Delta] = deque(maxlen=max_entries)
        self.total = 0

    def append(self, delta: Delta) -> None:
        self._entries.append(delta)
        self.total += 1

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Delta]:
        return iter(self._entries)

    def last(self) -> Delta | None:
        return self._entries[-1] if self._entries else None

    def stats(self) -> dict:
        """Counters by mutation kind over the retained window."""
        kinds: dict[str, int] = {}
        for delta in self._entries:
            kinds[delta.kind] = kinds.get(delta.kind, 0) + 1
        return {"total": self.total, "retained": len(self._entries), **kinds}

    def __repr__(self):
        return f"DeltaLog({len(self._entries)} retained, {self.total} total)"


class LineageIndex:
    """Bidirectional map between variables and dependent cache keys.

    ``record(key, variables)`` registers that the cached object under
    ``key`` was derived from the distributions of ``variables``;
    ``pop(variables)`` returns (and unregisters) every key any of those
    variables flows into.  Keys must be hashable; the index holds both
    directions so eviction (``discard``) stays O(lineage of the key).
    """

    def __init__(self):
        self._by_variable: dict[str, set] = {}
        self._by_key: dict = {}

    def record(self, key, variables: Iterable[str]) -> None:
        names = frozenset(variables)
        if not names:
            return
        previous = self._by_key.get(key)
        if previous == names:
            return
        if previous:
            self.discard(key)
        self._by_key[key] = names
        for name in names:
            self._by_variable.setdefault(name, set()).add(key)

    def discard(self, key) -> None:
        """Unregister one key (cache eviction)."""
        names = self._by_key.pop(key, None)
        if not names:
            return
        for name in names:
            dependents = self._by_variable.get(name)
            if dependents is not None:
                dependents.discard(key)
                if not dependents:
                    del self._by_variable[name]

    def pop(self, variables: Iterable[str]) -> set:
        """All keys depending on any of ``variables``, unregistered."""
        doomed: set = set()
        for name in variables:
            doomed |= self._by_variable.get(name, set())
        for key in doomed:
            self.discard(key)
        return doomed

    def clear(self) -> None:
        self._by_variable.clear()
        self._by_key.clear()

    def dependents(self, name: str) -> frozenset:
        return frozenset(self._by_variable.get(name, ()))

    def __len__(self) -> int:
        return len(self._by_key)

    def __repr__(self):
        return (
            f"LineageIndex({len(self._by_key)} keys, "
            f"{len(self._by_variable)} variables)"
        )
