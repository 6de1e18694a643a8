"""Mutation bookkeeping for live pvc-databases: lineage, and the rules.

The paper's pipeline treats the pvc-database as frozen; every cache in
the stack — merged scans, hash indexes, prepared plans, compiled d-tree
distributions, operator accessors — was originally keyed against data that
could never change.  A mutable database flushes none of them wholesale
and tells none of them anything: a writer changes its storage and bumps
a counter (a table's epoch, the registry's), and each cache validates
what it kept where it is read.  What this module holds is

* :class:`LineageIndex` — the variable → dependent-cache-keys map the
  :class:`~repro.cache.CompilationCache` maintains, so a reassigned
  marginal (the only event that invalidates a compiled d-tree —
  annotations are lineage, and a distribution is a pure function of its
  variables' distributions) drops exactly the distributions whose
  lineage mentions the variable and nothing else;
* the table below.  (``PVCDatabase.mutations`` counts the applied
  mutations by kind for the server's ``/stats``.)

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
distribution           normalised annotation; the  LRU eviction, and on the
(``CompilationCache``) registry epoch it last      next read after the
                       reconciled at               registry epoch moved, the
                                                   entries whose lineage
                                                   mentions the reassigned
                                                   names (``reassigned_since``
                                                   + :class:`LineageIndex`) —
                                                   ``p=`` update or bare
                                                   ``registry.reassign`` alike;
                                                   value edits, inserts and
                                                   deletes drop nothing
accessors on plan      the prepared plan object    never: the
(``op_cache``)         and the operator            interpreter's compiled
                                                   accessors are
                                                   data-independent and live
                                                   and die with their plan
reply on statement     stamp: every table and the  the stamp moves.  Never
(``keep_reply``)       registry epoch; per option  offered: degraded,
                       set, second sight           Monte-Carlo and
                                                   ``deadline_hit`` answers
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

from typing import Iterable

__all__ = ["LineageIndex"]


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
