"""Property: the one stamp, the one slot and the one reconciling cache
of :mod:`repro.cache`.

Every "is this kept thing still valid?" in the library is
``capture_stamp`` + ``StampedSlot`` — or, for compiled distributions, a
:class:`CompilationCache` reconciling with its registry — so the
protocol is tested here once instead of once per site.  The machine
drives a small database through every kind of change — row writes,
``p=`` updates, bare ``registry.reassign`` calls, a table dropped and
recreated at the same epoch, a prebuilt table registered (which leaves
the epoch *sum* where it was) — interleaved with ``offer``/``put``/``get``
under four different dependency sets, and checks after every step that

* two captures of one view are equal exactly when nothing the view
  depends on changed in between — so a stamp captured before a write
  never equals one captured after, and a write elsewhere moves nothing;
* ``get(s)`` returns only a value handed in at a stamp ``== s``, never
  the first value ``offer``-ed at a stamp, never one ``put`` with a
  second capture that differs, and always the value the last two kept
  operations say it must;
* a ``CompilationCache`` nobody tells anything answers every annotation
  in the database as a from-scratch ``Compiler`` does, to 1e-12;

and two time-bounded stress tests check that a second thread never sees
half of one record and half of another (with a deliberately torn slot as
the positive control: the harness must be able to see what it rules out),
and that readers reconciling against a reassigning writer never raise
and never answer a marginal the registry did not hold during the read.
"""

from __future__ import annotations

import gc
import sys
import threading
import time
import weakref

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.algebra.expressions import Var, ssum
from repro.cache import CompilationCache, StampedSlot, capture_stamp
from repro.core.compile import Compiler
from repro.db.pvc_table import PVCDatabase, PVCRow, PVCTable
from repro.db.schema import Schema
from repro.prob.distribution import Distribution
from repro.prob.variables import VariableRegistry
from repro.query.tractability import tuple_independent_relations

TABLES = ("r", "s")

#: view name -> (table names or None for all, registry?)
VIEWS = {
    "every table": (None, False),
    "r alone": (("r",), False),
    "r, s and the registry": (("r", "s"), True),
    "the server's": (None, True),
}

tables = st.sampled_from(TABLES)
views = st.sampled_from(sorted(VIEWS))
values = st.integers(min_value=1, max_value=9)
probabilities = st.sampled_from((0.1, 0.25, 0.5, 0.75, 0.9))


class StampAndSlot(RuleBasedStateMachine):
    @initialize()
    def build(self):
        self.db = PVCDatabase()
        self.cache = CompilationCache(Compiler(self.db.registry))
        self.db.registry.bernoulli("w", 0.5)
        for name in TABLES:
            self.db.create_table(name, ["k", "v"])
            self.db.insert(name, ("a", 1), p=0.5)
        #: What has changed so far, per thing a view may depend on.
        self.clock = dict.fromkeys((*TABLES, "catalog", "registry"), 0)
        #: view -> [(clock at capture, stamp)]; stamps keep their tables
        #: alive, so a recreated table can never reuse a dead one's id.
        self.captured = {view: [] for view in VIEWS}
        self.slot = StampedSlot()
        #: Every ``offer``/``put`` so far: (method, stamp, token).
        self.log: list = []

    # -- the model -------------------------------------------------------------

    def capture(self, view):
        names, registry = VIEWS[view]
        stamp = capture_stamp(self.db, names, registry=registry)
        depends_on = [*(TABLES if names is None else names)]
        if names is None:
            depends_on.append("catalog")
        if registry:
            depends_on.append("registry")
        now = tuple(self.clock[part] for part in depends_on)
        for then, earlier in self.captured[view]:
            assert (earlier == stamp) == (then == now), (view, then, now)
        self.captured[view].append((now, stamp))
        return stamp

    def expected(self, stamp):
        """What ``get(stamp)`` must return, from the last two operations."""
        if not self.log or self.log[-1][1] != stamp:
            return None
        method, _, token = self.log[-1]
        if method == "put":
            return token
        seen_before = len(self.log) > 1 and self.log[-2][1] == stamp
        return token if seen_before else None

    def hand_in(self, method, stamp):
        token = (len(self.log), stamp)  # unique, and carries its stamp
        getattr(self.slot, method)(stamp, token)
        self.log.append((method, stamp, token))

    # -- changes to the database -----------------------------------------------

    @rule(name=tables, value=values)
    def row_write(self, name, value):
        # An existing variable: a fresh one would also move the registry.
        self.db.insert(name, ("b", value), annotation=Var("w"))
        self.clock[name] += 1

    @rule(name=tables)
    def equal_size_update(self, name):
        # A value the row never had: rewriting what is there bumps nothing.
        self.db.update(name, {"k": "a"}, {"v": 10 + sum(self.clock.values())})
        self.clock[name] += 1

    @rule(name=tables, p=probabilities)
    def probability_update(self, name, p):
        assert self.db.update(name, {"k": "a"}, p=p) == 1
        self.clock["registry"] += 1

    @rule(variable=st.sampled_from(("w", "r_0", "s_0")), p=probabilities)
    def bare_reassign(self, variable, p):
        self.db.registry.reassign(variable, Distribution.bernoulli(p))
        self.clock["registry"] += 1

    @rule(name=tables)
    def drop_and_recreate(self, name):
        old = self.db.tables.pop(name)
        new = self.db.create_table(name, ["k", "v"])
        for row in old.rows:
            new.add(row.values, row.annotation)
        self.clock[name] += 1

    @rule()
    def register_a_prebuilt_table(self):
        before = self.db.generation
        table = PVCTable(Schema(["k", "v"]), [PVCRow(("a", 1), Var("x0"))])
        self.db.add_table(f"t{len(self.db.tables)}", table)
        assert self.db.generation == before  # the sum does not see it
        self.clock["catalog"] += 1

    # -- the slot --------------------------------------------------------------

    @rule(view=views)
    def offer(self, view):
        self.hand_in("offer", self.capture(view))

    @rule(view=views)
    def put(self, view):
        self.hand_in("put", self.capture(view))

    @rule(view=views, name=tables, write=st.booleans())
    def put_with_a_second_capture(self, view, name, write):
        """What ``tuple_independent_relations`` does: a value computed
        across a write is refused, and whatever was kept stays."""
        stamp = self.capture(view)
        if write:
            self.row_write(name, 1)
        after = self.capture(view)
        token = (len(self.log), stamp)
        kept = self.slot.put(stamp, token, after=after)
        assert kept == (after == stamp)
        if kept:
            self.log.append(("put", stamp, token))

    @rule(view=views)
    def get(self, view):
        stamp = self.capture(view)
        value = self.slot.get(stamp)
        assert value == self.expected(stamp)
        if value is not None:
            assert value[1] == stamp

    @invariant()
    def every_view_answers_as_the_log_says(self):
        for view in VIEWS:
            stamp = self.capture(view)
            assert self.slot.get(stamp) == self.expected(stamp)

    @invariant()
    def the_cache_answers_as_a_compiler_built_now(self):
        annotations = {
            row.annotation for name in TABLES for row in self.db[name].rows
        }
        annotations.add(ssum(sorted(annotations, key=repr)))
        scratch = Compiler(self.db.registry)
        for annotation in annotations:
            kept = self.cache.distribution(annotation)
            fresh = scratch.distribution(annotation)
            assert all(abs(kept[v] - fresh[v]) <= 1e-12 for v in (True, False))


StampAndSlot.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
TestStampAndSlot = StampAndSlot.TestCase


# -- one record, replaced whole -------------------------------------------------


def torn_reads(slot, seconds: float) -> int:
    """Readers on more threads than cores race one writer alternating
    ``put``/``offer`` between two stamps, under a short switch interval,
    until a reader gets a value handed in at another stamp than the one
    it asked for or ``seconds`` pass.  The number of such reads."""
    stamps = (("one",), ("other",))
    torn: list = []
    done = threading.Event()

    def read():
        while not done.is_set():
            for stamp in stamps:
                value = slot.get(stamp)
                if value is not None and value[1] != stamp:
                    torn.append((stamp, value))
                    done.set()

    readers = [threading.Thread(target=read) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for reader in readers:
            reader.start()
        deadline = time.monotonic() + seconds
        n = 0
        while not done.is_set() and time.monotonic() < deadline:
            stamp = stamps[(n // 2) % 2]
            (slot.put, slot.offer)[n % 2](stamp, (n, stamp))
            n += 1
    finally:
        done.set()
        for reader in readers:
            reader.join(timeout=10)
        sys.setswitchinterval(interval)
    assert not any(reader.is_alive() for reader in readers)
    return len(torn)


class _TwoStepSlot(StampedSlot):
    """The bug the one-tuple record rules out: stamp first, value second."""

    def _pause(self):
        pass

    def put(self, stamp, value):
        self._record = (stamp, self._record[1])
        self._pause()  # a call: where CPython may switch threads
        self._record = (stamp, value)


class TestReplacedWhole:
    def test_readers_never_see_half_a_record(self):
        assert torn_reads(StampedSlot(), seconds=0.3) == 0

    def test_the_harness_sees_a_record_written_in_two_steps(self):
        assert torn_reads(_TwoStepSlot(), seconds=10) > 0


# -- readers reconciling against a reassigning writer ----------------------------


class _ToldNothingCache(CompilationCache):
    """What a cache that waits to be told does under this writer."""

    def _reconcile_locked(self):
        return self._compiler


def stale_reads(cache_class, seconds: float) -> int:
    """One writer raises the marginal of each of 48 variables step by
    step through bare ``registry.reassign`` calls while readers ask a
    shared cache for them through every entry point, and a scanner reads
    the whole reassignment record over and over, under a short switch
    interval.  Marginals only ever grow, so an answer below what the
    registry held *before* the read began is a distribution kept across
    a reassignment, and one above what it holds after is torn.  The
    number of such reads; any exception in any thread fails the test."""
    names = [f"x{i}" for i in range(48)]
    registry = VariableRegistry()
    for name in names:
        registry.bernoulli(name, 0.0)
    cache = cache_class(Compiler(registry))
    bad: list = []
    errors: list = []
    done = threading.Event()

    def guarded(body):
        def run():
            try:
                while not done.is_set():
                    body()
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)
                done.set()
        return threading.Thread(target=run)

    def read():
        for name in names:
            epoch = registry.epoch  # before the marginal, as a fan-out does
            before = registry[name][True]
            key = cache.normalize(Var(name))
            answers = [cache.distribution(Var(name)), cache.cached(key)]
            answers.append(cache.compile(key).distribution(cache.compiler.context))
            cache.absorb(key, answers[0], epoch)
            cache.stats()
            after = registry[name][True]
            for answer in answers:
                if answer is not None and not before <= answer[True] <= after:
                    bad.append((name, before, answer[True], after))
                    done.set()

    def scan():
        seen = registry.reassigned_since(0)
        assert len(seen) == len(set(seen)) <= len(names)

    threads = [guarded(read) for _ in range(3)] + [guarded(scan)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + seconds
        step = 0
        while not done.is_set() and time.monotonic() < deadline and step < 10**6:
            step += 1
            registry.reassign(names[step % len(names)], Distribution.bernoulli(step / 10**6))
    finally:
        done.set()
        for thread in threads:
            thread.join(timeout=10)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    # A clean run reassigned every variable at least once.
    assert bad or step > len(names)
    return len(bad)


class TestReconciledOnRead:
    def test_readers_never_answer_older_than_the_registry(self):
        assert stale_reads(CompilationCache, seconds=0.5) == 0

    def test_the_harness_sees_a_cache_that_waits_to_be_told(self):
        assert stale_reads(_ToldNothingCache, seconds=10) > 0


def test_a_slot_on_the_database_does_not_keep_it_alive():
    """The stamp holds tables, never the database: the independence memo
    lives on the database, and a cycle through it would leave every
    dropped database (each cold pass builds one) to the cyclic collector."""
    db = PVCDatabase()
    db.create_table("r", ["k"])
    db.insert("r", (1,), p=0.5)
    tuple_independent_relations(db)
    assert db.independence_memo.get(capture_stamp(db)) == {"r"}
    gone = weakref.ref(db)
    gc.disable()
    try:
        del db
        assert gone() is None
    finally:
        gc.enable()
