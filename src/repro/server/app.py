"""The async multi-tenant query server.

One :class:`QueryServer` fronts one shared (and, since the mutable-table
work, *writable*) :class:`~repro.db.pvc_table.PVCDatabase` for many
tenants:

* **Per-tenant sessions over shared base data.**  Each tenant name maps
  to its own :class:`~repro.session.Session` (engines, Monte-
  Carlo RNG state), all opened over the *same* database, the same
  server-wide :class:`~repro.cache.CompilationCache` and the same
  :class:`~repro.engine.base.PlanCache` — so one tenant's compile work
  is every tenant's cache hit.
* **A shared prepared-statement cache** keyed on normalised query text
  (:mod:`repro.server.statements`): a repeated statement skips parsing,
  planning *and* d-tree compilation entirely — and, from its third
  request at one database state, evaluation and encoding too: the entry
  keeps the encoded reply, JSON bytes included, and
  :meth:`QueryServer.execute` hands it back on the event loop.
* **Bounded admission with load-shedding to anytime answers.**  Past
  ``soft_limit`` concurrent requests the server rewrites incoming
  evaluation specs to budgeted anytime mode (PR 4's ``EvalSpec``):
  answers come back as *sound* probability intervals computed under a
  strict budget/time cap instead of queueing unboundedly.  Past
  ``hard_limit`` requests are shed with a structured overload error
  (HTTP 503 + ``Retry-After``).
* **A non-blocking event loop.**  Reads and streams compile/evaluate
  on a thread pool; within a tenant they serialise on a per-tenant lock
  (sessions hold engine state), while different tenants execute
  concurrently — and can fan out to the :mod:`repro.parallel` process
  pool via the usual ``workers`` spec field.  Writes and kept replies,
  which compile nothing, run on the loop itself.

* **Writes where they arrive, with lineage-scoped invalidation.**
  ``POST /mutate`` (or the TCP ``mutate`` op) inserts, updates or
  deletes rows of the shared database, one write at a time on the loop,
  and tells no cache anything: on its next read the shared distribution
  cache drops exactly the entries whose variables a mutation
  re-weighted, plans re-key on row counts and kept answers and replies
  on their stamp (:mod:`repro.cache`) — every tenant's next answer
  reflects the write, and nothing that did not change recompiles.

The wire protocols live in :mod:`repro.server.http` (JSON over HTTP:
``POST /query``, ``POST /mutate``, ``GET /stats``, ``GET /healthz``)
and :mod:`repro.server.tcp` (line-delimited JSON with streaming
``run_iter`` interval snapshots).
"""

from __future__ import annotations

import asyncio
import functools
import queue as queue_module
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace

from repro.cache import capture_stamp
from repro.core.compile import Compiler
from repro.db.pvc_table import PVCDatabase
from repro.engine.base import CompilationCache, ENGINE_NAMES, PlanCache
from repro.engine.spec import (
    _SPEC_FIELDS,
    degraded_mode,
    implied_mode,
    is_positive_int,
    native_engine,
)
from repro.errors import QueryValidationError, ReproError
from repro.server import http as http_protocol
from repro.server import tcp as tcp_protocol
from repro.server.codec import encode_result, jsonable
from repro.server.statements import StatementCache, normalise_statement
from repro.session import Session

__all__ = [
    "ServerConfig",
    "QueryServer",
    "ProtocolError",
    "ServerOverloadedError",
]

class ProtocolError(ReproError):
    """A request violates the wire protocol (malformed envelope)."""


class ServerOverloadedError(ReproError):
    """The hard admission limit tripped; retry after ``retry_after``."""

    def __init__(self, retry_after: float):
        super().__init__(
            f"server overloaded; retry after {retry_after:g} seconds"
        )
        self.retry_after = retry_after


@dataclass(frozen=True)
class ServerConfig:
    """Tunables of a :class:`QueryServer` (all have serving defaults).

    ``soft_limit``/``hard_limit`` bound concurrent admitted requests:
    at ``soft_limit`` new requests degrade to budgeted anytime specs
    (``shed_epsilon``/``shed_budget``/``shed_time_limit``), at
    ``hard_limit`` they are shed with ``retry_after``.  ``max_tenants``
    bounds per-tenant server state (sessions and locks are keyed on
    client-supplied tenant names): past it the least-recently-used
    *idle* tenant is evicted, and when every tenant is busy the request
    is shed like a hard-limit trip.  ``tcp_port``
    ``None`` means "next port after ``port``" (or another ephemeral port
    when ``port`` is 0).  ``threads`` sizes the executor pool the event
    loop offloads the compile/eval work of reads to (writes never leave
    the loop).  ``drain_timeout``
    bounds graceful shutdown: :meth:`QueryServer.stop` sheds new
    arrivals (503 + ``Retry-After``) and waits up to this many seconds
    for in-flight requests to finish before abandoning them.
    """

    host: str = "127.0.0.1"
    port: int = 8642
    tcp_port: int | None = None
    threads: int = 4
    statement_cache_size: int | None = 256
    plan_cache_size: int | None = 256
    distribution_cache_size: int | None = 4096
    soft_limit: int = 8
    hard_limit: int = 32
    max_tenants: int = 64
    shed_epsilon: float = 0.05
    shed_budget: int = 2048
    shed_time_limit: float = 0.25
    retry_after: float = 1.0
    drain_timeout: float = 5.0
    default_engine: str = "auto"
    seed: int | None = None
    samples: int = 1000

    def __post_init__(self):
        if self.threads < 1:
            raise QueryValidationError(
                f"threads must be >= 1, got {self.threads!r}"
            )
        if self.soft_limit < 0 or self.hard_limit < 0:
            raise QueryValidationError("admission limits must be >= 0")
        if self.soft_limit > self.hard_limit:
            raise QueryValidationError(
                f"soft_limit ({self.soft_limit}) must not exceed "
                f"hard_limit ({self.hard_limit})"
            )
        if self.max_tenants < 1:
            raise QueryValidationError(
                f"max_tenants must be >= 1, got {self.max_tenants!r}"
            )
        if self.shed_epsilon <= 0 or self.shed_budget <= 0:
            raise QueryValidationError(
                "shed_epsilon and shed_budget must be positive"
            )
        if self.shed_time_limit <= 0 or self.retry_after <= 0:
            raise QueryValidationError(
                "shed_time_limit and retry_after must be positive"
            )
        if self.drain_timeout < 0:
            raise QueryValidationError(
                f"drain_timeout must be >= 0, got {self.drain_timeout!r}"
            )


class QueryServer:
    """Serve one shared probabilistic database to many tenants."""

    #: Lock discipline, enforced statically by the ``locks`` checker of
    #: ``repro.analysis``.  ``_counters_lock`` is a leaf lock (it is
    #: taken inside ``_sessions_lock`` by the eviction path, never the
    #: other way around): protocol handlers bump counters from executor
    #: threads while the event loop mutates them too, so every counter
    #: update is a guarded read-modify-write.  Admission state
    #: (``_inflight``/``_draining``) shares the counter lock so
    #: ``_admit`` can check-and-claim a slot atomically.
    _shared_state_ = {
        "_counters_lock": ("_counters", "_inflight", "_draining"),
        "_sessions_lock": ("_sessions", "_tenant_locks", "_tenant_busy"),
    }

    def __init__(self, db: PVCDatabase, config: ServerConfig | None = None, **overrides):
        self.config = replace(config or ServerConfig(), **overrides)
        self.db = db
        #: The three server-wide caches every tenant session shares.
        self.cache = CompilationCache(
            Compiler(db.registry, db.semiring),
            max_entries=self.config.distribution_cache_size,
        )
        self.plans = PlanCache(max_entries=self.config.plan_cache_size)
        self.statements = StatementCache(
            max_entries=self.config.statement_cache_size
        )
        self._sessions: OrderedDict[str, Session] = OrderedDict()
        self._sessions_lock = threading.Lock()
        self._tenant_locks: dict[str, asyncio.Lock] = {}
        self._tenant_busy: dict[str, int] = {}
        self._executor: ThreadPoolExecutor | None = None
        self._http_server: asyncio.AbstractServer | None = None
        self._tcp_server: asyncio.AbstractServer | None = None
        self.http_address: tuple[str, int] | None = None
        self.tcp_address: tuple[str, int] | None = None
        self._started_monotonic: float | None = None
        self._counters_lock = threading.Lock()
        self._inflight = 0
        self._draining = False
        self._counters = {
            "requests": 0,
            "completed": 0,
            "degraded": 0,
            "shed": 0,
            "errors": 0,
            "streams": 0,
            "mutations": 0,
            "replies_reused": 0,
            "tenants_evicted": 0,
            "drain_abandoned": 0,
        }

    # -- tenant state ----------------------------------------------------------

    def session(self, tenant: str) -> Session:
        """The (lazily created) session of ``tenant``.

        All tenants share the database, the distribution cache and the
        plan cache; the session carries only the per-tenant engine
        engines and RNG state.  Tenant state is bounded by
        ``config.max_tenants``: creating one more evicts the least-
        recently-used idle tenant, and raises
        :class:`ServerOverloadedError` when every tenant is busy.
        """
        with self._sessions_lock:
            return self._session_locked(tenant)

    def _count(self, key: str, n: int = 1) -> None:
        """Bump a server counter (``+=`` on a dict entry is a
        read-modify-write, and counters are hit from executor threads)."""
        with self._counters_lock:
            self._counters[key] += n

    def _session_locked(self, tenant: str) -> Session:
        session = self._sessions.get(tenant)
        if session is None:
            if len(self._sessions) >= self.config.max_tenants:
                self._evict_idle_tenant_locked()
            session = Session(
                engine=self.config.default_engine,
                seed=self.config.seed,
                samples=self.config.samples,
                database=self.db,
                cache=self.cache,
                plan_cache=self.plans,
            )
            self._sessions[tenant] = session
            self._tenant_locks[tenant] = asyncio.Lock()
        else:
            self._sessions.move_to_end(tenant)
        return session

    def _evict_idle_tenant_locked(self) -> None:
        """Drop the LRU tenant with no in-flight request.

        Caller holds ``_sessions_lock``; counters take their own leaf
        lock via :meth:`_count` (``_sessions_lock`` alone does not
        protect ``_counters`` — admission paths bump them without it).
        """
        victim = next(
            (name for name in self._sessions if name not in self._tenant_busy),
            None,
        )
        if victim is None:
            self._count("shed")
            raise ServerOverloadedError(self.config.retry_after)
        session = self._sessions.pop(victim)
        # Safe on a shared cache: close() releases only session-owned
        # state (engines, memos); the server-wide distribution
        # and plan caches keep every other tenant's warm entries.
        session.close()
        self._tenant_locks.pop(victim, None)
        self._count("tenants_evicted")

    def _acquire_tenant(self, tenant: str) -> tuple[Session, asyncio.Lock]:
        """Tenant session + lock, refcounted busy until _release_tenant.

        The busy refcount pins the tenant against LRU eviction for the
        whole request — including the time spent *waiting* on the
        tenant lock — so two requests of one tenant can never end up on
        two different ``Session`` objects.
        """
        with self._sessions_lock:
            session = self._session_locked(tenant)
            self._tenant_busy[tenant] = self._tenant_busy.get(tenant, 0) + 1
            return session, self._tenant_locks[tenant]

    def _release_tenant(self, tenant: str) -> None:
        with self._sessions_lock:
            count = self._tenant_busy.get(tenant, 0) - 1
            if count > 0:
                self._tenant_busy[tenant] = count
            else:
                self._tenant_busy.pop(tenant, None)

    # -- request validation ----------------------------------------------------

    def _unpack(self, payload) -> tuple[str, str, str | None, int | None, dict]:
        """Validate a query request envelope; raise ProtocolError early."""
        if not isinstance(payload, dict):
            raise ProtocolError(
                f"request must be a JSON object, got {type(payload).__name__}"
            )
        sql = payload.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            raise ProtocolError("request needs a non-empty 'sql' string")
        tenant = payload.get("tenant", "default")
        if not isinstance(tenant, str) or not tenant or len(tenant) > 200:
            raise ProtocolError(
                "'tenant' must be a non-empty string of at most 200 chars"
            )
        engine = payload.get("engine")
        if engine is not None and (
            not isinstance(engine, str)
            or (engine != "auto" and engine not in ENGINE_NAMES)
        ):
            raise ProtocolError(
                f"unknown engine {engine!r}; expected 'auto' or one of "
                f"{list(ENGINE_NAMES)}"
            )
        samples = payload.get("samples")
        if samples is not None and not is_positive_int(samples):
            raise ProtocolError("'samples' must be a positive integer")
        spec = payload.get("spec")
        if spec is None:
            fields: dict = {}
        elif isinstance(spec, dict):
            unknown = set(spec) - set(_SPEC_FIELDS)
            if unknown:
                raise ProtocolError(
                    f"unknown EvalSpec fields {sorted(unknown)}"
                )
            fields = {
                key: value for key, value in spec.items() if value is not None
            }
        else:
            raise ProtocolError(
                f"'spec' must be a JSON object of EvalSpec fields, got "
                f"{type(spec).__name__}"
            )
        unknown_keys = set(payload) - {
            "sql", "tenant", "engine", "samples", "spec", "op"
        }
        if unknown_keys:
            raise ProtocolError(
                f"unknown request fields {sorted(unknown_keys)}"
            )
        return sql, tenant, engine, samples, fields

    def _unpack_mutation(self, payload) -> tuple[str, str, dict]:
        """Validate a mutation request envelope; raise ProtocolError early."""
        if not isinstance(payload, dict):
            raise ProtocolError(
                f"request must be a JSON object, got {type(payload).__name__}"
            )
        table = payload.get("table")
        if not isinstance(table, str) or not table:
            raise ProtocolError("mutation needs a non-empty 'table' string")
        action = payload.get("action")
        if action not in ("insert", "update", "delete"):
            raise ProtocolError(
                f"unknown mutation action {action!r}; expected "
                f"'insert', 'update' or 'delete'"
            )
        allowed = {"op", "tenant", "table", "action"}
        if action == "insert":
            allowed |= {"values", "p"}
            if "values" not in payload:
                raise ProtocolError("insert needs a 'values' list or object")
        else:
            where = payload.get("where")
            if not isinstance(where, dict) or not where:
                raise ProtocolError(
                    f"{action} needs a non-empty 'where' object "
                    f"(attribute equality match)"
                )
            allowed |= {"where"}
            if action == "update":
                allowed |= {"set", "p"}
                if payload.get("set") is None and payload.get("p") is None:
                    raise ProtocolError("update needs 'set' and/or 'p'")
        p = payload.get("p")
        if p is not None and (
            isinstance(p, bool) or not isinstance(p, (int, float))
        ):
            raise ProtocolError("'p' must be a number")
        unknown = set(payload) - allowed
        if unknown:
            raise ProtocolError(f"unknown mutation fields {sorted(unknown)}")
        return table, action, payload

    def _apply_mutation(self, table: str, action: str, payload: dict) -> dict:
        """Apply one validated mutation, on the event loop.

        A write is an O(rows of the named table) edit that compiles
        nothing; it runs where it arrives, one at a time, so no lock
        keeps writes apart.  Every shared cache validates against the
        counters it bumped on its next read.
        """
        if action == "insert":
            values = payload["values"]
            if isinstance(values, list):
                values = tuple(values)
            self.db.insert(table, values, p=payload.get("p"))
            rows = 1
        elif action == "update":
            rows = self.db.update(
                table,
                payload["where"],
                set_values=payload.get("set"),
                p=payload.get("p"),
            )
        else:
            rows = self.db.delete(table, payload["where"])
        return {
            "table": table,
            "action": action,
            "rows": rows,
            "db_generation": self.db.generation,
        }

    async def mutate(self, payload) -> dict:
        """The write path shared by ``POST /mutate`` and the TCP op.

        Mutations claim an in-flight slot like queries (a write burst
        counts against the admission limits) but are never degraded —
        load-shedding rewrites *answers* to anytime mode, while a write
        either happens exactly or not at all — and never wait for a pool
        thread: :meth:`_apply_mutation` runs inline.
        """
        self._count("requests")
        table, action, fields = self._unpack_mutation(payload)
        tenant = payload.get("tenant", "default")
        if not isinstance(tenant, str) or not tenant or len(tenant) > 200:
            raise ProtocolError(
                "'tenant' must be a non-empty string of at most 200 chars"
            )
        self._admit()  # claims the in-flight slot on success
        try:
            mutation = self._apply_mutation(table, action, fields)
        finally:
            self._release_slot()
        self._count("completed")
        self._count("mutations")
        return {"mutation": mutation, "tenant": tenant}

    # -- admission control -----------------------------------------------------

    def _admit(self) -> bool:
        """Claim an in-flight slot; True when the request must degrade.

        Check and claim are one atomic step under ``_counters_lock`` —
        a burst of concurrent arrivals each sees the count including the
        slots the others already claimed, so the limits cannot be
        overshot.  Raises when the request must shed instead; on success
        the caller owns one slot and must give it back via
        :meth:`_release_slot` in a ``finally`` covering parsing, lock
        wait and execution.
        """
        with self._counters_lock:
            if self._draining:
                # A draining server finishes what it admitted and sheds
                # the rest — new arrivals get 503 + Retry-After, never a
                # hang.
                self._counters["shed"] += 1
                raise ServerOverloadedError(self.config.retry_after)
            if self._inflight >= self.config.hard_limit:
                self._counters["shed"] += 1
                raise ServerOverloadedError(self.config.retry_after)
            self._inflight += 1
            return self._inflight > self.config.soft_limit

    def _release_slot(self) -> None:
        with self._counters_lock:
            self._inflight -= 1

    def _shed_rewrite(
        self, engine: str | None, samples: int | None, fields: dict
    ) -> tuple[str | None, int | None, dict]:
        """Rewrite a request to budgeted anytime mode under load.

        The rewritten spec always yields *sound* interval answers —
        deterministic ε-bounds (``approx``) or (ε, δ) confidence
        intervals (``sample`` for Monte-Carlo intent) — under a strict
        budget and time cap, so a loaded server degrades answer width,
        never answer correctness, and never queues unboundedly.
        """
        cfg = self.config
        fields = dict(fields)
        mode = degraded_mode(fields.get("mode") or implied_mode(engine))
        fields["mode"] = mode
        fields.setdefault("epsilon", cfg.shed_epsilon)
        budget = fields.get("budget")
        if samples is not None:
            # The legacy fixed Monte-Carlo budget folds into spec.budget.
            budget = samples if budget is None else min(budget, samples)
            samples = None
        fields["budget"] = (
            cfg.shed_budget if budget is None else min(budget, cfg.shed_budget)
        )
        time_limit = fields.get("time_limit")
        fields["time_limit"] = (
            cfg.shed_time_limit
            if time_limit is None
            else min(time_limit, cfg.shed_time_limit)
        )
        # An engine named for another mode gives way to the dispatcher.
        native = native_engine(mode)
        engine = native if engine in (None, native) else "auto"
        return engine, samples, fields

    # -- query execution -------------------------------------------------------

    async def execute(self, payload) -> dict:
        """The one-shot query path shared by the HTTP and TCP protocols.

        A request whose statement entry holds a reply for its option set
        at the current :meth:`_stamp` is answered right here, on the
        event loop: validation, admission, the tenant touch (LRU order,
        ``max_tenants`` shedding) and the counters are those of any
        request, but nothing is offloaded, the tenant lock is not taken
        (a stream holding it does not delay the answer), no session runs
        and the result is not serialised — ``reply_reused`` is true and
        the ``result`` is the very object an earlier run produced, its
        ``timings``, volatile stats and JSON bytes included (the protocol
        writers splice the bytes; only the envelope's small fields are
        encoded).  Everything else takes one executor hop through
        :meth:`_run_statement`, which serialises the result there.
        """
        self._count("requests")
        sql, tenant, engine, samples, fields = self._unpack(payload)
        degraded = self._admit()  # claims the in-flight slot on success
        try:
            if degraded:
                # A degraded answer depends on the load, not only on the
                # database: it is neither looked up nor kept.
                options = None
                self._count("degraded")
                engine, samples, fields = self._shed_rewrite(
                    engine, samples, fields
                )
            else:
                options = repr((engine, samples, sorted(fields.items())))
            key = normalise_statement(sql)
            session, lock = self._acquire_tenant(tenant)
            try:
                result = None
                if options is not None:
                    result = self.statements.reply(key, options, self._stamp())
                reply_reused = result is not None
                if reply_reused:
                    statement_hit = True
                    self._count("replies_reused")
                else:
                    async with lock:
                        result, statement_hit = await self._offload(
                            self._run_statement,
                            session,
                            key,
                            options,
                            engine=engine,
                            samples=samples,
                            **fields,
                        )
            finally:
                self._release_tenant(tenant)
        finally:
            self._release_slot()
        self._count("completed")
        return {
            "result": result,
            "tenant": tenant,
            "degraded": degraded,
            "statement_cache_hit": statement_hit,
            "reply_reused": reply_reused,
        }

    def _stamp(self) -> tuple:
        """What an exact answer depends on besides its text and options."""
        return capture_stamp(self.db, registry=True)

    def _run_statement(
        self, session: Session, key: str, options: str | None, **run_options
    ) -> tuple:
        """One request's blocking work, as one executor hop: statement
        lookup, evaluation and encoding.  ``(encoded result, hit)``.

        The result is serialised here, once, off the event loop: it is an
        :class:`~repro.server.codec.EncodedResult`, whose JSON bytes the
        protocol writers splice into the envelope.  ``key`` is the
        normalised text.  With ``options`` (the request's option set;
        ``None`` for a degraded request) the reply, bytes included, is
        offered to the statement entry for later requests — unless
        something outside the stamp decided it: Monte-Carlo answers
        consume the tenant's RNG stream, a ``deadline_hit`` answer depends
        on the clock.  The stored reply is never changed afterwards.
        """
        stamp = self._stamp()  # before the run
        query, statement_hit = self.statements.get_or_parse(key)
        result = encode_result(session.run(query, **run_options))
        if (
            options is not None
            and result["engine"] != "montecarlo"
            and not result["stats"].get("deadline_hit")
        ):
            self.statements.keep_reply(key, options, stamp, result)
        return result, statement_hit

    async def execute_stream(self, payload):
        """Async generator of ``run_iter`` snapshots (the TCP stream op).

        Each yielded item is ``{"snapshot": <result>, "seq": n, ...}``;
        the per-tenant lock and the in-flight slot are held for the whole
        stream, so a stream counts against the admission limits like one
        long request.
        """
        self._count("requests")
        self._count("streams")
        sql, tenant, engine, samples, fields = self._unpack(payload)
        if samples is not None:
            raise ProtocolError(
                "streams refine under an EvalSpec; pass 'spec' "
                "(e.g. {'mode': 'sample', 'budget': ...}) instead of 'samples'"
            )
        degraded = self._admit()  # claims the in-flight slot on success
        try:
            if degraded:
                self._count("degraded")
                engine, samples, fields = self._shed_rewrite(
                    engine, samples, fields
                )
            session, lock = self._acquire_tenant(tenant)
            try:
                loop = asyncio.get_running_loop()
                # Hand-off between the run_iter thread and the async
                # consumer is a *thread* queue with a stop flag: the
                # producer only ever blocks with a timeout, so an
                # abandoned stream (client went away mid-refinement) can
                # always be unwound — it must never pin an executor
                # thread, and stop() must never deadlock on it.
                items: queue_module.Queue = queue_module.Queue(maxsize=4)
                abandoned = threading.Event()
                finished = threading.Event()

                def push(item) -> bool:
                    while not abandoned.is_set():
                        try:
                            items.put(item, timeout=0.05)
                            return True
                        except queue_module.Full:
                            continue
                    return False

                def producer():
                    try:
                        try:
                            # The statement lookup rides the producer's
                            # executor hop, like the one-shot path's.
                            query, hit = self.statements.get_or_parse(sql)
                            for snapshot in session.run_iter(
                                query, engine=engine, **fields
                            ):
                                if not push((
                                    "snapshot",
                                    (encode_result(snapshot), hit),
                                )):
                                    return
                        except BaseException as exc:  # to the consumer
                            push(("error", exc))
                        else:
                            push(("done", None))
                    finally:
                        finished.set()

                async def next_item():
                    # Poll rather than block a thread on items.get(): a
                    # blocked get could outlive an abandoned generator.
                    # Snapshots arrive on millisecond refinement rounds;
                    # 2ms polling is invisible.
                    while True:
                        try:
                            return items.get_nowait()
                        except queue_module.Empty:
                            await asyncio.sleep(0.002)

                # The lock is managed by hand (not `async with`) so an
                # abandoned stream's cleanup runs *before* release: on
                # GeneratorExit a context manager would release at
                # unwind time while the producer thread may still be
                # inside session.run_iter — letting a new same-tenant
                # request run concurrently on the same Session.
                await lock.acquire()
                future = None
                try:
                    future = loop.run_in_executor(self._executor, producer)
                    seq = 0
                    while True:
                        kind, value = await next_item()
                        if kind == "snapshot":
                            seq += 1
                            snapshot, statement_hit = value
                            yield {
                                "snapshot": snapshot,
                                "seq": seq,
                                "tenant": tenant,
                                "degraded": degraded,
                                "statement_cache_hit": statement_hit,
                            }
                        elif kind == "error":
                            raise value
                        else:
                            break
                    await future
                finally:
                    # Stop the producer, then hold the tenant lock until
                    # it has actually exited (it notices `abandoned`
                    # within its 50ms push timeout, or at the end of the
                    # current refinement round).
                    abandoned.set()
                    try:
                        if future is not None:
                            while not finished.is_set():
                                await asyncio.sleep(0.002)
                    finally:
                        while True:
                            try:
                                items.get_nowait()
                            except queue_module.Empty:
                                break
                        lock.release()
            finally:
                self._release_tenant(tenant)
        finally:
            self._release_slot()
        self._count("completed")

    async def _offload(self, fn, *args, **kwargs):
        """Run a read's blocking work on the executor pool."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._executor, functools.partial(fn, *args, **kwargs)
        )

    def note_error(self) -> None:
        """Protocol layers report a failed request for /stats accounting."""
        self._count("errors")

    # -- observability ---------------------------------------------------------

    def stats(self) -> dict:
        """The ``GET /stats`` payload: counters and cache hit rates."""
        uptime = (
            time.monotonic() - self._started_monotonic
            if self._started_monotonic is not None
            else 0.0
        )
        with self._sessions_lock:
            tenants = sorted(self._sessions)
        with self._counters_lock:
            inflight = self._inflight
            draining = self._draining
            counters = dict(self._counters)
        return {
            "server": {
                "uptime_seconds": uptime,
                "inflight": inflight,
                "draining": draining,
                "soft_limit": self.config.soft_limit,
                "hard_limit": self.config.hard_limit,
                "max_tenants": self.config.max_tenants,
                "tenants": len(tenants),
                **counters,
            },
            "statement_cache": self.statements.stats(),
            "plan_cache": self.plans.stats(),
            "distribution_cache": self.cache.stats(),
            "database": {
                "tables": {
                    name: len(table) for name, table in self.db.tables.items()
                },
                "variables": len(self.db.registry),
                "generation": self.db.generation,
                "mutations": {
                    "total": sum(self.db.mutations.values()),
                    **self.db.mutations,
                },
            },
            "config": jsonable(asdict(self.config)),
        }

    def healthz(self) -> dict:
        with self._sessions_lock:
            tenants = len(self._sessions)
        with self._counters_lock:
            inflight = self._inflight
        return {"status": "ok", "inflight": inflight, "tenants": tenants}

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> "QueryServer":
        """Bind the HTTP and TCP listeners and start the executor pool."""
        if self._http_server is not None:
            raise ProtocolError("server already started")
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.threads,
            thread_name_prefix="repro-server",
        )
        self._started_monotonic = time.monotonic()
        self._http_server = await asyncio.start_server(
            functools.partial(http_protocol.handle_connection, self),
            self.config.host,
            self.config.port,
        )
        self.http_address = self._http_server.sockets[0].getsockname()[:2]
        tcp_port = self.config.tcp_port
        if tcp_port is None:
            tcp_port = 0 if self.config.port == 0 else self.config.port + 1
        self._tcp_server = await asyncio.start_server(
            functools.partial(tcp_protocol.handle_connection, self),
            self.config.host,
            tcp_port,
            # readline() is bounded by the stream limit; one request is
            # one line, so the limit must cover MAX_LINE_BYTES.
            limit=tcp_protocol.MAX_LINE_BYTES + 1024,
        )
        self.tcp_address = self._tcp_server.sockets[0].getsockname()[:2]
        return self

    async def stop(self, drain_timeout: float | None = None) -> None:
        """Drain gracefully, then close the listeners and executor.

        The drain contract: the moment ``stop`` is called, new arrivals
        are shed with a structured overload error (503 + ``Retry-After``
        on HTTP) — including requests on already open keep-alive
        connections — while requests admitted before the drain get up to
        ``drain_timeout`` seconds (default ``config.drain_timeout``) to
        finish normally.  Whatever is still running past the window is
        abandoned to the executor (counted in ``drain_abandoned``)
        rather than holding shutdown hostage.
        """
        if drain_timeout is None:
            drain_timeout = self.config.drain_timeout
        with self._counters_lock:
            self._draining = True
        for server in (self._http_server, self._tcp_server):
            if server is not None:
                server.close()
        deadline = time.monotonic() + drain_timeout
        while self._inflight > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        abandoned = self._inflight
        if abandoned:
            self._count("drain_abandoned", abandoned)
        for server in (self._http_server, self._tcp_server):
            if server is not None:
                # wait_closed() is bounded defensively: on some Python
                # versions it also waits for open client connections,
                # which an abandoned stream could hold indefinitely.
                try:
                    await asyncio.wait_for(server.wait_closed(), timeout=1.0)
                except asyncio.TimeoutError:
                    pass
        self._http_server = None
        self._tcp_server = None
        if self._executor is not None:
            executor = self._executor
            self._executor = None
            if abandoned:
                # Don't join threads still running abandoned work — let
                # them finish (or die with the process) in the background.
                executor.shutdown(wait=False, cancel_futures=True)
            else:
                # Join worker threads OFF the event loop: a
                # shutdown(wait=True) here would block the loop and
                # deadlock any in-flight work that still needs a loop
                # tick to finish.
                await asyncio.get_running_loop().run_in_executor(
                    None, functools.partial(executor.shutdown, wait=True)
                )
        with self._counters_lock:
            self._draining = False

    async def serve_forever(self) -> None:
        """Start (when needed) and serve until cancelled."""
        if self._http_server is None:
            await self.start()
        await asyncio.gather(
            self._http_server.serve_forever(),
            self._tcp_server.serve_forever(),
        )

    async def __aenter__(self) -> "QueryServer":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> bool:
        await self.stop()
        return False

    def __repr__(self):
        return (
            f"QueryServer(http={self.http_address}, tcp={self.tcp_address}, "
            f"tenants={len(self._sessions)}, inflight={self._inflight})"
        )
