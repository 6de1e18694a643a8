"""The two served workloads: the real server as a child process, driven
from this process by one event loop with two closed-loop connections.

Closed loop, because the clients of a query server are callers that wait
for the reply: each connection (one tenant) sends its next operation only
when the previous one has been answered.  ``served_mixed`` replaces every
10th operation of ``served_reads``' mix by a write.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import pathlib
import re
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

from repro.server import (
    ServerClient,
    ServerError,
    SymbolicValue,
    demo_session,
)

from . import data, oracle
from .inproc import Outcome, layer_split, measure_passes, run_probe
from .reference import PAIRED_NOMINAL, Paired, probe, slowdown, slowdown_around
from .stats import Tracer, percentile

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
CLIENTS = 2
CLOCK_TICK = os.sysconf("SC_CLK_TCK")


# -- the server child ----------------------------------------------------------


class ServerProcess:
    """``python -m repro.server --port 0 --scale 32 --threads 2`` —
    deployment defaults otherwise; the address is read from its stdout."""

    def __init__(self):
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + env.get("PYTHONPATH", "").split(os.pathsep)
        ).rstrip(os.pathsep)
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.server", "--port", "0",
             "--scale", str(data.SERVED_SCALE), "--threads", "2"],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        try:
            http = self.process.stdout.readline()
            tcp = self.process.stdout.readline()
            self.host, port = re.search(r"http://([\d.]+):(\d+)", http).groups()
            self.port = int(port)
            self.tcp_port = int(re.search(r"tcp://[\d.]+:(\d+)", tcp).group(1))
        except Exception:
            self.stop()
            raise

    @property
    def pid(self) -> int:
        return self.process.pid

    def cpu_seconds(self) -> float:
        """user + system CPU of the server and its reaped children."""
        fields = pathlib.Path(f"/proc/{self.pid}/stat").read_text().rsplit(")", 1)[1].split()
        utime, stime, cutime, cstime = (int(fields[i]) for i in (11, 12, 13, 14))
        return (utime + stime + cutime + cstime) / CLOCK_TICK

    def peak_rss_mb(self) -> float:
        status = pathlib.Path(f"/proc/{self.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024.0

    def client(self, tenant: str) -> ServerClient:
        return ServerClient(self.host, self.port, tcp_port=self.tcp_port, tenant=tenant)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


async def warm(server: ServerProcess) -> None:
    """The hot zoo once on every tenant: fills the statement, plan and
    distribution caches the way a running deployment has them."""
    for index in range(CLIENTS):
        async with server.client(f"tenant-{index}") as client:
            for sql in data.HOT_ZOO:
                await client.query(sql)


def start_warm_server() -> tuple[ServerProcess, float]:
    """A warmed server and the seconds it took."""
    start = time.perf_counter()
    server = ServerProcess()
    try:
        asyncio.run(warm(server))
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - start


# -- the load ------------------------------------------------------------------


@dataclass
class Operation:
    client: int
    kind: str          # "hot" | "adhoc" | "write"
    key: str           # statement text, or the write action
    state: int         # the client's own write-cycle state when sent
    seconds: float = 0.0
    reply: object = None
    error: str | None = None


@dataclass
class Load:
    """What the clients saw.  All seconds are at reference speed."""

    operations: list = field(default_factory=list)
    passes: list = field(default_factory=list)
    final_states: tuple = ()
    #: Timed region and the server CPU spent in it.
    wall: float = 0.0
    cpu: float = 0.0
    #: The slowdown factor each round was divided by.
    factors: list = field(default_factory=list)

    @property
    def done(self) -> list:
        return [op for op in self.operations if not op.error]

    @property
    def reads(self) -> list:
        """Seconds of every answered read."""
        return [op.seconds for op in self.done if op.kind != "write"]

    @property
    def writes(self) -> list:
        """Seconds of every answered ``/mutate``."""
        return [op.seconds for op in self.done if op.kind == "write"]


class Connection:
    """One closed-loop client: a tenant, its place in the operation
    schedule, and the state of its write cycle."""

    def __init__(self, server: ServerProcess, index: int, seed: int, mixed: bool):
        self.index, self.mixed = index, mixed
        self.client = server.client(f"tenant-{index}")
        self.adhoc = data.adhoc_statements(seed, index, CLIENTS)
        self.cycle = data.write_cycle(seed, index)
        self.hot = index * (len(data.HOT_ZOO) // CLIENTS)  # clients start apart
        self.count = self.writes = self.state = 0

    async def one_pass(self, tracer: Tracer | None) -> tuple[float, list]:
        """``SERVED_PASS_OPS`` operations, each sent when the previous
        one has been answered; returns the pass's seconds and operations."""
        operations = []
        pass_start = time.perf_counter()
        for _ in range(data.SERVED_PASS_OPS):
            kind = data.operation_kind(self.count, self.mixed)
            if kind == "write":
                step = self.cycle[self.writes % len(self.cycle)]
                key, call = step["action"], self.client.mutate("R", **step)
            else:
                if kind == "adhoc":
                    key = next(self.adhoc)
                else:
                    key = data.HOT_ZOO[self.hot % len(data.HOT_ZOO)]
                    self.hot += 1
                call = self.client.query(key)
            operation = Operation(self.index, kind, key, self.state)
            span = (
                tracer.span(f"client.{'write' if kind == 'write' else 'read'}",
                            rid=f"c{self.index}-{self.count}")
                if tracer is not None else contextlib.nullcontext()
            )
            start = time.perf_counter()
            try:
                with span:
                    operation.reply = await call
            except (ServerError, OSError, asyncio.IncompleteReadError) as exc:
                operation.error = f"{type(exc).__name__}: {exc}"
            operation.seconds = time.perf_counter() - start
            operations.append(operation)
            if kind == "write" and operation.error is None:
                self.writes += 1
                self.state = self.writes % len(self.cycle)
            self.count += 1
        return time.perf_counter() - pass_start, operations


async def drive(server, seed: int, mixed: bool, seconds: float,
                tracer: Tracer | None) -> Load:
    """Rounds of one pass per connection, both at once, until the time is
    up.  Between rounds — nothing in flight — the machine-speed probe runs
    on both vCPUs, and a round's times are divided by the slowdown it
    showed before and after (``reference.py``)."""
    load = Load()
    connections = [Connection(server, i, seed, mixed) for i in range(CLIENTS)]
    paired = Paired()
    deadline = time.perf_counter() + seconds
    try:
        before = paired.probe()
        while time.perf_counter() < deadline:
            cpu, start = server.cpu_seconds(), time.perf_counter()
            results = await asyncio.gather(*(c.one_pass(tracer) for c in connections))
            wall, cpu = time.perf_counter() - start, server.cpu_seconds() - cpu
            after = paired.probe()
            factor = slowdown((before, after), PAIRED_NOMINAL)
            before = after
            load.factors.append(factor)
            load.wall += wall / factor
            load.cpu += cpu / factor
            for pass_seconds, operations in results:
                load.passes.append(pass_seconds / factor)
                for operation in operations:
                    operation.seconds /= factor
                load.operations.extend(operations)
    finally:
        paired.close()
        for connection in connections:
            await connection.client.close()
    load.final_states = tuple(c.state for c in connections)
    return load


# -- verification --------------------------------------------------------------


def _plain(reply) -> list:
    rows = [
        [
            ["<symbolic>" if isinstance(v, SymbolicValue) else v for v in row.values],
            row.probability.low,
            row.probability.high,
            None,
        ]
        for row in reply.rows
    ]
    rows.sort(key=lambda row: json.dumps(row[0]))  # as oracle.canonical does
    return rows


class LocalOracle:
    """Fresh local sessions over ``demo_database(32)``, one per state of
    the clients' write cycles, answering what the server should have."""

    def __init__(self, seed: int):
        self.seed = seed
        self.sessions: dict[tuple, object] = {}
        self.answers: dict[tuple, list] = {}

    def _session(self, states: tuple):
        session = self.sessions.get(states)
        if session is None:
            session = demo_session(scale=data.SERVED_SCALE, seed=self.seed)
            for client, state in enumerate(states):
                for step in data.write_cycle(self.seed, client)[:state]:
                    data.apply_write(session.db, step)
            self.sessions[states] = session
        return session

    def answer(self, sql: str, states: tuple) -> list:
        key = (sql, states)
        if key not in self.answers:
            result = self._session(states).sql(sql)
            self.answers[key] = oracle.canonical(oracle.consume(result, False))
        return self.answers[key]

    def problem(self, sql: str, reply, client: int, own: int,
                others: tuple) -> str | None:
        """``None`` when ``reply`` equals the local answer for the
        client's own state and *some* allowed state of the other clients
        (their writes touch other rows, at moments this client cannot
        know)."""
        got = _plain(reply)
        problem = None
        for other in others:
            states = tuple(
                own if c == client else other for c in range(CLIENTS)
            )
            problem = oracle.same_answer(got, self.answer(sql, states))
            if problem is None:
                return None
        return problem


def golden_document(seed: int) -> dict:
    """The hot zoo's answers before any write.  The demo database has no
    seed, so one committed file holds for every run."""
    local = LocalOracle(seed)
    return {sql: local.answer(sql, (0,) * CLIENTS) for sql in data.HOT_ZOO}


def verify(load: Load, name: str, seed: int, mixed: bool,
           outcome: Outcome) -> LocalOracle:
    """Hot replies always, every 10th ad-hoc reply; errors, refusals and
    degraded replies count as failed."""
    local = LocalOracle(seed)
    golden = oracle.load_golden(name)
    if golden is not None:
        for sql, want in golden.items():
            outcome.wrong(
                f"golden, {sql!r}",
                oracle.same_answer(local.answer(sql, (0,) * CLIENTS), want),
                operations=0,
            )
    others = (0, 1, 2) if mixed else (0,)
    checked: dict[tuple, str | None] = {}
    adhoc_seen = 0
    for op in load.operations:
        outcome.attempted += 1
        problem = op.error
        if problem is None and op.kind != "write":
            if op.reply.degraded:
                problem = "degraded reply"
            else:
                adhoc_seen += op.kind == "adhoc"
                if op.kind == "hot" or adhoc_seen % 10 == 0:
                    signature = (op.key, op.client, op.state, tuple(
                        (row.values, row.probability.low, row.probability.high)
                        for row in op.reply.rows
                    ))
                    if signature not in checked:
                        checked[signature] = local.problem(
                            op.key, op.reply, op.client, op.state, others
                        )
                    problem = checked[signature]
        outcome.wrong(f"{op.kind} {op.key!r}", problem)
    return local


async def verify_quiesced(server, load: Load, local: LocalOracle,
                          outcome: Outcome) -> None:
    """After the clients stop, the server must answer the hot zoo exactly
    like a local session that replayed both clients' write lists."""
    states = load.final_states
    async with server.client("tenant-0") as client:
        for sql in data.HOT_ZOO:
            outcome.attempted += 1
            reply = await client.query(sql)
            outcome.wrong(
                f"quiesced {sql!r}",
                oracle.same_answer(_plain(reply), local.answer(sql, states)),
            )


def micro_checks(seed: int, outcome: Outcome) -> None:
    """Every statement shape of the traffic on a micro demo instance
    against possible-worlds enumeration."""
    session = data.micro_demo_session(seed)
    for sql in data.TRAFFIC_SHAPES:
        outcome.wrong(
            f"micro oracle, {sql!r}", oracle.micro_check(session, sql, {}),
            operations=0,
        )


# -- metrics -------------------------------------------------------------------


def end_to_end(load: Load, setup: list, peak_rss: float, outcome: Outcome) -> None:
    reads, done = load.reads, load.done
    classes: dict[str, list] = {}
    for op in done:
        classes.setdefault("adhoc" if op.kind == "adhoc" else op.key, []).append(op.seconds)
    q, tail = percentile(reads, 0.95)
    # A workload without writes repeats its read latency here (every
    # workload must report every end-to-end metric, none may be 0).
    writes = load.writes or reads
    write_q, write_tail = percentile(writes, 0.95)
    outcome.metrics.update({
        "setup_s": statistics.median(setup),
        "pass_s_p50": statistics.median(load.passes),
        "stmt_s_geomean": statistics.geometric_mean(
            statistics.median(times) for times in classes.values()
        ),
        "throughput_rps": len(done) / load.wall,
        "latency_ms_p50": 1e3 * statistics.median(reads),
        "latency_ms_p95": 1e3 * tail,
        "write_latency_ms_p50": 1e3 * statistics.median(writes),
        "write_latency_ms_p95": 1e3 * write_tail,
        "cpu_ms_per_op": 1e3 * load.cpu / len(done),
        "peak_rss_mb": peak_rss,
    })
    reads_n = f"n={len(reads)} reads"
    writes_n = (
        f"n={len(writes)} writes" if load.writes
        else "no writes: the read latency again"
    )
    outcome.detail.update({
        "setup_s": f"n={len(setup)} server starts",
        "pass_s_p50": f"n={len(load.passes)} passes of {data.SERVED_PASS_OPS} operations, "
                      f"machine slowdown {statistics.fmean(load.factors):.3f}",
        "stmt_s_geomean": f"{len(classes)} operation classes",
        "throughput_rps": f"n={len(done)} operations, {CLIENTS} closed-loop clients",
        "latency_ms_p50": reads_n,
        "latency_ms_p95": reads_n if q == 0.95 else f"{reads_n}: only p{100 * q:.0f} supported",
        "write_latency_ms_p50": writes_n,
        "write_latency_ms_p95": (
            writes_n if write_q == 0.95
            else f"{writes_n}: only p{100 * write_q:.0f} supported"
        ),
        "cpu_ms_per_op": "server process",
        "peak_rss_mb": "server process",
    })


def _ratio(after: dict, before: dict) -> float:
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    return hits / lookups if lookups else 0.0


def per_layer(load: Load, before: dict, after: dict, outcome: Outcome) -> None:
    reads, done, writes = load.reads, load.done, len(load.writes)

    def median_ms(kind: str) -> float:
        times = [op.seconds for op in done if op.kind == kind]
        return 1e3 * statistics.median(times) if times else 0.0

    distribution = {
        key: after["distribution_cache"][key] - before["distribution_cache"][key]
        for key in ("invalidations", "misses")
    }
    outcome.metrics.update({
        "engine.distribution_hit_ratio": _ratio(
            after["distribution_cache"], before["distribution_cache"]),
        "engine.plan_hit_ratio": _ratio(after["plan_cache"], before["plan_cache"]),
        "server.statement_hit_ratio": _ratio(
            after["statement_cache"], before["statement_cache"]),
        "server.statement_evictions": (
            after["statement_cache"]["evictions"] - before["statement_cache"]["evictions"]),
        "engine.invalidated_per_write": (
            distribution["invalidations"] / writes if writes else 0.0),
        "engine.recompiled_per_write": (
            distribution["misses"] / writes if writes else 0.0),
        "server.cpu_s_per_kreq": 1e3 * load.cpu / len(done),
        "server.hot_latency_ms_p50": median_ms("hot"),
        "server.adhoc_latency_ms_p50": median_ms("adhoc"),
        "server.latency_ms_p99": 1e3 * percentile(reads, 0.99)[1],
        "server.shed": after["server"]["shed"] - before["server"]["shed"],
        "server.degraded": after["server"]["degraded"] - before["server"]["degraded"],
        "harness.slowdown": statistics.fmean(load.factors),
    })
    outcome.detail["server.latency_ms_p99"] = f"n={len(reads)} reads"


# -- in-process probes of the server layers ------------------------------------


async def _timed(calls) -> list:
    """Seconds of each awaited call, one after the other."""
    times = []
    for call in calls:
        start = time.perf_counter()
        await call()
        times.append(time.perf_counter() - start)
    return times


async def _server_probes(seed: int, wire_p50_ms: float) -> dict:
    """``QueryServer.execute``/``.mutate`` awaited in-process on hot
    statements, the codec alone, and the TCP protocol."""
    from repro.server import QueryServer, ServerConfig, demo_database, result_to_json

    server = QueryServer(
        demo_database(data.SERVED_SCALE), ServerConfig(port=0, threads=2, seed=seed)
    )
    cycle = data.write_cycle(seed, 0)

    def query(sql):
        return lambda: server.execute({"sql": sql, "tenant": "probe"})

    def write(step):
        return lambda: server.mutate({"table": "R", "tenant": "probe", **step})

    async with server:
        await _timed(query(sql) for sql in data.HOT_ZOO)  # warm
        client = ServerClient(
            *server.http_address, tcp_port=server.tcp_address[1], tenant="probe"
        )
        with slowdown_around() as factor:
            execute = await _timed(query(sql) for sql in data.HOT_ZOO * 10)
            mutate = await _timed(write(cycle[i % len(cycle)]) for i in range(60))
            tcp = await _timed(
                (lambda sql=sql: client.tcp_query(sql))
                for sql in (data.HOT_ZOO * 23)[:500]
            )
            session = server.session("probe")
            encode, sizes = [], []
            for sql in data.HOT_ZOO:
                result = session.sql(sql)
                start = time.perf_counter()
                body = json.dumps(result_to_json(result))
                encode.append(time.perf_counter() - start)
                sizes.append(len(body))
        await client.close()
    execute_ms = 1e3 * statistics.median(execute) / factor[0]
    return {
        "server.execute_ms": execute_ms,
        "server.mutate_ms": 1e3 * statistics.median(mutate) / factor[0],
        "server.wire_overhead_ms": wire_p50_ms - execute_ms,
        "server.encode_us": 1e6 * statistics.median(encode) / factor[0],
        "server.response_bytes": sum(sizes),
        "server.tcp_latency_ms_p50": 1e3 * statistics.median(tcp) / factor[0],
    }


def _mutation_probe(seed: int) -> dict:
    """``PVCDatabase.insert/update/delete`` on the served data, in-process."""
    session = demo_session(scale=data.SERVED_SCALE, seed=seed)
    db = session.db
    cycle = data.write_cycle(seed, 0)
    generation = db.generation
    times = []
    with slowdown_around() as factor:
        for repeat in range(300):
            start = time.perf_counter()
            data.apply_write(db, cycle[repeat % len(cycle)])
            times.append(time.perf_counter() - start)
    return {
        "db.mutate_us": 1e6 * statistics.median(times) / factor[0],
        "db.generation_bumps": db.generation - generation,
    }


def zoo_workload() -> data.Workload:
    """The traffic's statements as an in-process workload, for the cold
    stage-by-stage split of what the server executes."""
    from repro.server import demo_database

    return data.Workload(
        "served_zoo",
        tuple(
            data.Statement(f"zoo{i}", sql)
            for i, sql in enumerate(data.TRAFFIC_SHAPES)
        ),
        lambda seed, shape: demo_database(data.SERVED_SCALE),
        micro=(),
        shapes=(None,),  # the served data has the one shape the server builds
    )


# -- entry point ---------------------------------------------------------------

SETUP_REPEATS = 7


def run(name: str, seed: int, seconds: float, traced: bool) -> Outcome:
    mixed = name == "served_mixed"
    outcome = Outcome()
    micro_checks(seed, outcome)
    setup, probes = [], [probe()]
    server = None
    try:
        # Set-up is repeated so that its median is steady (a --quick run
        # has no time for that); the last server started is the one measured.
        # All starts share one slowdown factor, from the probes between them:
        # two probes around a single start are too few to follow the machine.
        for _ in range(SETUP_REPEATS if seconds >= 5 else 1):
            if server is not None:
                server.stop()
            server, elapsed = start_warm_server()
            setup.append(elapsed)
            probes.append(probe())
        setup = [elapsed / slowdown(probes) for elapsed in setup]
        tracer = Tracer() if traced else None
        wire = asyncio.run(
            _measure(server, name, seed, mixed, seconds, tracer, setup, outcome)
        )
    finally:
        if server is not None:
            server.stop()
    if traced:
        run_probe(
            outcome,
            ("server.execute_ms", "server.mutate_ms", "server.wire_overhead_ms",
             "server.encode_us", "server.response_bytes",
             "server.tcp_latency_ms_p50"),
            lambda: asyncio.run(_server_probes(seed, wire)),
        )
        run_probe(
            outcome, ("db.mutate_us", "db.generation_bumps"),
            lambda: _mutation_probe(seed),
        )
        outcome.trace = tracer.to_json()[:20000]
        zoo = zoo_workload()
        reference = measure_passes(zoo, seed, 0.0, outcome)
        split = layer_split(zoo, seed, min(4.0, seconds / 2.0), outcome, reference)
        for key, value in split.items():
            outcome.metrics.setdefault(key, value)
        outcome.metrics["failed_share"] = outcome.failed / outcome.attempted
    return outcome


async def _measure(server, name, seed, mixed, seconds, tracer, setup,
                   outcome) -> float:
    """Drive the load, verify it, fill in the metrics of this kind of
    run; returns the median read latency in ms."""
    async with server.client("stats") as stats_client:
        before = await stats_client.stats()
        load = await drive(server, seed, mixed, seconds, tracer)
        peak = server.peak_rss_mb()
        after = await stats_client.stats()
    local = verify(load, name, seed, mixed, outcome)
    await verify_quiesced(server, load, local, outcome)
    if tracer is None:
        end_to_end(load, setup, peak, outcome)
    else:
        per_layer(load, before, after, outcome)
    return 1e3 * statistics.median(load.reads)
