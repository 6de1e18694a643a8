"""Property: no reply outlives the database state it was computed at.

The machine drives one in-process :class:`QueryServer` — no sockets;
requests go through ``QueryServer.execute``/``mutate`` on the machine's
own event loop — with reads of a few fixed texts under a few option
sets from two tenants, interleaved with inserts, value updates, ``p=``
reassignments and deletes over two tables.  Statement entries stay warm
across the whole example, so reads land on every state of a kept reply —
first sight, admission, reuse, stale stamp — and every reply must
fingerprint like a fresh single-threaded session over copies of the
current rows and distributions.  (The first slice of ROADMAP item 3(a).)
"""

from __future__ import annotations

import asyncio

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from repro.server import QueryServer, ServerConfig, demo_database, fingerprint
from tests.server.test_reply_reuse import fresh

TEXTS = (
    "SELECT kind, value FROM R",
    "SELECT kind FROM R WHERE value >= 20",
    "SELECT label FROM R, T WHERE kind = rkind",
    "SELECT kind, SUM(value) AS total FROM R GROUP BY kind",
    "SELECT COUNT(*) AS n FROM T",
)
#: (request fields, the same options as ``Session.run`` keywords)
OPTION_SETS = (
    ({}, {}),
    ({"engine": "sprout"}, {"engine": "sprout"}),
    ({"spec": {"mode": "approx", "epsilon": 0.05}},
     {"mode": "approx", "epsilon": 0.05}),
)
KEYS = {"R": "kind", "T": "rkind"}

texts = st.integers(min_value=0, max_value=len(TEXTS) - 1)
option_sets = st.integers(min_value=0, max_value=len(OPTION_SETS) - 1)
tenants = st.sampled_from(("one", "two"))
tables = st.sampled_from(sorted(KEYS))
kinds = st.sampled_from(("a", "b", "c", "e"))
values = st.sampled_from((10, 20, 30))
probabilities = st.sampled_from((0.1, 0.25, 0.5, 0.9))


class ServedReads(RuleBasedStateMachine):
    @initialize()
    def boot(self):
        self.loop = asyncio.new_event_loop()
        self.server = QueryServer(demo_database(), ServerConfig(port=0))

    def teardown(self):
        self.loop.run_until_complete(self.loop.shutdown_default_executor())
        self.loop.close()

    def mutate(self, table, action, **fields):
        self.loop.run_until_complete(
            self.server.mutate({"table": table, "action": action, **fields})
        )

    @rule(text=texts, options=option_sets, tenant=tenants,
          repeats=st.integers(1, 4))
    def read(self, text, options, tenant, repeats):
        sql = TEXTS[text]
        request, run_options = OPTION_SETS[options]
        oracle = fingerprint(fresh(self.server).run(sql, **run_options))
        for _ in range(repeats):
            reply = self.loop.run_until_complete(
                self.server.execute({"sql": sql, "tenant": tenant, **request})
            )
            assert fingerprint(reply["result"]) == oracle

    @rule(table=tables, kind=kinds, value=values, p=probabilities)
    def insert(self, table, kind, value, p):
        row = [kind, value] if table == "R" else [kind, f"label-{value}"]
        self.mutate(table, "insert", values=row, p=p)

    @rule(kind=kinds, value=values)
    def update_values(self, kind, value):
        self.mutate("R", "update", where={"kind": kind}, set={"value": value})

    @rule(table=tables, kind=kinds, p=probabilities)
    def update_probability(self, table, kind, p):
        self.mutate(table, "update", where={KEYS[table]: kind}, p=p)

    @rule(table=tables, kind=kinds)
    def delete(self, table, kind):
        self.mutate(table, "delete", where={KEYS[table]: kind})


ServedReads.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestServedReads = ServedReads.TestCase
