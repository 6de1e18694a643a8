"""The engine × mode contract, cell by cell.

``repro.engine.spec.ENGINE_TABLE`` says which engine answers which spec
mode, which mode its quality fields imply, which run options it takes
and which ``timings`` keys it reports.  Every expectation below is
derived from that table — none is listed by hand — and checked through
the three front doors a request can take: ``Session.run``,
``Session.run_iter`` and ``QueryServer.execute``.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.engine.spec import (
    ENGINE_TABLE,
    EVAL_MODES,
    degraded_mode,
    native_engine,
)
from repro.errors import QueryValidationError
from repro.server import QueryServer, ServerConfig, demo_database
from repro.server.bootstrap import demo_session

#: Tractable: ``engine="auto"`` compiles it exactly.
EASY = "SELECT kind FROM R"
#: A repeated relation: outside the tractable classes.
HARD = "SELECT kind FROM R WHERE value <= (SELECT MIN(value) FROM R)"

EPSILON = 0.2

REQUESTS = {
    "nothing": {},
    "mode=exact": {"mode": "exact"},
    "mode=approx": {"mode": "approx"},
    "mode=sample": {"mode": "sample"},
    "epsilon": {"epsilon": EPSILON},
    "workers": {"workers": 1},
    "on_timeout": {"on_timeout": "raise"},
    "time_limit": {"time_limit": 30.0},
    "samples": {"samples": 50},
}
QUALITY_FIELDS = ("epsilon", "delta", "budget", "time_limit")
EXACT = EVAL_MODES[0]


def expected(engine: str, fields: dict, api: str):
    """``(refused, answering engine, mode answered in)`` for a request
    on :data:`EASY`, read off the table."""
    explicit = ENGINE_TABLE.get(engine)  # None: auto dispatches on the mode
    asked = fields.get("mode")
    if asked is None and explicit is not None and any(
        name in fields for name in QUALITY_FIELDS
    ):
        asked = explicit.implied
    answering = engine if explicit else native_engine(asked or EXACT)
    row = ENGINE_TABLE[answering]
    refused = asked is not None and asked not in row.modes
    if "samples" in fields and explicit is not None:
        # An explicit engine must take the option; auto drops it.
        refused = refused or "samples" not in row.options
    mode = asked
    if api == "run_iter" and explicit is not None and asked in (None, EXACT):
        mode = row.implied  # anytime iteration refines in the native mode
    return refused, answering, mode or EXACT


def check_answer(result, engine: str, mode: str) -> None:
    assert result.engine == engine
    assert set(result.timings) == set(ENGINE_TABLE[engine].steps)
    widths = [row.probability().width for row in result.rows]
    assert widths
    if mode == EXACT:
        assert all(width == 0.0 for width in widths)
    elif mode == "approx":
        assert result.stats["epsilon"] > 0.0
        assert all(width <= result.stats["epsilon"] for width in widths)
    else:
        assert result.stats["rounds"] >= 1
        assert any(width > 0.0 for width in widths)


def cells():
    for engine in (*ENGINE_TABLE, "auto"):
        for request in REQUESTS:
            yield engine, request, "run"
            if request != "samples":  # run_iter has no fixed budget
                yield engine, request, "run_iter"


@pytest.mark.parametrize("engine,request_name,api", list(cells()))
def test_cell(engine, request_name, api):
    fields = REQUESTS[request_name]
    refused, answering, mode = expected(engine, fields, api)
    session = demo_session(scale=1)
    call = getattr(session, api)
    if refused:
        with pytest.raises(QueryValidationError):
            outcome = call(EASY, engine=engine, **fields)
            if api == "run_iter":
                list(outcome)
        return
    outcome = call(EASY, engine=engine, **fields)
    snapshots = list(outcome) if api == "run_iter" else [outcome]
    assert snapshots
    for snapshot in snapshots:
        check_answer(snapshot, answering, mode)


@pytest.mark.parametrize("engine", [*ENGINE_TABLE, "auto"])
def test_an_unknown_mode_is_a_validation_error(engine):
    with pytest.raises(QueryValidationError, match="unknown evaluation mode"):
        demo_session(scale=1).run(EASY, engine=engine, mode="bogus")


def test_the_matrix_has_both_outcomes():
    """The derivation is not vacuous: it accepts and refuses cells of
    every explicit engine."""
    outcomes = {
        (engine, expected(engine, REQUESTS[request], api)[0])
        for engine, request, api in cells()
    }
    for engine in ENGINE_TABLE:
        assert {(engine, True), (engine, False)} <= outcomes
    assert ("auto", True) not in outcomes


@pytest.mark.parametrize("fields", [{}, {"mode": "exact"}, {"epsilon": EPSILON}])
def test_auto_degrades_a_hard_query(fields):
    """Exact intent on a query outside the tractable classes is answered
    in the degraded mode, by that mode's engine."""
    result = demo_session(scale=1).run(HARD, engine="auto", **fields)
    check_answer(result, native_engine(degraded_mode(None)), degraded_mode(None))


def test_every_mode_has_one_auto_engine_that_answers_it():
    for mode in EVAL_MODES:
        assert mode in ENGINE_TABLE[native_engine(mode)].modes
    assert degraded_mode(None) != EXACT
    assert [degraded_mode(mode) for mode in EVAL_MODES[1:]] == list(EVAL_MODES[1:])


def serve(payloads, **config):
    async def main():
        server = QueryServer(demo_database(), ServerConfig(port=0, **config))
        await server.start()
        try:
            outcomes = []
            for payload in payloads:
                try:
                    outcomes.append(await server.execute(payload))
                except Exception as exc:  # classified by the caller
                    outcomes.append(exc)
            return outcomes
        finally:
            await server.stop()

    return asyncio.run(main())


def test_the_server_accepts_and_refuses_by_the_table():
    """One accepted and one refused request per engine: a refusal is a
    ``QueryValidationError`` (HTTP 400), never an unclassified error."""
    accepted, refused = [], []
    for engine, row in ENGINE_TABLE.items():
        accepted.append(
            {"sql": EASY, "engine": engine, "spec": {"mode": row.implied}}
        )
        unanswered = next(mode for mode in EVAL_MODES if mode not in row.modes)
        refused.append(
            {"sql": EASY, "engine": engine, "spec": {"mode": unanswered}}
        )
    accepted.append({"sql": EASY, "engine": "auto"})
    outcomes = serve(accepted + refused)
    for payload, outcome in zip(accepted, outcomes):
        assert isinstance(outcome, dict), (payload, outcome)
        answering = payload["engine"]
        if answering == "auto":
            answering = native_engine(EXACT)
        assert outcome["result"]["engine"] == answering
        assert set(outcome["result"]["timings"]) == set(
            ENGINE_TABLE[answering].steps
        )
    for payload, outcome in zip(refused, outcomes[len(accepted):]):
        assert isinstance(outcome, QueryValidationError), (payload, outcome)


def test_a_loaded_server_sheds_by_the_table():
    """Past the soft limit every request is answered in an anytime mode
    — its own, its engine's, or the degraded one — by that mode's
    engine; a mode the table does not know degrades like exact intent."""
    payloads = [{"sql": EASY, "engine": engine} for engine in ENGINE_TABLE]
    payloads.append({"sql": EASY, "spec": {"mode": "bogus"}})
    modes = [degraded_mode(row.implied) for row in ENGINE_TABLE.values()]
    modes.append(degraded_mode(None))
    outcomes = serve(payloads, soft_limit=0)
    for payload, mode, outcome in zip(payloads, modes, outcomes):
        assert isinstance(outcome, dict), (payload, outcome)
        assert outcome["degraded"] is True
        assert outcome["result"]["engine"] == native_engine(mode)
