"""The wire codec: lossless round-trips for every engine's results."""

import asyncio
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro import EvalSpec, ProbInterval, connect, count_, sum_
from repro.errors import QueryValidationError
from repro.server import QueryServer, ServerConfig, demo_database
from repro.server.codec import (
    EncodedResult,
    RemoteResult,
    SymbolicValue,
    VOLATILE_STAT_KEYS,
    decode_value,
    encode_payload,
    encode_result,
    encode_value,
    fingerprint,
    jsonable,
    result_from_json,
    result_to_json,
    spec_payload,
)


@pytest.fixture
def session():
    s = connect(seed=11)
    t = s.table("R", ["kind", "value"])
    for kind, value, p in [
        ("a", 10, 0.5), ("a", 20, 0.4), ("b", 30, 0.7),
    ]:
        t.insert((kind, value), p=p)
    return s


class TestIntervalCodec:
    def test_round_trip_preserves_both_endpoints(self):
        interval = ProbInterval(0.25, 0.75)
        decoded = ProbInterval.from_json(interval.to_json())
        assert decoded.low == 0.25 and decoded.high == 0.75

    def test_bare_json_dumps_would_lose_the_bracket(self):
        # The motivating bug: a ProbInterval is a float, so json.dumps
        # flattens it to the midpoint.
        assert json.loads(json.dumps(ProbInterval(0.2, 0.4))) == pytest.approx(0.3)
        assert ProbInterval(0.2, 0.4).to_json() == {"low": 0.2, "high": 0.4}

    def test_bad_payloads_raise_cleanly(self):
        for bad in (None, 3.5, {"low": 0.2}, {"low": "x", "high": 0.5}, []):
            with pytest.raises(QueryValidationError):
                ProbInterval.from_json(bad)


class TestSpecCodec:
    def test_round_trip_identity(self):
        spec = EvalSpec(mode="sample", epsilon=0.01, delta=0.1, budget=500)
        assert EvalSpec.from_json(spec.to_json()) == spec

    def test_defaults_round_trip_including_nulls(self):
        spec = EvalSpec()
        payload = spec.to_json()
        assert payload["budget"] is None  # defaults are explicit nulls
        assert EvalSpec.from_json(payload) == spec

    def test_unknown_fields_rejected(self):
        with pytest.raises(QueryValidationError):
            EvalSpec.from_json({"mode": "approx", "eps": 0.1})

    def test_codegen_is_not_a_spec_field(self):
        assert "codegen" not in EvalSpec().to_json()
        with pytest.raises(
            QueryValidationError, match=r"unknown EvalSpec fields \['codegen'\]"
        ):
            EvalSpec.from_json({"codegen": True})
        with pytest.raises(
            QueryValidationError, match=r"unknown EvalSpec fields \['codegen'\]"
        ):
            EvalSpec.make("approx", codegen=False)

    def test_values_validated_like_local_construction(self):
        with pytest.raises(QueryValidationError):
            EvalSpec.from_json({"budget": -5})

    def test_spec_payload_merges_overrides(self):
        payload = spec_payload("approx", epsilon=0.01)
        assert payload == {"mode": "approx", "epsilon": 0.01}
        assert spec_payload(None) is None
        assert spec_payload(None, budget=10) == {"budget": 10}
        full = spec_payload(EvalSpec(mode="sample"), budget=7)
        assert full["mode"] == "sample" and full["budget"] == 7
        with pytest.raises(QueryValidationError):
            spec_payload(3.5)


class TestResultCodec:
    @pytest.mark.parametrize("engine", ["sprout", "naive", "montecarlo"])
    def test_every_engine_round_trips(self, session, engine):
        result = session.table("R").select("kind").run(engine=engine)
        payload = result_to_json(result)
        json.dumps(payload)  # must be wire-encodable as-is
        decoded = result_from_json(payload)
        assert decoded.engine == engine
        assert decoded.columns == ["kind"]
        assert len(decoded) == len(result.rows)
        for local, remote in zip(result.rows, decoded.rows):
            assert remote.values == local.values
            assert remote.probability.low == local.probability().low
            assert remote.probability.high == local.probability().high

    def test_approx_intervals_survive(self, session):
        result = session.table("R").select("kind").run(
            engine="approx", spec=EvalSpec(mode="approx", budget=1)
        )
        decoded = result_from_json(result_to_json(result))
        widths = [row.probability.width for row in decoded.rows]
        locals_ = [row.probability().width for row in result.rows]
        assert widths == locals_

    def test_symbolic_group_agg_values_encode(self, session):
        # sprout group-agg rows carry symbolic semimodule values; a bare
        # json.dumps of those raises TypeError.
        result = (
            session.table("R").group_by("kind").agg(total=sum_("value"))
            .run(engine="sprout")
        )
        payload = result_to_json(result)
        json.dumps(payload)
        decoded = result_from_json(payload)
        symbolic = [
            value
            for row in decoded.rows
            for value in row.values
            if isinstance(value, SymbolicValue)
        ]
        assert symbolic, "expected symbolic aggregate values on the wire"

    def test_stats_always_jsonable(self, session):
        query = session.table("R").group_by("kind").agg(n=count_())
        for engine in ("sprout", "naive", "montecarlo"):
            result = query.run(engine=engine)
            json.dumps(jsonable(result.stats))
            json.dumps(jsonable(result.timings))

    def test_jsonable_is_total(self):
        exotic = {
            ("tuple", "key"): {1, 2},
            "interval": ProbInterval(0.1, 0.9),
            "nested": [object()],
        }
        encoded = jsonable(exotic)
        json.dumps(encoded)
        assert encoded["interval"] == {"low": 0.1, "high": 0.9}

    def test_remote_result_reencodes_to_same_payload(self, session):
        result = (
            session.table("R").group_by("kind").agg(total=sum_("value"))
            .run(engine="sprout")
        )
        payload = result_to_json(result)
        assert result_from_json(payload).to_json() == payload

    def test_decode_rejects_garbage(self):
        with pytest.raises(QueryValidationError):
            result_from_json({"not": "a result"})

    def test_encode_decode_value_inverse(self):
        for value in (1, 2.5, "x", None, True):
            assert decode_value(encode_value(value)) == value
        marker = decode_value({"symbolic": "x + y"})
        assert marker == SymbolicValue("x + y")
        assert encode_value(marker) == {"symbolic": "x + y"}


class TestFingerprint:
    def test_volatile_stats_do_not_change_fingerprint(self, session):
        result = session.table("R").select("kind").run(engine="sprout")
        payload = result_to_json(result)
        noisy = dict(payload)
        noisy["stats"] = dict(payload["stats"])
        for key in VOLATILE_STAT_KEYS:
            noisy["stats"][key] = 123456
        assert fingerprint(payload) == fingerprint(noisy)

    def test_answer_changes_change_fingerprint(self, session):
        result = session.table("R").select("kind").run(engine="sprout")
        payload = result_to_json(result)
        other = json.loads(json.dumps(payload))
        other["rows"][0]["probability"]["low"] += 1e-6
        assert fingerprint(payload) != fingerprint(other)

    def test_accepts_all_three_shapes(self, session):
        result = session.table("R").select("kind").run(engine="sprout")
        payload = result_to_json(result)
        assert (
            fingerprint(result)
            == fingerprint(payload)
            == fingerprint(result_from_json(payload))
        )


# -- encode_payload: kept bytes spliced, byte for byte json.dumps ------------

_text = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=8)
_scalar = st.one_of(
    st.none(), st.booleans(), st.integers(-10**12, 10**12),
    st.floats(allow_nan=False), _text,
)
_stats = st.recursive(
    _scalar,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(_text, inner, max_size=3)
    ),
    max_leaves=8,
)
_value = st.one_of(
    _scalar,
    st.builds(
        lambda a, b: {"symbolic": f"({a}\u2297{b} +sum {b})"}, _text, _text
    ),
)
_probability = st.floats(0, 1).map(lambda p: {"low": p, "high": min(1.0, p + 0.25)})
_result = st.fixed_dictionaries({
    "engine": st.sampled_from(["sprout", "naive", "approx", "montecarlo"]),
    "columns": st.lists(_text, max_size=3),
    "rows": st.lists(
        st.fixed_dictionaries({
            "values": st.lists(_value, max_size=3),
            "probability": _probability,
        }),
        max_size=4,
    ),
    "timings": st.dictionaries(_text, st.floats(0, 10), max_size=3),
    "stats": st.dictionaries(_text, _stats, max_size=4),
})
_query_envelope = st.fixed_dictionaries({
    "tenant": _text,
    "degraded": st.booleans(),
    "statement_cache_hit": st.booleans(),
    "reply_reused": st.booleans(),
})


class TestEncodePayload:
    @settings(max_examples=200, deadline=None)
    @given(
        result=_result,
        fields=_query_envelope,
        tcp=st.booleans(),
        result_key=st.sampled_from(["result", "snapshot"]),
        position=st.integers(0, 5),
    )
    def test_a_kept_result_is_spliced_as_json_dumps_would_write_it(
        self, result, fields, tcp, result_key, position
    ):
        encoded = EncodedResult(result)
        items = list(fields.items())
        items.insert(min(position, len(items)), (result_key, encoded))
        if tcp:
            items.insert(0, ("ok", True))
        for envelope in (dict(items), dict(reversed(items))):
            assert encode_payload(envelope) == json.dumps(envelope).encode("utf-8")
        assert encoded == result
        assert encoded.encoded == json.dumps(result).encode("utf-8")

    @settings(max_examples=100, deadline=None)
    @given(payload=st.one_of(
        st.fixed_dictionaries({
            "mutation": st.fixed_dictionaries({
                "table": _text, "action": st.sampled_from(["insert", "update"]),
                "rows": st.integers(0, 9), "db_generation": st.integers(0, 99),
            }),
            "tenant": _text,
        }),
        st.fixed_dictionaries({"ok": st.just(False), "error": st.fixed_dictionaries({
            "type": _text, "message": _text,
        })}),
        st.dictionaries(_text, _stats, max_size=5),
        st.fixed_dictionaries({"result": _result, "tenant": _text}),
    ))
    def test_a_payload_with_no_kept_result_is_json_dumps(self, payload):
        assert encode_payload(payload) == json.dumps(payload).encode("utf-8")

    def test_several_kept_results_and_plain_runs_between_them(self):
        first = EncodedResult({"rows": [], "stats": {"n": 1.5}})
        second = EncodedResult({"rows": [{"values": [{"symbolic": "x\u2297y"}]}]})
        envelope = {1: "one", "a": first, "b": None, "c": second}
        assert encode_payload(envelope) == json.dumps(envelope).encode("utf-8")
        assert encode_payload({}) == b"{}"

    def test_symbolic_text_is_escaped_once_in_the_kept_bytes(self, session):
        result = (
            session.table("R").group_by("kind").agg(total=sum_("value"))
            .run(engine="sprout")
        )
        encoded = encode_result(result)
        assert encoded == result_to_json(result)
        assert b"\\u2297" in encoded.encoded and "\u2297".encode() not in encoded.encoded
        envelope = {"ok": True, "result": encoded, "tenant": "t\u00e9"}
        assert encode_payload(envelope) == json.dumps(envelope).encode("utf-8")


async def _http_body(host, port, sql):
    reader, writer = await asyncio.open_connection(host, port)
    try:
        body = json.dumps({"sql": sql, "tenant": "t"}).encode()
        writer.write(
            b"POST /query HTTP/1.1\r\nContent-Length: %d\r\n"
            b"Connection: close\r\n\r\n%s" % (len(body), body)
        )
        await writer.drain()
        _, _, body = (await reader.read()).partition(b"\r\n\r\n")
        return body
    finally:
        writer.close()


async def _tcp_lines(host, port, sql, times):
    reader, writer = await asyncio.open_connection(host, port)
    try:
        line = json.dumps({"op": "query", "sql": sql, "tenant": "t"}).encode()
        writer.write((line + b"\n") * times)
        await writer.drain()
        return [await reader.readline() for _ in range(times)]
    finally:
        writer.close()


def _result_bytes(raw: bytes) -> bytes:
    """The ``result`` value of a body/line, cut from the raw bytes (the
    ``tenant`` field follows it in both envelopes)."""
    start = raw.index(b'"result": ') + len(b'"result": ')
    return raw[start : raw.rindex(b', "tenant": ')]


class TestWireBytes:
    """A hot hit's ``result`` bytes are those of the miss that computed
    the kept reply, off a raw HTTP socket and off the TCP line."""

    def test_a_hit_writes_the_bytes_its_miss_wrote(self):
        sql_http = "SELECT kind, COUNT(*) AS n FROM R GROUP BY kind"
        sql_tcp = "SELECT kind, value FROM R"

        async def main():
            server = QueryServer(demo_database(), ServerConfig(port=0))
            await server.start()
            try:
                http = [await _http_body(*server.http_address, sql_http)
                        for _ in range(3)]
                tcp = await _tcp_lines(*server.tcp_address, sql_tcp, 3)
                return http, tcp
            finally:
                await server.stop()

        http, tcp = asyncio.run(main())
        for raws in (http, [line.rstrip(b"\n") for line in tcp]):
            decoded = [json.loads(raw) for raw in raws]
            assert [d["reply_reused"] for d in decoded] == [False, False, True]
            # request 2 computed the reply request 3 was handed
            assert _result_bytes(raws[2]) == _result_bytes(raws[1])
            for raw, envelope in zip(raws, decoded):
                assert raw == json.dumps(envelope).encode("utf-8")
                assert json.loads(_result_bytes(raw)) == envelope["result"]
