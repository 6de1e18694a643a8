"""The one per-world evaluator and the state a run reads.

:func:`repro.query.executor.world_evaluator` reads the rows of the
tables a plan scans once, when it is built — a snapshot the interpreter
instantiates per world — so a write landing while the brute-force oracle or Monte-Carlo's per-world
loop is running changes nothing they answer: every answer equals a
fresh session's on the data the run started from.  The stamp is taken
before the run reads a variable name off a table, so a write landing
while it plans is read whole and one landing after the stamp, before
the rows are copied, raises.
"""

import pytest

from repro import connect
from repro.cache import capture_stamp
from repro.engine import montecarlo, naive
from repro.errors import ConcurrentMutationError
from repro.query.executor import prepare
from repro.query.sql import parse_sql

QUERY = "SELECT name FROM items WHERE price >= 20"
#: PROD has no batched form: Monte-Carlo runs it world by world.
PER_WORLD_QUERY = "SELECT name, PROD(price) FROM items GROUP BY name"

WRITES = {
    "certain_row": lambda s: s.table("items").insert(("late", 99)),
    "fresh_variable": lambda s: s.table("items").insert(("late", 99), p=0.5),
}


def session():
    s = connect(seed=3)
    items = s.table("items", ["name", "price"])
    for i, price in enumerate([10, 25, 30, 15, 40]):
        items.insert((f"n{i}", price), p=0.2 + 0.15 * i)
    return s


def write_once(s, write, monkeypatch, module, name):
    """Replace ``module.name`` by a hook that runs ``write`` on the
    session the first time it is called, mid-loop."""
    original = getattr(module, name)
    done = []

    def hook(*args, **kwargs):
        if not done:
            done.append(write(s))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, hook)
    return done


@pytest.mark.parametrize("write", sorted(WRITES))
def test_naive_answers_the_data_it_started_on(write, monkeypatch):
    expected = session().run(parse_sql(QUERY), engine="naive")
    s = session()
    done = write_once(s, WRITES[write], monkeypatch, naive, "check_deadline")
    result = s.run(parse_sql(QUERY), engine="naive")
    assert done
    assert result.tuple_probabilities() == expected.tuple_probabilities()


@pytest.mark.parametrize("write", sorted(WRITES))
def test_montecarlo_answers_the_data_it_started_on(write, monkeypatch):
    def snapshots(s):
        return [
            (
                result.stats["samples"],
                {row.values: row.probability() for row in result},
            )
            for result in s.run_iter(
                parse_sql(PER_WORLD_QUERY),
                engine="montecarlo",
                mode="sample",
                epsilon=0.1,
            )
        ]

    expected = snapshots(session())
    assert len(expected) > 1  # the write lands in round 1 of several
    s = session()
    done = write_once(s, WRITES[write], monkeypatch, montecarlo, "fault_point")
    assert snapshots(s) == expected
    assert done


def test_a_fixed_budget_run_reads_one_state(monkeypatch):
    query = parse_sql(PER_WORLD_QUERY)
    expected = session().run(query, engine="montecarlo", samples=300)
    s = session()
    write_once(s, WRITES["fresh_variable"], monkeypatch, montecarlo, "fault_point")
    result = s.run(query, engine="montecarlo", samples=300)
    assert result.stats["batched"] is False
    assert result.tuple_probabilities() == expected.tuple_probabilities()


@pytest.mark.parametrize("query", [QUERY, PER_WORLD_QUERY], ids=["batched", "per_world"])
@pytest.mark.parametrize("write", sorted(WRITES))
def test_a_write_before_the_stamp_is_read_whole(query, write, monkeypatch):
    """A write landing while the run plans comes before its stamp: the
    run answers on the written data, variables and rows alike."""
    fresh = session()
    WRITES[write](fresh)
    expected = fresh.run(parse_sql(query), engine="montecarlo", samples=300)
    s = session()
    engine = s.engine("montecarlo")
    done = write_once(s, WRITES[write], monkeypatch, engine, "_prepare")
    result = s.run(parse_sql(query), engine="montecarlo", samples=300)
    assert done
    assert result.tuple_probabilities() == expected.tuple_probabilities()
    assert ("late",) in {values[:1] for values in result.tuple_probabilities()}


@pytest.mark.parametrize("query", [QUERY, PER_WORLD_QUERY], ids=["batched", "per_world"])
@pytest.mark.parametrize("write", sorted(WRITES))
def test_a_write_after_the_stamp_raises(query, write, monkeypatch):
    """A write landing between the stamp and the last read of the run's
    setup (here: during step I) is no state the run can answer on."""
    s = session()
    done = write_once(s, WRITES[write], monkeypatch, montecarlo, "execute_symbolic")
    with pytest.raises(ConcurrentMutationError):
        s.run(parse_sql(query), engine="montecarlo", samples=300)
    assert done


@pytest.mark.parametrize("write", sorted(WRITES))
def test_naive_reads_the_variables_under_its_stamp(write, monkeypatch):
    fresh = session()
    WRITES[write](fresh)
    expected = fresh.run(parse_sql(QUERY), engine="naive")
    s = session()
    done = write_once(s, WRITES[write], monkeypatch, naive, "prepare")
    result = s.run(parse_sql(QUERY), engine="naive")
    assert done
    assert result.tuple_probabilities() == expected.tuple_probabilities()


@pytest.mark.parametrize("write", sorted(WRITES))
def test_naive_raises_on_a_write_after_its_stamp(write, monkeypatch):
    """The variable names are read under the stamp the rows are copied
    or bound under: a write between the two raises."""
    s = session()
    done = write_once(s, WRITES[write], monkeypatch, naive, "world_evaluator")
    with pytest.raises(ConcurrentMutationError):
        s.run(parse_sql(QUERY), engine="naive")
    assert done


def test_the_evaluator_reads_its_tables_once():
    from repro.query.executor import world_evaluator

    s = session()
    db = s.db
    prepared = prepare(parse_sql(QUERY), db.catalog(), optimize=False)
    stamp = capture_stamp(db, prepared.query.base_relations())
    names = sorted(db.variables)
    evaluate = world_evaluator(prepared, db, names, stamp)
    everything = {name: True for name in names}
    before = evaluate(everything)
    s.table("items").insert(("late", 99))
    s.table("items").delete({"name": "n4"})
    assert evaluate(everything) == before
    assert set(before) == {("n1",), ("n2",), ("n4",)}


def test_a_write_while_it_reads_raises(monkeypatch):
    from repro.query import executor

    s = session()
    prepared = prepare(parse_sql(QUERY), s.db.catalog(), optimize=False)

    copy = executor.PVCTable

    def write_then_copy(schema, rows):
        s.table("items").insert(("late", 99))  # between stamp and copy
        return copy(schema, rows)

    monkeypatch.setattr(executor, "PVCTable", write_then_copy)
    stamp = capture_stamp(s.db, prepared.query.base_relations())
    with pytest.raises(ConcurrentMutationError):
        executor.world_evaluator(prepared, s.db, sorted(s.db.variables), stamp)
