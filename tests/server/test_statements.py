"""The prepared-statement cache: normalisation, LRU, thread-safety, and
the replies an entry keeps for its statement."""

import sys
import threading

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import ParseError, QueryValidationError
from repro.query.sql import parse_sql
from repro.server.statements import (
    _OPTION_SETS_PER_STATEMENT,
    StatementCache,
    normalise_statement,
)


def normalise_per_character(text: str) -> str:
    """``normalise_statement`` as it shipped until PR 20, verbatim: one
    quote-aware pass over the characters.  The oracle of the fast path."""
    out: list[str] = []
    pending_space = False
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "'":
            # Copy the quoted literal verbatim; a doubled '' stays inside.
            j = i + 1
            while j < n:
                if text[j] == "'":
                    if j + 1 < n and text[j + 1] == "'":
                        j += 2
                        continue
                    break
                j += 1
            if pending_space and out:
                out.append(" ")
            pending_space = False
            out.append(text[i : min(j + 1, n)])
            i = j + 1
        elif ch.isspace():
            pending_space = True
            i += 1
        else:
            if pending_space and out:
                out.append(" ")
            pending_space = False
            out.append(ch)
            i += 1
    key = "".join(out)
    while key.endswith(";"):
        key = key[:-1].rstrip()
    return key


#: SQL-ish texts: words, every kind of blank ``str.isspace`` accepts
#: (the separators \x1c-\x1f and the Unicode spaces included), quotes
#: (balanced or not, doubled or not) and semicolons, in any order.
_fragments = st.one_of(
    st.sampled_from([
        "SELECT", "a", "FROM", "R", "WHERE", "b", "=", "1", ",", "'", "''",
        "'x  y'", "'it''s   ok'", ";", " ; ;", " ", "  ", "\t", "\n", "\r\n",
        "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0",
        "\u2003", "\u2028", "\u3000",
    ]),
    st.text(max_size=6),
)
_texts = st.lists(_fragments, max_size=14).map("".join)


class TestNormalisation:
    def test_whitespace_runs_collapse(self):
        assert (
            normalise_statement("SELECT   a\n  FROM\t R")
            == normalise_statement("SELECT a FROM R")
        )

    def test_leading_trailing_whitespace_stripped(self):
        assert normalise_statement("  SELECT a FROM R  ") == "SELECT a FROM R"

    def test_trailing_semicolons_dropped(self):
        assert normalise_statement("SELECT a FROM R;") == "SELECT a FROM R"
        assert normalise_statement("SELECT a FROM R ; ;") == "SELECT a FROM R"

    def test_string_literals_preserved_verbatim(self):
        # Two statements differing only inside a literal must NOT collide.
        a = normalise_statement("SELECT a FROM R WHERE b = 'x  y'")
        b = normalise_statement("SELECT a FROM R WHERE b = 'x y'")
        assert a != b
        # ... and whitespace inside the literal survives normalisation.
        assert "'x  y'" in a

    def test_doubled_quote_escapes_stay_inside_literal(self):
        key = normalise_statement("SELECT a FROM R WHERE b = 'it''s   ok'")
        assert "'it''s   ok'" in key

    def test_keyword_case_not_folded(self):
        assert (
            normalise_statement("select a from R")
            != normalise_statement("SELECT a FROM R")
        )

    @given(_texts)
    @example("  SELECT a\x1cFROM\x1f R ; ;  ")
    @example("SELECT a FROM R WHERE b = 'x \x1d y' ;\t;")
    @example("SELECT 'unterminated   ;")
    @example(";;")
    @example("")
    def test_fast_path_agrees_with_the_per_character_loop(self, text):
        assert normalise_statement(text) == normalise_per_character(text)

    @given(_texts)
    def test_normalisation_is_idempotent(self, text):
        # The server normalises on the event loop and hands the key on.
        key = normalise_statement(text)
        assert normalise_statement(key) == key

    def test_non_string_rejected(self):
        with pytest.raises(QueryValidationError):
            normalise_statement(42)


class TestStatementCache:
    def test_equivalent_texts_share_one_entry(self):
        cache = StatementCache()
        q1, hit1 = cache.get_or_parse("SELECT a, b FROM R")
        q2, hit2 = cache.get_or_parse("  SELECT   a, b\nFROM R ;")
        assert not hit1 and hit2
        assert q1 is q2
        assert len(cache) == 1
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_lru_eviction_counts(self):
        cache = StatementCache(max_entries=2)
        cache.get_or_parse("SELECT a FROM R")
        cache.get_or_parse("SELECT b FROM R")
        cache.get_or_parse("SELECT a FROM R")  # refresh: a is now MRU
        cache.get_or_parse("SELECT c FROM R")  # evicts b
        assert cache.stats()["evictions"] == 1
        _, hit_a = cache.get_or_parse("SELECT a FROM R")
        assert hit_a  # survived because it was refreshed
        _, hit_b = cache.get_or_parse("SELECT b FROM R")
        assert not hit_b  # was evicted

    def test_bad_bound_rejected(self):
        with pytest.raises(QueryValidationError):
            StatementCache(max_entries=0)

    def test_parse_errors_propagate_and_cache_nothing(self):
        cache = StatementCache()
        with pytest.raises(ParseError):
            cache.get_or_parse("SELECT FROM WHERE")
        assert len(cache) == 0
        assert cache.stats()["misses"] == 0

    def test_clear(self):
        cache = StatementCache()
        cache.get_or_parse("SELECT a FROM R")
        cache.clear()
        assert len(cache) == 0

    def test_concurrent_access_is_consistent(self):
        cache = StatementCache(max_entries=8)
        # One shape, 16 texts: every miss binds the one shared template.
        statements = [f"SELECT a FROM R WHERE b = {i}" for i in range(16)]
        expected = {sql: parse_sql(sql) for sql in statements}
        errors = []

        def worker():
            try:
                for _ in range(50):
                    for sql in statements:
                        query, _ = cache.get_or_parse(sql)
                        assert query == expected[sql]
                        assert query.shape[1] == (expected[sql].child.predicate.right.value,)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        stats = cache.stats()
        assert len(cache) <= 8
        assert stats["hits"] + stats["misses"] == 4 * 50 * 16


class TestKeptReplies:
    """The replies an entry keeps: per option set, valid for one stamp,
    admitted on second sight, gone with the entry."""

    KEY = "SELECT a FROM R"

    def cache(self, **kwargs) -> StatementCache:
        cache = StatementCache(**kwargs)
        cache.get_or_parse(self.KEY)
        return cache

    def test_second_sight_admits_and_a_found_reply_counts_as_a_hit(self):
        cache = self.cache()
        assert cache.reply(self.KEY, "opts", 1) is None
        cache.keep_reply(self.KEY, "opts", 1, {"n": 1})
        assert cache.reply(self.KEY, "opts", 1) is None  # seen once
        hits = cache.stats()["hits"]
        kept = {"n": 2}
        cache.keep_reply(self.KEY, "opts", 1, kept)
        assert cache.reply(self.KEY, "opts", 1) is kept
        assert cache.stats()["hits"] == hits + 1
        assert cache.stats()["misses"] == 1  # a None counted nothing

    def test_option_sets_are_separate_records(self):
        cache = self.cache()
        for _ in range(2):
            cache.keep_reply(self.KEY, "one", 1, "reply-one")
        cache.keep_reply(self.KEY, "two", 1, "reply-two")
        assert cache.reply(self.KEY, "one", 1) == "reply-one"
        assert cache.reply(self.KEY, "two", 1) is None

    def test_another_stamp_misses_and_a_new_stamp_drops_the_old_replies(self):
        cache = self.cache()
        for _ in range(2):
            cache.keep_reply(self.KEY, "opts", 1, "at-1")
        assert cache.reply(self.KEY, "opts", 2) is None
        assert cache.reply(self.KEY, "opts", 1) == "at-1"
        cache.keep_reply(self.KEY, "other", 2, "at-2")
        assert cache.reply(self.KEY, "opts", 1) is None
        assert cache.reply(self.KEY, "opts", 2) is None

    def test_replies_leave_with_their_entry(self):
        cache = self.cache(max_entries=1)
        for _ in range(2):
            cache.keep_reply(self.KEY, "opts", 1, "reply")
        cache.get_or_parse("SELECT b FROM R")  # evicts KEY
        assert cache.reply(self.KEY, "opts", 1) is None
        cache.keep_reply(self.KEY, "opts", 1, "late")  # no entry: no-op
        cache.get_or_parse(self.KEY)
        assert cache.reply(self.KEY, "opts", 1) is None

    def test_a_found_reply_refreshes_recency(self):
        cache = self.cache(max_entries=2)
        for _ in range(2):
            cache.keep_reply(self.KEY, "opts", 1, "reply")
        cache.get_or_parse("SELECT b FROM R")
        assert cache.reply(self.KEY, "opts", 1) == "reply"  # KEY is MRU
        cache.get_or_parse("SELECT c FROM R")  # evicts b
        assert cache.reply(self.KEY, "opts", 1) == "reply"

    def test_option_sets_per_statement_are_bounded(self):
        cache = self.cache()
        for n in range(3 * _OPTION_SETS_PER_STATEMENT):
            for _ in range(2):
                cache.keep_reply(self.KEY, f"opts-{n}", 1, f"reply-{n}")
        entry = cache.peek(self.KEY)
        assert len(entry.replies.get(1)) == _OPTION_SETS_PER_STATEMENT
        last = 3 * _OPTION_SETS_PER_STATEMENT - 1
        assert cache.reply(self.KEY, f"opts-{last}", 1) == f"reply-{last}"
        assert cache.reply(self.KEY, "opts-0", 1) is None
