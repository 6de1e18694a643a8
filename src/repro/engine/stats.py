"""The registry of ``QueryResult.stats`` keys, next to what emits them.

Every stats key an engine writes is classified here as *volatile* (may
differ between two runs of the same query on the same data) or
*deterministic* (a function of query, data and seed).  Answer
fingerprinting (:func:`repro.server.codec.fingerprint`) drops the
volatile keys and refuses a key that is in neither set.
"""

from __future__ import annotations

__all__ = ["VOLATILE_STAT_KEYS", "DETERMINISTIC_STAT_KEYS"]

#: Stats keys that legitimately differ between two runs of the same
#: query — wall-clock, cache warmth, and how work was parallelised —
#: and are therefore excluded from conformance fingerprints.
VOLATILE_STAT_KEYS = frozenset({
    "wall_seconds",
    "cache_hits",
    "cache_misses",
    "workers",
    "parallel_compiled",
    "parallel_mutex_nodes",
    "parallel_fallback",
    # Deadline outcomes depend on wall-clock, not on the answer: a run
    # that trips spec.time_limit still returns sound intervals, and how
    # many rows it finished exactly varies with machine load.
    "deadline_hit",
    "rows_exact",
    # db_generation counts *every* mutation ever applied to the
    # database, so a warm session that answered through three updates
    # reports a different generation than a fresh session rebuilt from
    # the same final data — while their answers are bit-identical.
    "db_generation",
    # Whether step I was served from the prepared plan's answer slot is
    # cache warmth: a fresh session walks the plan, a warm one does not,
    # and both return the same rows in the same order.
    "step1_reused",
})

#: Stats keys that are a deterministic function of the query, the data
#: and the seed — the keys fingerprints keep.  Every stats key the
#: engines emit must appear in exactly one of these two sets.
DETERMINISTIC_STAT_KEYS = frozenset({
    "rows",
    "samples",
    "rounds",
    "expansions",
    "converged",
    "max_width",
    "epsilon",
    "distinct_worlds",
    "top_k_decided",
    # Whether Monte-Carlo's batch evaluator ran is a function of the
    # query and the data alone (see ``MonteCarloEngine._symbolic_rows``).
    "batched",
})

