"""Deterministic reduction of per-chunk results.

Workers return partial statistics per chunk of a fan-out; the reducer
here merges them in *chunk order* — the order of the payloads, not the
order chunks happened to finish — so the merged value is identical for
any worker count.
"""

from __future__ import annotations

from typing import Iterable, Mapping

__all__ = ["merge_stat_sums"]


def merge_stat_sums(infos: Iterable[Mapping], keys: tuple) -> dict:
    """Sum the named numeric diagnostics across per-chunk info dicts."""
    totals = dict.fromkeys(keys, 0)
    for info in infos:
        for key in keys:
            totals[key] += info.get(key, 0)
    return totals
