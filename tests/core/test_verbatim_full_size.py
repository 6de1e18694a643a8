"""Algorithm 1 verbatim at full size.

With the kernels on, rule 6's base case tabulates the HAVING residuals
of the repo benchmark's step-II workload, so its runs never reach
Shannon expansion at that size.  The workload on the verbatim path,
against its own goldens and naive micro-oracle, keeps it checked on
every tier-1 run.
"""

from __future__ import annotations

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.perf import data, inproc  # noqa: E402


def test_agg_compile_cold_on_the_shannon_path(algorithm1_verbatim):
    workload = data.IN_PROCESS["agg_compile_cold"]
    outcome = inproc.Outcome()
    metrics = inproc.layer_split(workload, 7, 0.0, outcome, inproc.Samples())
    assert outcome.correct, outcome.problems
    # 1 881 ⊔ nodes; tabulated, the same pass creates 27.
    assert metrics["core.mutex_nodes"] > 1000
