"""Shared fixtures: small probabilistic databases and registries.

The central testing strategy of this suite is *oracle equivalence*: every
probability produced by the compiled pipeline must equal the value obtained
by brute-force possible-world enumeration.  The fixtures here provide small
databases (few variables) for which enumeration is cheap.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import pytest

from repro.algebra import BOOLEAN, Var
from repro.core.compile import Compiler
from repro.core.stats import collect_stats
from repro.db import PVCDatabase
from repro.prob import VariableRegistry, kernels


@contextmanager
def kernels_off():
    """Numpy kernels off inside the block: rule 6 has no base case, so
    the compiler is Algorithm 1 verbatim."""
    previous = kernels.set_numpy_enabled(False)
    try:
        yield
    finally:
        kernels.set_numpy_enabled(previous)


@pytest.fixture
def algorithm1_verbatim():
    """:func:`kernels_off` for the test: small dependent examples
    Shannon-expand exactly as in the paper's figures."""
    with kernels_off():
        yield


@contextmanager
def batch_evaluator_off():
    """Monte-Carlo without its batch evaluator inside the block: every
    run takes the per-world loop — the fallback and oracle the batched
    path is checked against — on every CI leg."""
    from repro.engine.montecarlo import MonteCarloEngine

    with mock.patch.object(
        MonteCarloEngine, "_symbolic_rows", lambda self, prepared: None
    ):
        yield


def per_world_counts(engine, query, drawn, samples):
    """Monte-Carlo's per-world loop on already-drawn columns, with the
    world evaluator a run would build over their names: the oracle the
    batch evaluator is checked against."""
    from repro.cache import capture_stamp
    from repro.query.executor import world_evaluator

    stamp = capture_stamp(engine.db, query.base_relations())
    evaluator = world_evaluator(engine._prepare(query), engine.db, list(drawn), stamp)
    return engine._per_world_counts(drawn, samples, evaluator)


@pytest.fixture
def per_world_monte_carlo():
    """:func:`batch_evaluator_off` for the test."""
    with batch_evaluator_off():
        yield


@pytest.fixture
def numpy_kernels():
    """Numpy kernels on for the test, whatever leg the suite runs on."""
    previous = kernels.set_numpy_enabled(True)
    yield
    kernels.set_numpy_enabled(previous)


def assert_tabulated_twin(compiler, expr):
    """Kernels on (see :func:`numpy_kernels`), ``compiler`` compiles
    ``expr`` without a ⊔ node, through table leaves, to the distribution
    Algorithm 1 verbatim gives; returns the d-tree."""
    tree = compiler.compile(expr)
    stats = collect_stats(tree)
    assert compiler.mutex_nodes_created == 0 and stats.mutex_nodes == 0
    assert stats.table_leaves >= 1
    tabulated = tree.distribution(compiler.context)
    verbatim_compiler = Compiler(compiler.registry, compiler.semiring)
    with kernels_off():
        verbatim = verbatim_compiler.distribution(expr)
    assert verbatim_compiler.mutex_nodes_created >= 1
    assert tabulated.support() == verbatim.support()
    for value, probability in verbatim.items():
        assert tabulated[value] == pytest.approx(probability, abs=1e-12)
    return tree


@pytest.fixture
def registry() -> VariableRegistry:
    """Five Boolean variables with assorted probabilities."""
    reg = VariableRegistry()
    for name, p in [("a", 0.3), ("b", 0.5), ("c", 0.7), ("d", 0.2), ("e", 0.9)]:
        reg.bernoulli(name, p)
    return reg


@pytest.fixture
def int_registry() -> VariableRegistry:
    """Three integer-valued (bag semantics) variables."""
    reg = VariableRegistry()
    reg.integer("m", {0: 0.2, 1: 0.5, 2: 0.3})
    reg.integer("n", {1: 0.6, 3: 0.4})
    reg.integer("k", {0: 0.5, 2: 0.5})
    return reg


def build_figure1_database(small: bool = True) -> PVCDatabase:
    """The running example of Figure 1 (optionally trimmed for enumeration).

    The full database has 19 variables (2^19 worlds); the trimmed variant
    keeps 11, which the brute-force oracle enumerates quickly.
    """
    reg = VariableRegistry()
    db = PVCDatabase(registry=reg, semiring=BOOLEAN)

    suppliers = [(1, "M&S"), (2, "M&S"), (4, "Gap")]
    if not small:
        suppliers = [(1, "M&S"), (2, "M&S"), (3, "M&S"), (4, "Gap"), (5, "Gap")]
    s = db.create_table("S", ["sid", "shop"])
    for sid, shop in suppliers:
        reg.bernoulli(f"x{sid}", 0.5)
        s.add((sid, shop), Var(f"x{sid}"))

    listings = [(1, 1, 10), (1, 2, 50), (2, 2, 60), (4, 1, 15)]
    if not small:
        listings = [
            (1, 1, 10), (1, 2, 50), (2, 1, 11), (2, 2, 60),
            (3, 3, 15), (3, 4, 40), (4, 1, 15), (4, 3, 60), (5, 1, 10),
        ]
    ps = db.create_table("PS", ["psid", "pid", "price"])
    for sid, pid, price in listings:
        name = f"y{sid}{pid}"
        reg.bernoulli(name, 0.6)
        ps.add((sid, pid, price), Var(name))

    products1 = [(1, 4), (2, 8)] if small else [(1, 4), (2, 8), (3, 7), (4, 6)]
    p1 = db.create_table("P1", ["ppid", "weight"])
    for pid, weight in products1:
        name = f"z{pid}"
        reg.bernoulli(name, 0.7)
        p1.add((pid, weight), Var(name))

    p2 = db.create_table("P2", ["ppid", "weight"])
    reg.bernoulli("z5", 0.5)
    p2.add((1, 5), Var("z5"))
    return db


@pytest.fixture
def figure1_db() -> PVCDatabase:
    """Trimmed Figure-1 database (enumeration-friendly)."""
    return build_figure1_database(small=True)


@pytest.fixture
def figure1_db_full() -> PVCDatabase:
    """The complete Figure-1 database of the paper."""
    return build_figure1_database(small=False)
