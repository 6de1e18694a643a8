"""Monte-Carlo sampling baseline (in the spirit of MCDB [10]).

The related work the paper contrasts with relies on sampling possible
worlds and estimating answer probabilities from frequencies.  This engine
implements that baseline: it samples valuations of the random variables,
evaluates the query deterministically in each sampled world, and reports
empirical tuple frequencies.  It converges at the usual ``O(1/√n)``
Monte-Carlo rate and — unlike the compiled engine — provides no exactness
guarantee, which is the paper's core argument for exact computation via
knowledge compilation.

The sampler is **batched**:

* all ``samples × variables`` draws happen up front: one
  ``numpy.random.Generator.random`` block of uniforms for many variables
  at once (a row per variable, blocks of at most ``_DRAW_CELLS``
  cells), each row turned into an index column through the variable's
  cumulative distribution — the very uniforms and the very indices
  ``Generator.choice(p=...)`` would give, without its per-call
  overhead.  It is the one draw stream: the kernels switch, which makes
  the exact compiler Algorithm 1 verbatim, moves nothing here;
* only the variables and relations actually referenced by the query are
  sampled;
* step I runs **once per run**, symbolically — the same ``prepare`` →
  ``execute_symbolic`` call the exact engine makes — and every result
  row's annotation and semimodule values are then valuated over the
  whole batch of drawn worlds as numpy columns, bool under set semantics
  and int64 multiplicities under bag semantics
  (:func:`repro.algebra.valuation.evaluate_batch`).  A Boolean
  variable's bool column is its 0/1 index column read as is (or
  negated, by its support's order); any other variable's column is
  gathered from its support values by its indices.  A valuation extends
  to a homomorphism into any concrete semiring, so ``ν(Q(T)) = Q(ν(T))``
  (the paper's Section 3) makes this equal to running the query in
  every sampled world, for any query shape — joins, unions, HAVING,
  aggregates over filtered aggregates — and any (correlated)
  annotations.  Large batches are valuated in world chunks of bounded
  array size, with a deadline checkpoint between chunks;
* the per-world loop remains only where it is the one exact path:
  semimodule values stored in base tables, predicates only concrete
  values can evaluate, and aggregates the batch could alter — float SUM
  inputs, integers beyond 2**52/2**53, multiplicities that could leave
  that range, PROD and custom monoids (see
  :func:`repro.algebra.valuation.batch_exact`).  Each distinct drawn
  world goes through :func:`repro.query.executor.world_evaluator` — the
  interpreter — built once per run over the rows the tables held when
  the run started.  It memoises repeated
  worlds, so databases with few effective variables never evaluate the
  same world twice, and it is the oracle the batched path is tested
  against.

Both evaluators count over the same drawn columns, so which one runs
never changes a seeded answer.  ``workers`` (an
:class:`~repro.engine.spec.EvalSpec` field) is accepted and ignored: one
numpy batch beats any split of it (EXPERIMENTS.md, "Accelerator
verdicts"), the per-world loop is only a fallback, and every value
returns the ``workers=None`` answer without opening a pool.

Estimates remain plain empirical frequencies either way, and a fixed
``seed`` makes runs reproducible.
"""

from __future__ import annotations

import math
from statistics import NormalDist
from typing import Callable, NamedTuple

import numpy as _np

from repro.algebra.expressions import Var
from repro.algebra.semimodule import ModuleExpr
from repro.algebra.valuation import (
    Valuation,
    batch_exact,
    batch_values,
    evaluate_batch,
    support_column,
)
from repro.cache import capture_stamp
from repro.db.pvc_table import PVCDatabase
from repro.engine.spec import EvalSpec, ProbInterval, is_positive_int
from repro.engine.sprout import QueryResult, Run, concrete_result
from repro.errors import AlgebraError, QueryValidationError
from repro.query.ast import Query
from repro.query.executor import (
    PreparedQuery,
    check_stamp,
    execute_symbolic,
    prepare,
    world_evaluator,
)
from repro.query.validate import validate_query
from repro.resilience.deadline import DeadlineExceeded, check_deadline
from repro.resilience.faults import fault_point

__all__ = ["MonteCarloEngine"]


#: Bound on ``expression nodes × worlds`` of one batched chunk: the
#: evaluator holds one vector per distinct sub-expression, so this caps
#: its working set (bool cells; int64 multiplicities and the float
#: matrices of ``Σ_M`` cost 8×).
_BATCH_CELLS = 1 << 24

#: Bound on ``variables × worlds`` of one block of uniforms the sampler
#: draws at once (float64 cells); a deadline checkpoint separates blocks.
_DRAW_CELLS = 1 << 20

#: Worlds of the first sequential-stopping round; each later round
#: doubles the total drawn.
_INITIAL_BATCH = 256


class _RunContext(NamedTuple):
    """What every round of one run shares: built once, so no round
    re-plans, re-runs step I or re-reads a variable's distribution."""

    query: Query
    #: The variables of the referenced tables, see ``_supports``.
    supports: dict
    #: ``(rows, nodes)`` of the symbolic answer when the batch evaluator
    #: applies (see ``_symbolic_rows``), else ``None``: per-world loop.
    symbolic: tuple | None
    #: The per-world loop's :func:`world_evaluator` when ``symbolic`` is
    #: ``None``, else ``None``.
    evaluator: Callable | None


class MonteCarloEngine:
    """Approximate query answering by sampling possible worlds.

    :meth:`run` without a spec (or with ``samples=``) reports plain
    empirical frequencies from a fixed budget.  With ``spec`` mode
    ``"sample"`` it runs the sequential-stopping estimator: worlds are
    drawn in doubling rounds until every answer tuple's (ε, δ) confidence
    interval is narrower than ``spec.epsilon`` (or the budget/time limit
    trips), and rows carry those intervals.
    """

    name = "montecarlo"

    def __init__(
        self,
        db: PVCDatabase,
        seed: int | None = None,
        samples: int = 1000,
    ):
        self.db = db
        #: Fixed budget of :meth:`run` when neither ``samples=`` nor a
        #: ``"sample"`` spec says otherwise.
        self.samples = samples
        self._np_rng = _np.random.default_rng(seed)

    # -- sampling ------------------------------------------------------------

    def sample_valuation(self) -> Valuation:
        """Draw one valuation of all registered variables.

        It is one world drawn from the run stream, as a run of one sample
        over every registered variable would draw it, so it advances the
        stream: the seeded runs after it answer what a twin engine's runs
        answer after the same draw, not what a fresh engine's do."""
        drawn = self._sample_index_columns(self.db.registry.names(), 1)
        return Valuation(
            {name: values[indices[0]] for name, (values, indices) in drawn.items()},
            self.db.semiring,
        )

    def _supports(self, names) -> dict:
        """``{name: (support values, cdf)}`` — what drawing each variable
        needs, read off the registry once per run.  ``cdf`` is the
        cumulative distribution ``Generator.choice`` builds from the
        normalised weights, bit for bit (``p.cumsum()``, divided by its
        last entry).  The cdfs of all two-valued supports — every
        Bernoulli variable — come from one pass over their k×2 weight
        matrix, row for row the same arithmetic."""
        supports = {}
        pairs = []
        for name in names:
            values, weights = zip(*self.db.registry[name].items())
            if len(values) == 2:
                pairs.append((name, values, weights))
                supports[name] = None  # keeps the draw order; set below
                continue
            probabilities = _np.asarray(weights, dtype=float)
            cdf = (probabilities / probabilities.sum()).cumsum()
            cdf /= cdf[-1]
            supports[name] = (values, cdf)
        if pairs:
            matrix = _np.array([weights for _, _, weights in pairs], dtype=float)
            cdfs = (matrix / matrix.sum(axis=1)[:, None]).cumsum(axis=1)
            cdfs /= cdfs[:, -1:]
            for (name, values, _), cdf in zip(pairs, cdfs):
                supports[name] = (values, cdf)
        return supports

    def _sample_index_columns(self, variables, samples: int) -> dict:
        """Batched draws as ``{name: (support_values, index_column)}``.

        The variables are drawn as ``Generator.random((rows, samples))``
        blocks of at most ``_DRAW_CELLS`` cells, one row per variable,
        with a deadline checkpoint between blocks.  A row becomes an
        index column by inverting its ``cdf`` (see :meth:`_supports`):
        ``u >= cdf[0]`` as ``uint8`` for a two-valued support,
        ``searchsorted`` otherwise; a one-valued support still consumes
        its row.  Those are the uniforms, in the order, and the indices
        per-variable ``Generator.choice(len(values), size=samples,
        p=...)`` calls would give, and the generator ends in the same
        state.  Draws stay in *index* form: the batch evaluator reads a
        two-valued Boolean column straight off them and gathers any other
        one with a fancy index, never a per-sample Python loop.

        ``variables`` names the variables to draw — or is their
        :meth:`_supports` mapping, which runs build once instead of per
        round.
        """
        if not isinstance(variables, dict):
            variables = self._supports(variables)
        rows = max(1, _DRAW_CELLS // max(samples, 1))
        items = list(variables.items())
        drawn: dict = {}
        for start in range(0, len(items), rows):
            if start:
                check_deadline("Monte-Carlo sampling")
            block = items[start : start + rows]
            uniforms = self._np_rng.random((len(block), samples))
            for (name, (values, cdf)), row in zip(block, uniforms):
                if len(cdf) == 2:
                    indices = (row >= cdf[0]).view(_np.uint8)
                else:
                    indices = cdf.searchsorted(row, side="right")
                drawn[name] = (values, indices)
        return drawn

    # -- the Engine protocol -------------------------------------------------

    def run(
        self,
        query: Query,
        spec: EvalSpec | None = None,
        samples: int | None = None,
        **options,
    ) -> QueryResult:
        """Estimate ``P[t ∈ answer]``; see the class docstring for modes."""
        run = Run(self, spec, options)
        result = None
        for result in self._snapshots(run, query, samples):
            pass
        return run.settle(result, f"{result.stats['samples']} samples drawn")

    def run_iter(
        self,
        query: Query,
        spec: EvalSpec | None = None,
        samples: int | None = None,
        **options,
    ):
        """Yield a refined :class:`QueryResult` after every sampling
        round (the one fixed-budget estimate when no mode is asked)."""
        yield from self._snapshots(Run(self, spec, options), query, samples)

    def _snapshots(self, run: Run, query: Query, samples: int | None):
        """The results behind :meth:`run` and :meth:`run_iter`."""
        if samples is not None and not is_positive_int(samples):
            raise QueryValidationError(
                f"samples must be a positive integer, got {samples!r}"
            )
        spec = run.spec
        if run.mode is None:
            # No spec, or one that only tunes execution: the fixed-budget
            # estimator, its answer semantics untouched.
            probabilities, info = self._estimate(
                query, self.samples if samples is None else samples
            )
            run.lap("sampling_seconds")
            yield concrete_result(run, query, probabilities, info)
            return
        if samples is not None:
            raise QueryValidationError(
                "pass the sample budget as spec.budget, not samples=, "
                "when running under an EvalSpec"
            )
        for intervals, info in self._interval_snapshots(
            run,
            query,
            spec.epsilon,
            spec.delta,
            spec.budget,
            _INITIAL_BATCH,
        ):
            yield concrete_result(run, query, intervals, info)

    # -- estimation ----------------------------------------------------------

    def tuple_probabilities(
        self, query: Query, samples: int = 1000
    ) -> dict[tuple, float]:
        """Empirical estimate of ``P[t ∈ answer]`` from ``samples`` worlds."""
        return self._estimate(query, samples)[0]

    def _estimate(
        self, query: Query, samples: int
    ) -> tuple[dict[tuple, float], dict]:
        """:meth:`tuple_probabilities` plus the run's diagnostics."""
        if samples <= 0:
            raise ValueError("need at least one sample")
        validate_query(query, self.db.catalog())
        counts, info = self._sampled_counts(self._run_context(query), samples)
        probabilities = {
            values: count / samples for values, count in counts.items()
        }
        return probabilities, {"samples": samples, **info}

    def _prepare(self, query: Query) -> PreparedQuery:
        return prepare(
            query, self.db.catalog(), self.db.cardinalities(), optimize=False
        )

    def _run_context(self, query: Query) -> _RunContext:
        """Plan, run step I, read the variables' distributions and, where
        the batch evaluator does not apply, build the per-world one —
        once, under one stamp, so every round reads the tables as the run
        found them; a write landing meanwhile raises
        :class:`~repro.errors.ConcurrentMutationError`."""
        db = self.db
        prepared = self._prepare(query)
        read = query.base_relations()
        stamp = capture_stamp(db, read)  # before any variable is read
        needed: set[str] = set()
        for name in set(read):
            needed |= db.tables[name].variables
        supports = self._supports(sorted(needed))
        symbolic = self._symbolic_rows(prepared)
        evaluator = None
        if symbolic is None:
            evaluator = world_evaluator(prepared, db, list(supports), stamp)
        else:
            check_stamp(db, read, stamp)
        return _RunContext(query, supports, symbolic, evaluator)

    def _sampled_counts(
        self, context: _RunContext, samples: int
    ) -> tuple[dict[tuple, int], dict]:
        """Draw ``samples`` worlds and count answer-tuple occurrences;
        see :meth:`_evaluate_drawn`."""
        drawn = self._sample_index_columns(context.supports, samples)
        return self._evaluate_drawn(context, drawn, samples)

    def _evaluate_drawn(
        self, context: _RunContext, drawn, samples: int
    ) -> tuple[dict[tuple, int], dict]:
        """Count answer tuples over already-drawn index columns.

        Counts are an exact, deterministic function of the drawn columns
        — whether the vectorized batch evaluator or the per-world
        interpreter computes them.  The second
        value says which ran: ``batched``, or the per-world loop's
        diagnostics.
        """
        if context.symbolic is not None:
            counts = self._batched_counts(
                context.query, drawn, samples, context.symbolic
            )
            return counts, {"batched": True}
        counts, info = self._per_world_counts(drawn, samples, context.evaluator)
        info["batched"] = False
        return counts, info

    def estimate_intervals(
        self,
        query: Query,
        epsilon: float = 0.05,
        delta: float = 0.05,
        max_samples: int | None = None,
        time_limit: float | None = None,
        initial_batch: int = _INITIAL_BATCH,
    ) -> tuple[dict[tuple, ProbInterval], dict]:
        """Sequential-stopping (ε, δ) estimation of ``P[t ∈ answer]``.

        Drives :meth:`estimate_intervals_iter` to completion and returns
        the final ``(intervals, info)`` snapshot.
        """
        intervals: dict = {}
        info: dict = {}
        for intervals, info in self.estimate_intervals_iter(
            query,
            epsilon=epsilon,
            delta=delta,
            max_samples=max_samples,
            time_limit=time_limit,
            initial_batch=initial_batch,
        ):
            pass
        return intervals, info

    def estimate_intervals_iter(
        self,
        query: Query,
        epsilon: float = 0.05,
        delta: float = 0.05,
        max_samples: int | None = None,
        time_limit: float | None = None,
        initial_batch: int = _INITIAL_BATCH,
    ):
        """Yield ``(intervals, info)`` snapshots of an (ε, δ) estimation.

        Worlds are drawn in doubling rounds; after round ``k`` every
        observed tuple gets a confidence interval — the intersection of
        the Hoeffding and Wilson intervals, each at level ``δ_k/2`` with
        ``δ_k = δ/(k(k+1))`` so the levels across all rounds sum to δ.
        By the union bound the interval reported at the (data-dependent)
        stopping round covers the true probability with probability
        ≥ 1 − δ, per tuple.  Sampling stops as soon as every interval
        width is ≤ ε, or the sample budget / time limit trips; the last
        snapshot's ``info["converged"]`` records which.

        Tuples never observed in any sampled world are not reported
        (matching :meth:`tuple_probabilities`); their true probability
        may still be positive but is at most the resolution of the draw.
        """
        yield from self._interval_snapshots(
            Run(self, EvalSpec(mode="sample", time_limit=time_limit)),
            query,
            epsilon,
            delta,
            max_samples,
            initial_batch,
        )

    def _interval_snapshots(
        self, run: Run, query, epsilon, delta, max_samples, initial_batch
    ):
        """:meth:`estimate_intervals_iter` on ``run``'s clock and
        deadline: the doubling-round loop."""
        if not epsilon > 0.0:  # NaN too
            raise ValueError("sequential stopping needs epsilon > 0")
        if not (0.0 < delta < 1.0):
            raise ValueError("delta must be in (0, 1)")
        if initial_batch < 1:
            raise ValueError("initial_batch must be at least 1")
        if max_samples is not None and max_samples < 1:
            raise ValueError("max_samples must be None or at least 1")
        validate_query(query, self.db.catalog())
        if max_samples is None:
            # Past this Hoeffding alone pushes every width under ε even
            # with the round-wise δ split (k ≤ 64 covers any feasible n).
            # A huge ε rounds it to 0, which would draw nothing at all.
            max_samples = max(
                1,
                math.ceil(
                    2.0 * (math.log(4.0 / delta) + 13.0) / (epsilon * epsilon)
                ),
            )
        context = self._run_context(query)
        deadline = run.deadline
        totals: dict[tuple, int] = {}
        drawn_total = 0
        round_no = 0
        while True:
            round_no += 1
            fault_point("engine.montecarlo.round")
            batch = initial_batch if drawn_total == 0 else drawn_total
            batch = min(batch, max_samples - drawn_total)
            if deadline is not None and drawn_total:
                # Doubling rounds only check the clock *between* rounds,
                # so an unclamped final round could blow far past the
                # limit; cap it to what the observed sampling rate fits
                # into the remaining budget.
                batch = self._deadline_clamp(
                    batch, drawn_total, run.elapsed(), deadline.remaining()
                )
            try:
                # The scope lets the chunked batch evaluator stop between
                # chunks instead of finishing a round past the time budget.
                with run.scope():
                    counts, _ = self._sampled_counts(context, batch)
            except DeadlineExceeded:
                if deadline is None or not deadline.expired():
                    raise  # an outer scope's deadline: not ours to absorb
                # Out of time mid-round: the unfinished round is dropped
                # whole and the run ends on the samples it already has.
                counts, batch = {}, 0
            drawn_total += batch
            for values, count in counts.items():
                totals[values] = totals.get(values, 0) + count
            level = delta / (round_no * (round_no + 1))
            intervals = {
                values: self._confidence_interval(
                    count, drawn_total, level / 2.0
                )
                for values, count in totals.items()
            }
            max_width = max(
                (interval.width for interval in intervals.values()),
                default=0.0,
            )
            converged = drawn_total > 0 and max_width <= epsilon
            out_of_time = run.expired()
            done = converged or drawn_total >= max_samples or out_of_time
            info = {
                "samples": drawn_total,
                "rounds": round_no,
                "batched": context.symbolic is not None,
                "converged": converged,
                "max_width": max_width,
            }
            if out_of_time and not converged:
                info["deadline_hit"] = True
            run.lap("sampling_seconds")
            yield intervals, info
            if done:
                return

    @staticmethod
    def _deadline_clamp(
        batch: int, drawn_total: int, elapsed: float, remaining: float
    ) -> int:
        """Samples of the next round that fit into ``remaining`` seconds.

        Uses the observed sampling rate ``drawn_total / elapsed``; always
        returns at least one sample so the loop makes progress and then
        observes the deadline trip on the next clock check.  Pure —
        exercised directly by the overshoot regression tests.
        """
        if remaining <= 0.0:
            return 1
        if elapsed <= 0.0 or drawn_total <= 0:
            return max(1, batch)
        affordable = int(drawn_total / elapsed * remaining)
        return max(1, min(batch, affordable))

    @staticmethod
    def _confidence_interval(
        count: int, n: int, alpha: float
    ) -> ProbInterval:
        """A two-sided confidence interval missing with probability ≤ 2α.

        Intersects the finite-sample Hoeffding interval with the Wilson
        score interval (tighter near 0 and 1), each at significance
        ``alpha``; by the union bound the intersection misses the true
        probability with probability at most ``2·alpha``.
        """
        p_hat = count / n
        hoeffding = math.sqrt(math.log(2.0 / alpha) / (2.0 * n))
        low = p_hat - hoeffding
        high = p_hat + hoeffding
        z = NormalDist().inv_cdf(1.0 - alpha / 2.0)
        z2 = z * z
        denom = 1.0 + z2 / n
        center = (p_hat + z2 / (2.0 * n)) / denom
        half = (z / denom) * math.sqrt(
            p_hat * (1.0 - p_hat) / n + z2 / (4.0 * n * n)
        )
        low = max(low, center - half, 0.0)
        high = min(high, center + half, 1.0)
        if low > high:  # numerically inconsistent: fall back to Hoeffding
            low = max(p_hat - hoeffding, 0.0)
            high = min(p_hat + hoeffding, 1.0)
        return ProbInterval(low, high)

    def estimate_probability(
        self, query: Query, values: tuple, samples: int = 1000
    ) -> float:
        """Estimate the probability of one specific answer tuple."""
        estimates = self.tuple_probabilities(query, samples)
        return estimates.get(tuple(values), 0.0)

    # -- generic per-world fallback -------------------------------------------

    def _per_world_counts(
        self, drawn, samples: int, evaluate
    ) -> tuple[dict[tuple, int], dict]:
        """Evaluate sampled worlds one by one, memoising repeated worlds.

        Only the drawn variables — those of the relations the query
        references — enter the world key (in index form), so databases
        with few effective variables collapse to a handful of
        evaluations, each one call of ``evaluate`` (the run's
        :func:`world_evaluator`, built over the names of ``drawn``).
        Returns the counts and ``{"distinct_worlds"}``.
        """
        names = list(drawn)
        supports = [drawn[name][0] for name in names]
        index_columns = [drawn[name][1] for name in names]
        counts: dict[tuple, int] = {}
        world_cache: dict[tuple, list] = {}
        distinct = 0
        for sample in range(samples):
            fault_point("engine.montecarlo.world")
            key = tuple(int(column[sample]) for column in index_columns)
            support = world_cache.get(key)
            if support is None:
                distinct += 1
                assignment = {
                    name: values[i]
                    for name, values, i in zip(names, supports, key)
                }
                support = list(evaluate(assignment))
                world_cache[key] = support
            for values in support:
                counts[values] = counts.get(values, 0) + 1
        info = {"distinct_worlds": distinct}
        return counts, info

    # -- vectorized batch evaluation ------------------------------------------

    def _symbolic_rows(self, prepared: PreparedQuery):
        """Step I, symbolically: ``(rows, nodes)`` for the batch evaluator,
        or ``None`` when only the per-world loop is exact.

        ``rows`` holds ``(values, annotation, slots)`` per result tuple,
        ``slots`` being the positions of its semimodule values; ``nodes``
        is the total expression size, which sizes the world chunks.
        Semimodule values stored in base tables stay per-world: two such
        rows can valuate to one tuple in some worlds, which a world's
        support holds once — values built by ``$`` never collide, their
        group keys differ.  Whether a read table stores any is one of the
        facts its write path keeps, so no row is looked at here.  Under
        bag semantics every drawn variable's largest support value bounds
        the multiplicities :func:`~repro.algebra.valuation.batch_exact`
        must keep exact.
        """
        db = self.db
        read = set(prepared.query.base_relations())
        if any(db.tables[name].facts().module_rows for name in read):
            return None
        maxima = None
        if not db.semiring.is_boolean:
            coerce = db.semiring.coerce
            maxima = {
                variable: max(map(coerce, db.registry[variable]))
                for name in read
                for variable in db.tables[name].variables
            }
            # Every drawn column must fit the carrier, not just those the
            # answer mentions.
            if not all(batch_exact(Var(name), maxima) for name in maxima):
                return None
        try:
            table = execute_symbolic(prepared, db)
        except (AlgebraError, QueryValidationError):
            # Some predicates only make sense on concrete values, e.g. an
            # aggregate compared with a string: worlds still evaluate.
            return None
        rows = []
        nodes = 0
        for row in table.rows:
            slots = tuple(
                i for i, v in enumerate(row.values) if isinstance(v, ModuleExpr)
            )
            for expr in (row.annotation, *(row.values[i] for i in slots)):
                if not batch_exact(expr, maxima):
                    return None
                nodes += expr.size()
            rows.append((row.values, row.annotation, slots))
        return rows, nodes

    def _batched_counts(
        self, query: Query, drawn, samples: int, symbolic=None
    ) -> dict[tuple, int] | None:
        """Valuate the symbolic answer over all drawn worlds at once.

        Every result row's annotation becomes a multiplicity vector over
        the batch and every semimodule value a value vector; a row
        without semimodule values counts the worlds it is present in
        (multiplicity > 0), one with them counts the distinct value
        combinations among those worlds.  Worlds are valuated in chunks
        of at most ``_BATCH_CELLS`` cells — counts add over disjoint sets
        of worlds.  A variable's column per chunk is a slice of the
        presence column :func:`_presence_column` reads off its draw once
        per run, or else gathered from its support values.  Returns
        ``None`` when the batch evaluator does not apply (callers holding
        a run context pass its ``symbolic`` and never see that).
        """
        if symbolic is None:
            symbolic = self._symbolic_rows(self._prepare(query))
            if symbolic is None:
                return None
        rows, nodes = symbolic
        semiring = self.db.semiring
        # A two-valued 𝔹 support's index column is its presence column
        # (or that column negated), built once and sliced per chunk.  Any
        # other support keeps one carrier value per *support value*, and
        # a fancy index per chunk turns its draws into a column — no
        # per-sample Python loop either way.
        direct = {}
        gathered = {}
        for name, (values, indices) in drawn.items():
            column = _presence_column(values, indices, semiring)
            if column is not None:
                direct[name] = column
            else:
                gathered[name] = (
                    support_column(values, semiring),
                    _np.asarray(indices),
                )
        chunk = max(1, _BATCH_CELLS // max(nodes, 1))
        counts: dict[tuple, int] = {}
        for start in range(0, samples, chunk):
            if start:
                check_deadline("Monte-Carlo batch valuation")
            size = min(chunk, samples - start)
            presence = {
                name: column[start : start + size]
                for name, column in direct.items()
            }
            for name, (support, indices) in gathered.items():
                presence[name] = support[indices[start : start + size]]
            memo: dict = {}
            for values, annotation, slots in rows:
                present = evaluate_batch(
                    annotation, presence, size, memo, semiring
                ).astype(bool, copy=False)
                if not slots:
                    hits = int(_np.count_nonzero(present))
                    if hits:
                        counts[values] = counts.get(values, 0) + hits
                    continue
                if not present.any():
                    continue
                vectors = [
                    evaluate_batch(values[i], presence, size, memo, semiring)[
                        present
                    ]
                    for i in slots
                ]
                if len(vectors) == 1:
                    # The common case; sorts several times faster than
                    # the row-wise unique below.
                    combos, hits = _np.unique(vectors[0], return_counts=True)
                    combos = combos[None, :]
                else:
                    combos, hits = _np.unique(
                        _np.vstack(vectors), axis=1, return_counts=True
                    )
                typed = [
                    batch_values(values[i], column)
                    for i, column in zip(slots, combos)
                ]
                key = list(values)
                for j, hit in enumerate(hits.tolist()):
                    for i, column in zip(slots, typed):
                        key[i] = column[j]
                    answer = tuple(key)
                    counts[answer] = counts.get(answer, 0) + hit
        return counts


def _presence_column(values, indices, semiring):
    """The presence column of a two-valued support under 𝔹, read off its
    index column without a gather — or ``None`` when it must be gathered.

    The drawer's two-valued index columns are 0/1 ``uint8`` (see
    :meth:`MonteCarloEngine._sample_index_columns`), so the column *is*
    the presence of support ``(False, True)`` viewed as bool, and its
    negation for ``(True, False)``, the order ``Distribution.bernoulli``
    gives.  ℕ, one-valued or 3+-valued supports and two values that
    coerce equal return ``None``.
    """
    if not (semiring.is_boolean and len(values) == 2):
        return None
    coerced = (semiring.coerce(values[0]), semiring.coerce(values[1]))
    if coerced == (False, True):
        return indices.view(bool)
    if coerced == (True, False):
        return _np.logical_not(indices.view(bool))
    return None
