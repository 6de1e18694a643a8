"""Parity suite: vectorized kernels ≡ generic dict path.

Every fast path in :mod:`repro.prob.kernels` must produce the *same*
distribution as the pure-Python loop it replaces — same support values
(including Python value types for integer supports) and probabilities
within 1e-12.  The suite drives randomized numeric distributions through
both implementations by toggling :func:`kernels.set_numpy_enabled`, and
also pins down the size-aware n-ary fold, the Boolean ⊕/⊙ closed form
and the dense SUM/COUNT fold against the pairwise folds they replace.
"""

from __future__ import annotations

import math
import operator
import random

import pytest

from repro.algebra.monoid import COUNT, MAX, MIN, PROD, SUM, CappedSumMonoid
from repro.algebra.semiring import BOOLEAN, NATURALS
from repro.prob import convolution, kernels
from repro.prob.distribution import Distribution

@pytest.fixture
def rng():
    return random.Random(20260728)


def random_distribution(rng, size, values="int", low=0, high=60):
    if values == "int":
        size = min(size, high - low + 1)  # can't have more distinct ints
    support = {}
    while len(support) < size:
        if values == "int":
            v = rng.randint(low, high)
        else:
            v = round(rng.uniform(low, high), 3)
        support[v] = rng.uniform(0.01, 1.0)
    total = sum(support.values())
    return Distribution({v: p / total for v, p in support.items()})


def random_boolean(rng, total=1.0):
    """A distribution over {⊤, ⊥} of mass ``total``; one in four is a
    point distribution."""
    if rng.random() < 0.25:
        return Distribution({rng.random() < 0.5: total})
    p = rng.uniform(0.1, 0.9)
    return Distribution({True: p * total, False: (1 - p) * total})


def bernoulli_terms(rng, values, count, low=0.2, high=0.9):
    """``count`` two-point distributions ``{0: 1 − p, v: p}``, ``v``
    drawn from ``values``."""
    out = []
    for _ in range(count):
        p = rng.uniform(low, high)
        out.append(Distribution({0: 1 - p, rng.choice(values): p}))
    return out


def with_dict_path(fn):
    previous = kernels.set_numpy_enabled(False)
    try:
        return fn()
    finally:
        kernels.set_numpy_enabled(previous)


def assert_distributions_identical(fast: Distribution, slow: Distribution):
    assert set(fast.support()) == set(slow.support())
    for value in slow.support():
        assert fast[value] == pytest.approx(slow[value], abs=1e-12)
    # Integer supports must come back as Python ints, not numpy scalars.
    for value in fast.support():
        assert type(value) in (int, float, bool), type(value)


class TestConvolveParity:
    @pytest.mark.parametrize("op", [operator.add, operator.mul, min, max])
    @pytest.mark.parametrize("values", ["int", "float"])
    def test_builtin_ops(self, rng, op, values):
        for _ in range(5):
            a = random_distribution(rng, rng.randint(8, 40), values)
            b = random_distribution(rng, rng.randint(8, 40), values)
            fast = a.convolve(b, op)
            slow = with_dict_path(lambda: a.convolve(b, op))
            assert_distributions_identical(fast, slow)

    @pytest.mark.parametrize("monoid", [SUM, COUNT, MIN, MAX, PROD])
    def test_monoid_add(self, rng, monoid):
        for _ in range(5):
            a = random_distribution(rng, rng.randint(8, 30), high=20)
            b = random_distribution(rng, rng.randint(8, 30), high=20)
            fast = convolution.monoid_add(a, b, monoid)
            slow = with_dict_path(lambda: convolution.monoid_add(a, b, monoid))
            assert_distributions_identical(fast, slow)

    def test_capped_sum(self, rng):
        capped = CappedSumMonoid(37)
        for _ in range(5):
            a = random_distribution(rng, 20, high=30)
            b = random_distribution(rng, 20, high=30)
            fast = convolution.monoid_add(a, b, capped)
            slow = with_dict_path(lambda: convolution.monoid_add(a, b, capped))
            assert_distributions_identical(fast, slow)
            assert max(fast.support()) <= 37

    def test_min_with_infinity_support(self, rng):
        # MIN aggregations carry the monoid zero +∞; min/max kernels must
        # keep it intact and still return ints for the finite values.
        a = Distribution({math.inf: 0.3, **{i: 0.7 / 12 for i in range(12)}})
        b = random_distribution(rng, 15)
        fast = convolution.monoid_add(a, b, MIN)
        slow = with_dict_path(lambda: convolution.monoid_add(a, b, MIN))
        assert_distributions_identical(fast, slow)

    def test_naturals_semiring(self, rng):
        a = random_distribution(rng, 12, high=15)
        b = random_distribution(rng, 12, high=15)
        for fn in (convolution.semiring_add, convolution.semiring_mul):
            fast = fn(a, b, NATURALS)
            slow = with_dict_path(lambda: fn(a, b, NATURALS))
            assert_distributions_identical(fast, slow)

    def test_unrecognized_op_uses_dict_path(self, rng):
        a = random_distribution(rng, 10)
        b = random_distribution(rng, 10)
        fast = a.convolve(b, lambda x, y: x - y)
        slow = with_dict_path(lambda: a.convolve(b, lambda x, y: x - y))
        assert fast.almost_equals(slow, tol=1e-12)

    def test_symbolic_support_uses_dict_path(self):
        a = Distribution({"a": 0.5, "b": 0.5})
        b = Distribution({"x": 0.25, "y": 0.75})
        result = a.convolve(b, lambda x, y: x + y)
        assert result["ax"] == pytest.approx(0.125)

    def test_huge_ints_fall_back_exactly(self):
        big = 2**60
        a = Distribution({big: 0.5, big + 1: 0.5})
        b = Distribution({1: 0.5, 2: 0.5})
        result = convolution.monoid_add(a, b, SUM)
        assert big + 1 in result.support() and big + 3 in result.support()


class TestMixtureExpectationMapParity:
    def test_mixture(self, rng):
        for _ in range(5):
            weighted = [
                (rng.uniform(0.05, 0.5), random_distribution(rng, rng.randint(10, 40)))
                for _ in range(4)
            ]
            total = sum(w for w, _ in weighted)
            weighted = [(w / total, d) for w, d in weighted]
            fast = Distribution.mixture(weighted)
            slow = with_dict_path(lambda: Distribution.mixture(weighted))
            assert_distributions_identical(fast, slow)

    def test_expectation(self, rng):
        d = random_distribution(rng, 120)
        fast = d.expectation()
        slow = with_dict_path(lambda: d.expectation())
        assert fast == pytest.approx(slow, abs=1e-9)

    def test_map(self, rng):
        d = random_distribution(rng, 150)
        fast = d.map(lambda v: v % 7)
        slow = with_dict_path(lambda: d.map(lambda v: v % 7))
        assert_distributions_identical(fast, slow)

    def test_comparison(self, rng):
        for op in ("=", "!=", "<=", ">=", "<", ">"):
            a = random_distribution(rng, 20)
            b = random_distribution(rng, 20)
            compare_op = __import__(
                "repro.algebra.conditions", fromlist=["COMPARISON_OPS"]
            ).COMPARISON_OPS[op]
            fast = convolution.comparison(a, b, compare_op, BOOLEAN)
            slow = with_dict_path(
                lambda: convolution.comparison(a, b, compare_op, BOOLEAN)
            )
            assert fast.almost_equals(slow, tol=1e-12)


class TestSizeAwareFold:
    def test_balanced_fold_equals_sequential(self, rng):
        for monoid in (SUM, MIN, MAX, CappedSumMonoid(50)):
            dists = [
                random_distribution(rng, rng.randint(2, 25), high=25)
                for _ in range(9)
            ]
            balanced = convolution.monoid_add_many(dists, monoid)
            sequential = dists[0]
            for other in dists[1:]:
                sequential = convolution.monoid_add(sequential, other, monoid)
            # Reordering a 9-way convolution reassociates float sums, so
            # probabilities agree to rounding (well inside the library's
            # 1e-9 TOLERANCE), while the supports must match exactly.
            assert balanced.almost_equals(sequential, tol=1e-9)
            assert set(balanced.support()) == set(sequential.support())

    def test_fold_combines_smallest_first(self):
        # Three singletons and one large distribution: the heap must pick
        # the two singletons first; combining left-to-right instead would
        # convolve the large support twice.  Verify via call sequence.
        sizes = []

        class Probe:
            def __init__(self, n):
                self.n = n

            def __len__(self):
                return self.n

        def pairwise(a, b):
            sizes.append((len(a), len(b)))
            return Probe(len(a) + len(b))

        kernels.convolve_many([Probe(100), Probe(1), Probe(1), Probe(10)], pairwise)
        assert sizes[0] == (1, 1)
        assert sizes[1] == (2, 10)
        assert sizes[2] == (12, 100)

    def test_single_operand(self):
        d = Distribution({1: 1.0})
        assert convolution.monoid_add_many([d], SUM) is d

    @pytest.mark.parametrize("semiring", [NATURALS, BOOLEAN], ids=["N", "B"])
    def test_semiring_folds(self, rng, semiring):
        if semiring is BOOLEAN:
            dists = [random_boolean(rng) for _ in range(5)]
        else:
            dists = [
                random_distribution(rng, rng.randint(2, 12), high=6)
                for _ in range(5)
            ]
        balanced = convolution.semiring_add_many(dists, semiring)
        sequential = dists[0]
        for other in dists[1:]:
            sequential = convolution.semiring_add(sequential, other, semiring)
        assert balanced.almost_equals(sequential, tol=1e-12)


class TestBooleanClosedForm:
    """Eqs. (4)/(5) over B are a closed form, with the kernels on or off:
    the same masses as a left-to-right pairwise fold."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["kernels", "verbatim"])
    @pytest.mark.parametrize(
        "many, pairwise",
        [
            (convolution.semiring_add_many, convolution.semiring_add),
            (convolution.semiring_mul_many, convolution.semiring_mul),
        ],
        ids=["add", "mul"],
    )
    def test_folds_match_left_to_right(self, rng, enabled, many, pairwise):
        previous = kernels.set_numpy_enabled(enabled)
        try:
            for _ in range(200):
                dists = [
                    random_boolean(rng, rng.choice([1.0, 1.0, 0.7, 0.35]))
                    for _ in range(rng.randint(1, 5))
                ]
                folded = many(dists, BOOLEAN)
                expected = dists[0]
                for other in dists[1:]:
                    expected = pairwise(expected, other, BOOLEAN)
                for value in (True, False):
                    assert folded[value] == pytest.approx(
                        expected[value], abs=1e-12
                    )
                assert set(folded.support()) <= {True, False}
        finally:
            kernels.set_numpy_enabled(previous)

    def test_tiny_disjuncts_keep_their_mass(self):
        # Each pairwise step drops a ⊤ mass ≤ TOLERANCE, so the pairwise
        # fold loses every one of these; the closed form drops only what
        # is left at the end, and 1 − (1 − p)^1000 ≈ 1e-7 is kept.
        p = 1e-10
        dists = [
            Distribution._from_clean({True: p, False: 1.0 - p})
            for _ in range(1000)
        ]
        pairwise = kernels.convolve_many(
            dists, lambda a, b: convolution.semiring_add(a, b, BOOLEAN)
        )
        assert pairwise[True] == 0.0
        folded = convolution.semiring_add_many(dists, BOOLEAN)
        expected = -math.expm1(1000 * math.log1p(-p))
        assert folded[True] == pytest.approx(expected, abs=1e-12)
        assert folded[True] + folded[False] == pytest.approx(1.0, abs=1e-12)


class TestDenseSumFold:
    """A plain SUM/COUNT node over integer supports folds as offset
    arrays; its support is the pairwise fold's exactly.  The fold is a
    kernel, so these tests switch the kernels on (the verbatim leg runs
    the whole suite with them off)."""

    @pytest.fixture(autouse=True)
    def kernels_on(self):
        previous = kernels.set_numpy_enabled(True)
        yield
        kernels.set_numpy_enabled(previous)

    @staticmethod
    def shapes(rng):
        return {
            # 100 COUNT terms: the tails fall below TOLERANCE mid-fold.
            "count": bernoulli_terms(rng, [1], 100),
            # Multiples of 3 leave holes; {0, 17} is a wide hole.
            "holes": bernoulli_terms(rng, [3], 30)
            + [Distribution({0: 0.4, 17: 0.6})],
            # Masses just above and below TOLERANCE once multiplied.
            "near_tolerance": bernoulli_terms(rng, [1, 2], 30)
            + [
                Distribution({0: 0.5, 1: 0.5 - 3e-9, 2: 3e-9}),
                Distribution({0: 1 - 2.5e-9, 5: 2.5e-9}),
            ],
            "negative": [
                random_distribution(rng, rng.randint(2, 6), low=-5, high=5)
                for _ in range(25)
            ],
            "sub_normalized": bernoulli_terms(rng, [1, 2], 30)
            + [Distribution({0: 0.3, 1: 0.2})],
            # Past float64's exact integers and int64: offsets stay ints.
            "huge": [
                Distribution({2**62: 1 - p, 2**62 + 3: p})
                for p in (rng.uniform(0.2, 0.9) for _ in range(40))
            ],
        }

    @pytest.mark.parametrize(
        "shape",
        ["count", "holes", "near_tolerance", "negative", "sub_normalized", "huge"],
    )
    @pytest.mark.parametrize("monoid", [SUM, COUNT], ids=["SUM", "COUNT"])
    def test_dense_fold_equals_pairwise(self, rng, monkeypatch, shape, monoid):
        dists = self.shapes(rng)[shape]
        steps = []
        dense_add = kernels._dense_add
        monkeypatch.setattr(
            kernels, "_dense_add", lambda *args: steps.append(1) or dense_add(*args)
        )
        dense = convolution.monoid_add_many(dists, monoid)
        assert len(steps) == len(dists) - 1
        pairwise = kernels.convolve_many(
            dists, lambda a, b: convolution.monoid_add(a, b, monoid)
        )
        verbatim = with_dict_path(lambda: convolution.monoid_add_many(dists, monoid))
        for reference in (pairwise, verbatim):
            assert list(dense) == sorted(reference.support())
            assert_distributions_identical(dense, reference)

    def test_an_emptied_fold_raises_like_the_pairwise_fold(self):
        # Every product of two operands is 1e-10 ≤ TOLERANCE, so the
        # first step leaves nothing, on either path.
        from repro.errors import DistributionError

        dists = [Distribution({0: 1e-5, 1: 1e-5}) for _ in range(40)]
        with pytest.raises(DistributionError, match="empty support"):
            convolution.monoid_add_many(dists, SUM)
        with pytest.raises(DistributionError, match="empty support"):
            with_dict_path(lambda: convolution.monoid_add_many(dists, SUM))

    def test_naturals_sum_uses_the_dense_fold(self, rng, monkeypatch):
        dists = [Distribution({0: 0.3, 1: 0.5, 2: 0.2}) for _ in range(30)]
        steps = []
        dense_add = kernels._dense_add
        monkeypatch.setattr(
            kernels, "_dense_add", lambda *args: steps.append(1) or dense_add(*args)
        )
        dense = convolution.semiring_add_many(dists, NATURALS)
        assert steps
        verbatim = with_dict_path(
            lambda: convolution.semiring_add_many(dists, NATURALS)
        )
        assert_distributions_identical(dense, verbatim)

    @pytest.mark.parametrize(
        "case", ["kernels_off", "capped", "sparse", "floats", "small"]
    )
    def test_the_pairwise_fold_is_kept(self, rng, monkeypatch, case):
        monoid = SUM
        dists = bernoulli_terms(rng, [1, 2], 40)
        if case == "capped":
            monoid = CappedSumMonoid(12)
        elif case == "sparse":  # prices: spans far wider than supports
            dists = bernoulli_terms(rng, list(range(100, 1000, 7)), 40)
        elif case == "floats":
            dists = bernoulli_terms(rng, [1.5, 2.0], 40)
        elif case == "small":
            dists = dists[:3]
        monkeypatch.setattr(
            kernels, "_dense_add", lambda *args: pytest.fail("dense fold taken")
        )
        if case == "kernels_off":
            with_dict_path(lambda: convolution.monoid_add_many(dists, monoid))
        else:
            convolution.monoid_add_many(dists, monoid)


class TestPathParityEdgeCases:
    """Divergences between the numpy and dict paths found by review:
    both configurations must behave identically on edge inputs too."""

    def test_over_unit_mixture_raises_on_both_paths(self, rng):
        from repro.errors import DistributionError

        big1 = random_distribution(rng, 100, high=150)
        big2 = random_distribution(rng, 100, high=150)
        for enabled in (True, False):
            previous = kernels.set_numpy_enabled(enabled)
            try:
                with pytest.raises(DistributionError):
                    Distribution.mixture([(0.8, big1), (0.8, big2)])
            finally:
                kernels.set_numpy_enabled(previous)

    def test_scalar_action_scales_false_branch_by_alpha_total(self):
        from repro.algebra.semiring import BOOLEAN as B

        phi = Distribution({True: 0.3, False: 0.7})
        alpha = Distribution({5: 0.5})  # sub-normalized semimodule value
        fast = convolution.scalar_action(phi, alpha, SUM, B)
        slow = phi.convolve(alpha, lambda s, m: SUM.act(s, m, B))
        assert fast.almost_equals(slow, tol=1e-12)

    def test_map_evaluates_fn_exactly_once_per_value(self, rng):
        d = random_distribution(rng, 100, high=300)
        calls = []

        def fn(value):
            calls.append(value)
            return str(value)  # non-numeric: forces the dict fallback

        d.map(fn)
        assert len(calls) == len(d)

    def test_infinite_operands_of_add_use_dict_path(self, rng):
        # inf + -inf yields NaN; np.unique would merge NaN results that
        # the dict path keeps as distinct keys, so the kernel must refuse
        # combining ops over non-finite supports (select ops still run).
        a = Distribution(
            {**{i: 0.9 / 40 for i in range(40)}, math.inf: 0.05, -math.inf: 0.05}
        )
        b = random_distribution(rng, 4, high=6)
        fast = a.convolve(b, operator.add)
        slow = with_dict_path(lambda: a.convolve(b, operator.add))
        assert len(fast) == len(slow)


class TestKernelToggles:
    def test_set_numpy_enabled_roundtrip(self):
        previous = kernels.set_numpy_enabled(False)
        assert not kernels.numpy_enabled()
        kernels.set_numpy_enabled(previous)
        assert kernels.numpy_enabled() == previous

    def test_distribution_results_identical_through_dtree(self, rng):
        # End-to-end: one Experiment-A style condition, compiled twice,
        # with and without the kernels.
        from repro.algebra.semiring import BOOLEAN as B
        from repro.core.compile import Compiler
        from repro.workloads.random_expr import ExprParams, generate_condition

        params = ExprParams(
            left_terms=10, variables=6, clauses=2, literals=2,
            max_value=12, constant=30, theta="<=", agg_left="SUM",
        )
        expr, registry = generate_condition(params, seed=11)
        fast = Compiler(registry, B).distribution(expr)
        slow = with_dict_path(
            lambda: Compiler(registry, B).distribution(expr)
        )
        assert fast.almost_equals(slow, tol=1e-12)
