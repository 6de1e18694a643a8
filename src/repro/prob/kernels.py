"""Vectorized convolution kernels over numpy arrays.

:meth:`Distribution.convolve` is the hot path of the whole exact engine:
every ``⊕``/``⊙``/``⊕M`` d-tree node convolves the distributions of its
children, and for SUM/COUNT aggregations the supports grow to hundreds of
values.  When the supports are numeric and the combining operation is a
recognized arithmetic (``+``, ``*``, ``min``, ``max``, a saturating capped
sum, or a comparison), the O(|Φ|·|Ψ|) support-pair sum of Proposition 1
can be evaluated as an outer product over value/probability arrays and
re-binned with ``np.unique`` + ``np.bincount``.  A plain SUM/COUNT node
(and an ℕ ``⊕``) over integer supports goes further: :func:`sum_many`
folds all its children as offset mass arrays with ``np.convolve`` and
builds one dict at the end, instead of one per pairwise step.  The
Boolean semiring has no kernel here: its ``⊕``/``⊙`` folds are a closed
form in :mod:`repro.prob.convolution`, which needs none.

Every entry point returns ``None`` when it does not apply (non-numeric
supports, unrecognized operation, a support too small to be worth it) and
callers fall back to the generic dict-loop path — Proposition 1's
support-pair loop as the paper states it.  That path is also the
reference: :func:`set_numpy_enabled` is the test seam that switches every
kernel off in-process, which is how the parity suite asserts the two
paths agree to 1e-12 and how tests reach Algorithm 1 verbatim.  Nothing
outside the process (no environment variable, no install flavour) moves
the switch.

The kernels work on raw ``{value: probability}`` dicts rather than
:class:`~repro.prob.distribution.Distribution` objects so that this module
never imports :mod:`repro.prob.distribution` (which imports us for its
fast paths).

Exactness notes
---------------
* Values participate in float64 arithmetic.  Integer supports are kept
  exact by refusing the kernel when a combining operation could exceed
  2**52 in magnitude, and integer-valued results are converted back to
  Python ints whenever every finite input value was an int — so kernel
  results are *identical* (not just close) to the dict path's support.
* Probabilities are accumulated by ``np.bincount``; the summation order
  differs from the dict path, so probabilities agree only up to float
  rounding (well below the 1e-9 tolerance used everywhere else).
"""

from __future__ import annotations

import heapq
import math
import operator
from typing import Callable, Iterable, Sequence

import numpy as _np

from repro.algebra.monoid import (
    CappedSumMonoid,
    MaxMonoid,
    MinMonoid,
    Monoid,
    ProdMonoid,
    SumMonoid,
)
from repro.algebra.semiring import NaturalsSemiring, Semiring

__all__ = [
    "numpy_enabled",
    "set_numpy_enabled",
    "resolve_op",
    "monoid_op",
    "semiring_add_op",
    "semiring_mul_op",
    "convolve_dicts",
    "mixture_dicts",
    "comparison_mass",
    "expectation",
    "bin_images",
    "convolve_many",
    "sum_many",
    "MIN_CELLS",
    "DENSE_SPAN_RATIO",
]

#: Below this many support pairs the dict loop beats the numpy overhead.
MIN_CELLS = 64

#: The dense SUM fold (:func:`sum_many`) takes a node only when its
#: children's supports span at most this many integers per support value,
#: holes included; sparser supports (prices) keep the pairwise fold.  On
#: synthetic nodes whose supports step by r, the dense fold's time over
#: the pairwise fold's rises with r on every shape measured and reaches
#: 1.0–1.6 at r = 16 on three shapes of four (EXPERIMENTS.md, "One pass
#: per ⊕/⊙/⊕M node"); 4 stays well below that.
DENSE_SPAN_RATIO = 4

#: Magnitude guard keeping integer arithmetic exact in float64.
_EXACT_INT_BOUND = 2**52

_enabled = True


def numpy_enabled() -> bool:
    """True when the vectorized kernels are active."""
    return _enabled


def set_numpy_enabled(flag: bool) -> bool:
    """Toggle the kernels; returns the old setting.

    A test seam: the parity tests flip this to compare the two
    implementations inside one process.
    """
    global _enabled
    previous = _enabled
    _enabled = bool(flag)
    return previous


class OpSpec:
    """A recognized binary operation on numeric supports.

    ``array_fn`` evaluates the operation on broadcast numpy arrays;
    ``kind`` ∈ {"add", "mul", "select"} drives the exactness guards
    ("select" operations like min/max never create new values).
    """

    __slots__ = ("array_fn", "kind")

    def __init__(self, array_fn: Callable, kind: str):
        self.array_fn = array_fn
        self.kind = kind


_ADD = OpSpec(_np.add, "add")
_MUL = OpSpec(_np.multiply, "mul")
_MIN = OpSpec(_np.minimum, "select")
_MAX = OpSpec(_np.maximum, "select")

_CALLABLE_SPECS = {
    operator.add: _ADD,
    operator.mul: _MUL,
    min: _MIN,
    max: _MAX,
}


def _capped_add_spec(cap) -> OpSpec:
    return OpSpec(lambda a, b: _np.minimum(_np.add(a, b), cap), "add")


def monoid_op(monoid: Monoid) -> OpSpec | None:
    """The kernel spec of a monoid's addition, if recognized."""
    if not _enabled:
        return None
    if isinstance(monoid, CappedSumMonoid):
        return _capped_add_spec(monoid.cap)
    if isinstance(monoid, SumMonoid):  # covers COUNT
        return _ADD
    if isinstance(monoid, MinMonoid):
        return _MIN
    if isinstance(monoid, MaxMonoid):
        return _MAX
    if isinstance(monoid, ProdMonoid):
        return _MUL
    return None


def semiring_add_op(semiring: Semiring) -> OpSpec | None:
    """The kernel spec of a semiring's addition, if recognized.

    The Boolean semiring is intentionally unrecognized: its supports have
    at most two elements, and its n-ary folds have their own closed form
    (:mod:`repro.prob.convolution`), on with the kernels or without.
    """
    if _enabled and isinstance(semiring, NaturalsSemiring):
        return _ADD
    return None


def semiring_mul_op(semiring: Semiring) -> OpSpec | None:
    """The kernel spec of a semiring's multiplication, if recognized."""
    if _enabled and isinstance(semiring, NaturalsSemiring):
        return _MUL
    return None


def resolve_op(op: Callable) -> OpSpec | None:
    """Recognize a plain callable as a kernel operation.

    Handles ``operator.add``/``operator.mul``, the ``min``/``max``
    builtins, and bound ``add``/``mul`` methods of the standard monoids
    and semirings — the callables that reach
    :meth:`Distribution.convolve` from the Eq. (4)-(10) wrappers.
    """
    if not _enabled:
        return None
    spec = _CALLABLE_SPECS.get(op)
    if spec is not None:
        return spec
    owner = getattr(op, "__self__", None)
    if owner is None:
        return None
    name = getattr(op, "__name__", "")
    if isinstance(owner, Monoid) and name == "add":
        return monoid_op(owner)
    if isinstance(owner, Semiring):
        if name == "add":
            return semiring_add_op(owner)
        if name == "mul":
            return semiring_mul_op(owner)
    return None


# -- numeric support extraction ----------------------------------------------


def _numeric_support(probs: dict):
    """``(values, probabilities, finite_ints, max_abs, all_finite)`` or
    ``None``.

    Only exact ``int``/``float`` values qualify (``bool`` is excluded:
    Boolean supports belong to the dict path).  ``finite_ints`` is True
    when every finite value is a Python int, which is what allows the
    kernel to convert integer-valued results back to ints.
    """
    values = []
    weights = []
    finite_ints = True
    all_finite = True
    max_abs = 0.0
    for value, p in probs.items():
        kind = type(value)
        if kind is int:
            if not -_EXACT_INT_BOUND <= value <= _EXACT_INT_BOUND:
                return None  # float64 could not represent it exactly
        elif kind is float:
            if math.isfinite(value):
                finite_ints = False
            else:
                all_finite = False
        else:
            return None
        values.append(value)
        weights.append(p)
        abs_value = abs(value)
        if abs_value > max_abs and not math.isinf(abs_value):
            max_abs = abs_value
    return values, weights, finite_ints, max_abs, all_finite


def _exactness_ok(spec: OpSpec, a, b) -> bool:
    """Would float64 evaluation stay exact on these supports?"""
    if spec.kind == "select":
        return True
    # Combining operations over non-finite values (inf + -inf → nan) are
    # left to the dict loop: np.unique would merge NaN results that the
    # dict path keeps as distinct keys.
    if not (a[4] and b[4]):
        return False
    a_ints, b_ints = a[2], b[2]
    if not (a_ints and b_ints):
        # Float-valued supports: float64 is the dict path's own
        # arithmetic (Python floats are doubles), so nothing is lost.
        return True
    a_max, b_max = a[3], b[3]
    if spec.kind == "add":
        return a_max + b_max <= _EXACT_INT_BOUND
    return a_max * b_max <= _EXACT_INT_BOUND  # "mul"


def _to_python_values(array, finite_ints: bool) -> list:
    """Convert a result array back to the dict path's Python values."""
    raw = array.tolist()
    if not finite_ints:
        return raw
    return [int(v) if math.isfinite(v) else v for v in raw]


# -- kernels ------------------------------------------------------------------


def convolve_dicts(
    probs_a: dict, probs_b: dict, op: Callable, spec: OpSpec | None = None,
    tolerance: float = 0.0,
) -> dict | None:
    """Vectorized Proposition-1 convolution of two support dicts.

    Returns the accumulated ``{op(a, b): Σ p_a·p_b}`` dict with entries of
    mass ≤ ``tolerance`` dropped (mirroring ``Distribution.__init__``), or
    ``None`` when the kernel does not apply.
    """
    if spec is None:
        spec = resolve_op(op)
    if spec is None or not _enabled:
        return None
    if len(probs_a) * len(probs_b) < MIN_CELLS:
        return None
    a = _numeric_support(probs_a)
    if a is None:
        return None
    b = _numeric_support(probs_b)
    if b is None:
        return None
    if not _exactness_ok(spec, a, b):
        return None
    va = _np.asarray(a[0], dtype=float)
    vb = _np.asarray(b[0], dtype=float)
    pa = _np.asarray(a[1], dtype=float)
    pb = _np.asarray(b[1], dtype=float)
    combined = spec.array_fn(va[:, None], vb[None, :]).ravel()
    mass = (pa[:, None] * pb[None, :]).ravel()
    unique, inverse = _np.unique(combined, return_inverse=True)
    accumulated = _np.bincount(inverse.ravel(), weights=mass)
    finite_ints = a[2] and b[2]
    keep = accumulated > tolerance
    values = _to_python_values(unique[keep], finite_ints)
    return dict(zip(values, accumulated[keep].tolist()))


def mixture_dicts(
    weighted: list, tolerance: float = 0.0
) -> dict | None:
    """Vectorized convex mixture ``Σ wᵢ · Dᵢ`` of support dicts.

    ``weighted`` pairs float weights with ``{value: probability}`` dicts.
    Returns ``None`` when any support is non-numeric, the total size is
    too small to be worth it, or the kernels are switched off.
    """
    if not _enabled:
        return None
    if sum(len(probs) for _, probs in weighted) < MIN_CELLS:
        return None
    chunks_v = []
    chunks_p = []
    finite_ints = True
    for weight, probs in weighted:
        extracted = _numeric_support(probs)
        if extracted is None:
            return None
        values, masses, ints_ok, _, _ = extracted
        finite_ints = finite_ints and ints_ok
        chunks_v.append(_np.asarray(values, dtype=float))
        chunks_p.append(weight * _np.asarray(masses, dtype=float))
    if not chunks_v:
        return None
    all_values = _np.concatenate(chunks_v)
    all_mass = _np.concatenate(chunks_p)
    unique, inverse = _np.unique(all_values, return_inverse=True)
    accumulated = _np.bincount(inverse.ravel(), weights=all_mass)
    keep = accumulated > tolerance
    values = _to_python_values(unique[keep], finite_ints)
    return dict(zip(values, accumulated[keep].tolist()))


_COMPARE_FNS = {
    "=": "equal",
    "!=": "not_equal",
    "<=": "less_equal",
    ">=": "greater_equal",
    "<": "less",
    ">": "greater",
}


def comparison_mass(probs_l: dict, probs_r: dict, op_symbol: str) -> float | None:
    """``P[X θ Y]`` for independent numeric supports (Eqs. 8/9 core).

    Returns the total probability mass of support pairs satisfying the
    comparison, or ``None`` when the kernel does not apply.
    """
    if not _enabled:
        return None
    fn_name = _COMPARE_FNS.get(op_symbol)
    if fn_name is None:
        return None
    if len(probs_l) * len(probs_r) < MIN_CELLS:
        return None
    l = _numeric_support(probs_l)
    if l is None:
        return None
    r = _numeric_support(probs_r)
    if r is None:
        return None
    vl = _np.asarray(l[0], dtype=float)
    vr = _np.asarray(r[0], dtype=float)
    pl = _np.asarray(l[1], dtype=float)
    pr = _np.asarray(r[1], dtype=float)
    holds = getattr(_np, fn_name)(vl[:, None], vr[None, :])
    mass = pl[:, None] * pr[None, :]
    return float(mass[holds].sum())


def expectation(probs: dict) -> float | None:
    """Vectorized ``Σ v·p`` for numeric supports, or ``None``."""
    if not _enabled or len(probs) < MIN_CELLS:
        return None
    extracted = _numeric_support(probs)
    if extracted is None:
        return None
    values, masses, _, _, _ = extracted
    return float(
        _np.dot(_np.asarray(values, dtype=float), _np.asarray(masses, dtype=float))
    )


def bin_images(
    images: list, masses: list, tolerance: float = 0.0
) -> dict | None:
    """Vectorized re-binning of precomputed push-forward images.

    The caller evaluates its (arbitrary Python) mapping function exactly
    once per support value; numpy only accelerates the accumulation of
    collisions, which is the expensive part for large supports.  Returns
    ``None`` when the images are not all numeric or the support is small.
    """
    if not _enabled or len(images) < MIN_CELLS:
        return None
    for image in images:
        kind = type(image)
        if kind is not int and kind is not float:
            return None
        if kind is int and not -_EXACT_INT_BOUND <= image <= _EXACT_INT_BOUND:
            return None
    finite_ints = all(
        type(v) is int or not math.isfinite(v) for v in images
    )
    values = _np.asarray(images, dtype=float)
    mass = _np.asarray(masses, dtype=float)
    unique, inverse = _np.unique(values, return_inverse=True)
    accumulated = _np.bincount(inverse.ravel(), weights=mass)
    keep = accumulated > tolerance
    kept_values = _to_python_values(unique[keep], finite_ints)
    return dict(zip(kept_values, accumulated[keep].tolist()))


# -- n-ary reduction ----------------------------------------------------------


def convolve_many(distributions: Iterable, pairwise: Callable):
    """Size-aware n-ary convolution (the convolution-tree optimization).

    Always combines the two smallest operands first — the Huffman-style
    reduction order that keeps intermediate supports small for SUM/COUNT
    aggregates, where a left-to-right fold re-convolves the full running
    support at every step.  ``pairwise`` is any associative, commutative
    combiner of distribution-like objects supporting ``len``.

    Works on any objects with ``len`` (no numpy involved); the counter
    breaks ties deterministically by insertion order.
    """
    heap = [(len(dist), index, dist) for index, dist in enumerate(distributions)]
    if not heap:
        raise ValueError("convolve_many needs at least one distribution")
    heapq.heapify(heap)
    counter = len(heap)
    while len(heap) > 1:
        _, _, a = heapq.heappop(heap)
        _, _, b = heapq.heappop(heap)
        combined = pairwise(a, b)
        heapq.heappush(heap, (len(combined), counter, combined))
        counter += 1
    return heap[0][2]


class _Dense:
    """An integer-support distribution: ``masses[i]`` is the mass of
    ``offset + i``; ``size`` counts the non-zero entries (its ``len``, the
    fold's heap key, as a :class:`Distribution`'s length is)."""

    __slots__ = ("offset", "masses", "size")

    def __init__(self, offset: int, masses, size: int):
        self.offset = offset
        self.masses = masses
        self.size = size

    def __len__(self) -> int:
        return self.size


def _dense_add(a: _Dense, b: _Dense, tolerance: float) -> _Dense:
    """One step of the dense fold: convolve, then zero and trim the
    entries of mass ≤ ``tolerance``, as ``Distribution`` drops them.

    When no entry drops, every entry is positive and the convolution is
    kept as it is: there is nothing to zero, trim or count.  That holds
    whatever the operands look like; the hole test in front of the
    ``any()`` only spares a scan that would almost surely find a drop,
    since operands with empty cells convolve to empty cells
    (EXPERIMENTS.md, "Bitset truth tables …").
    """
    if not (a.size and b.size):
        return a if not a.size else b  # an empty operand stays empty
    masses = _np.convolve(a.masses, b.masses)
    dropped = masses <= tolerance
    if (
        a.size == len(a.masses)
        and b.size == len(b.masses)
        and not dropped.any()
    ):
        return _Dense(a.offset + b.offset, masses, len(masses))
    masses[dropped] = 0.0
    kept = _np.flatnonzero(masses)
    if not len(kept):
        return _Dense(0, masses[:0], 0)
    low = int(kept[0])
    return _Dense(
        a.offset + b.offset + low, masses[low : int(kept[-1]) + 1], len(kept)
    )


def sum_many(
    distributions: Sequence, spec: OpSpec | None, tolerance: float = 0.0
) -> dict | None:
    """n-ary integer ``+`` (Eq. 6 for SUM/COUNT, Eq. 4 over ℕ) as one
    dense fold.

    ``distributions`` are ``{value: probability}`` mappings (a
    ``Distribution`` is one); nothing but their lengths is read before
    ``spec`` and the sizes pass.  Each becomes an offset mass array; :func:`convolve_many`
    combines them in its heap order (smallest non-zero count first), one
    ``np.convolve`` per step, and the result becomes a dict once.  Every
    step drops what the pairwise fold drops, so the support is that
    fold's exactly; values stay Python ints (offset + index).  Returns
    ``None`` — the caller folds pairwise — unless ``spec`` is plain
    ``+`` (so never with the kernels off, nor for a capped sum), there
    are two or more operands, every value is an ``int``, and the spans
    cover at least :data:`MIN_CELLS` cells but no more than
    :data:`DENSE_SPAN_RATIO` per support value.
    """
    if spec is not _ADD or len(distributions) < 2:
        return None
    size = sum(map(len, distributions))
    if DENSE_SPAN_RATIO * size < MIN_CELLS:
        return None  # too few cells to pay for the arrays
    cells = 0
    for dist in distributions:
        for value in dist:
            if type(value) is not int:
                return None
        cells += max(dist) - min(dist) + 1
    if not MIN_CELLS <= cells <= DENSE_SPAN_RATIO * size:
        return None
    operands = []
    for dist in distributions:
        low = min(dist)
        masses = [0.0] * (max(dist) - low + 1)
        for value, p in dist.items():
            masses[value - low] = p
        operands.append(_Dense(low, _np.array(masses), len(dist)))
    result = convolve_many(operands, lambda a, b: _dense_add(a, b, tolerance))
    kept = _np.flatnonzero(result.masses)
    return dict(
        zip(
            [result.offset + index for index in kept.tolist()],
            result.masses[kept].tolist(),
        )
    )
