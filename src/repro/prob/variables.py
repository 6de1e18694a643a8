"""Registries of independent random variables and their distributions.

A :class:`VariableRegistry` maps variable names to the discrete probability
distributions of the corresponding independent random variables.  It is the
``X`` of Section 2.1 together with the family ``(P_x)_{x∈X}``, and induces
the probability space implemented in :mod:`repro.prob.space`.

Variable values are *semiring* values: truth values for the Boolean
semiring (set semantics) or non-negative integers for the naturals semiring
(bag semantics).  Helpers are provided for the two common cases and for the
Boolean reduction of Proposition 2 (``P_x[⊥] = P_x[0]``).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Iterator, Mapping

from repro.errors import DistributionError
from repro.prob.distribution import Distribution

__all__ = ["VariableRegistry"]


def _pack(distribution: Distribution) -> Distribution | float:
    """``p`` when ``distribution`` is exactly what
    ``Distribution.bernoulli(p)`` builds — items ``(True, p), (False,
    1.0 - p)`` in that order, both Python floats, the second equal bit
    for bit — else ``distribution`` itself."""
    probs = distribution._probs
    if len(probs) == 2:
        (one, p), (zero, q) = probs.items()
        if (
            one is True
            and zero is False
            and type(p) is float
            and type(q) is float
            and q == 1.0 - p
        ):
            return p
    return distribution


def _unpack(stored: Distribution | float) -> Distribution:
    """The :class:`Distribution` that :func:`_pack` stored as ``stored``."""
    if type(stored) is float:
        return Distribution._from_clean({True: stored, False: 1.0 - stored})
    return stored


class VariableRegistry:
    """Maps variable names to distributions of independent random variables.

    A Boolean marginal — the one number ``P_x[⊤]`` a tuple-independent
    row carries — is stored as that float, not as a
    :class:`Distribution`: a loaded database holds one per row, and a
    float is one object the garbage collector does not track.  Every
    read (``registry[name]``, :meth:`items`, :meth:`restrict`,
    :meth:`boolean_reduction`) rebuilds the distribution it was given,
    with the same items in the same order and the same float bits;
    Monte-Carlo draws follow that order.  Any other distribution — a
    point mass, an ℕ support, the reverse order, a ``False`` mass that is
    not ``1.0 - p`` — is stored as given.

    >>> reg = VariableRegistry()
    >>> _ = reg.bernoulli("x", 0.3)
    >>> reg["x"][True]
    0.3
    """

    def __init__(self, distributions: Mapping[str, Distribution] | None = None):
        #: name → its distribution, or ``P[⊤]`` for a packed Boolean one
        #: (:func:`_pack`); read through :func:`_unpack`.
        self._distributions: dict[str, Distribution | float] = {}
        #: name → the epoch its last :meth:`reassign` bumped to, newest
        #: last: one entry per variable ever reassigned, so a reader finds
        #: what changed since it last looked at the newest end
        #: (:meth:`reassigned_since`).
        self._reassigned: OrderedDict[str, int] = OrderedDict()
        #: Monotonic epoch: bumped *after* a name is added or an existing
        #: distribution is replaced via :meth:`reassign`, so a reader that
        #: sees an epoch sees every change it stands for.  Caches derived
        #: from the registry (d-tree distributions in particular) key their
        #: validity on this counter together with the table epochs.
        self._version = 0
        if distributions:
            for name, dist in distributions.items():
                self.declare(name, dist)

    @property
    def epoch(self) -> int:
        return self._version

    # -- declaration ---------------------------------------------------------

    def declare(self, name: str, distribution: Distribution) -> Distribution:
        """Register ``name`` with an explicit distribution.

        Re-declaring a name with a *different* distribution is an error:
        the variables of a probability space are fixed and independent.
        Re-declaring it with an equal one (up to ``almost_equals``) is a
        no-op that returns the distribution already declared: replacing
        it would move a marginal without moving the epoch, behind every
        cache over this registry.  Mutation paths that legitimately
        change a probability (e.g. ``UPDATE ... p=``) go through
        :meth:`reassign` instead, which records the name for the caches
        that read this registry.
        """
        existing = self._distributions.get(name)
        if existing is not None:
            existing = _unpack(existing)
            if not existing.almost_equals(distribution):
                raise DistributionError(
                    f"variable {name!r} is already declared with a different "
                    f"distribution"
                )
            return existing
        # Store, then bump (the order of every PVCTable mutator): whoever
        # reads the new epoch also reads the new distribution.
        self._distributions[name] = _pack(distribution)
        self._version += 1
        return distribution

    def reassign(self, name: str, distribution: Distribution) -> Distribution:
        """Replace the distribution of an already-declared variable.

        The escape hatch :meth:`declare` deliberately does not offer: the
        mutation API (:meth:`repro.db.pvc_table.PVCDatabase.update` with
        ``p=``) uses it to change an event's probability in place.  Every
        cached object derived from the old distribution becomes invalid,
        and nobody has to be told: the name is recorded here, and a
        :class:`~repro.cache.CompilationCache` over this registry drops
        what depended on it before its next read
        (:meth:`reassigned_since`) — whoever called, however directly.
        """
        if name not in self._distributions:
            raise DistributionError(
                f"cannot reassign undeclared variable {name!r}"
            )
        # Store, record, bump: whoever reads the new epoch reads the new
        # distribution and finds the name recorded.  The entry takes its
        # new epoch before it moves to the newest end, so it is never
        # absent; until the bump that epoch is ahead of every reader's.
        self._distributions[name] = _pack(distribution)
        at = self._version + 1
        self._reassigned[name] = at
        self._reassigned.move_to_end(name)
        self._version = at
        return distribution

    def reassigned_since(self, epoch: int) -> list[str]:
        """The names :meth:`reassign` touched after ``epoch``, in time
        proportional to their number.

        A reader reads :attr:`epoch` *first* and asks again from that
        value next time: a reassignment racing the scan is recorded
        before the epoch moves, so it is returned now or then.
        """
        while True:
            names = []
            try:
                for name, at in reversed(self._reassigned.items()):
                    if at <= epoch:
                        break
                    names.append(name)
            except RuntimeError:  # a concurrent reassign moved an entry
                continue
            return names

    def bernoulli(self, name: str, p: float) -> Distribution:
        """Declare a Boolean variable with ``P[⊤] = p`` (set semantics)."""
        return self.declare(name, Distribution.bernoulli(p))

    def integer(self, name: str, probs: Mapping[int, float]) -> Distribution:
        """Declare an N-valued variable (bag semantics), e.g. multiplicities."""
        for value in probs:
            if not isinstance(value, int) or value < 0:
                raise DistributionError(
                    f"bag-semantics variable {name!r} must take values in N, "
                    f"got {value!r}"
                )
        return self.declare(name, Distribution(probs))

    def constant(self, name: str, value) -> Distribution:
        """Declare a deterministic variable (Table 1's deterministic rows)."""
        return self.declare(name, Distribution.point(value))

    # -- lookup ---------------------------------------------------------------

    def __getitem__(self, name: str) -> Distribution:
        try:
            stored = self._distributions[name]
        except KeyError:
            raise DistributionError(
                f"variable {name!r} has no declared distribution"
            ) from None
        return _unpack(stored)

    def __contains__(self, name: str) -> bool:
        return name in self._distributions

    def __iter__(self) -> Iterator[str]:
        return iter(self._distributions)

    def __len__(self) -> int:
        return len(self._distributions)

    def names(self) -> list[str]:
        return sorted(self._distributions)

    def items(self) -> Iterator[tuple[str, Distribution]]:
        for name, stored in self._distributions.items():
            yield name, _unpack(stored)

    def restrict(self, names: Iterable[str]) -> "VariableRegistry":
        """The sub-registry containing only ``names``."""
        return VariableRegistry({name: self[name] for name in names})

    def boolean_reduction(self) -> "VariableRegistry":
        """The B-valued reduction of Proposition 2.

        Every variable is reduced to a Boolean one with
        ``P[⊥] = P_x[0]`` and ``P[⊤] = 1 - P[⊥]``.  For MIN/MAX
        aggregation this reduction leaves semimodule distributions
        unchanged while shrinking variable supports to two values.
        """
        reduced = VariableRegistry()
        for name, dist in self.items():
            p_zero = dist.probability_of(lambda v: v == 0 or v is False)
            reduced.bernoulli(name, 1.0 - p_zero)
        return reduced

    def __repr__(self):
        return f"VariableRegistry({len(self)} variables)"
