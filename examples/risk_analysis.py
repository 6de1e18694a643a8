"""Supply-risk analysis: exact tails, approximation bounds, Monte Carlo.

A logistics scenario: shipments may be delayed (each with its own
probability), and each delayed shipment incurs a penalty.  We study the
total penalty — the distribution of ``Σ_SUM Φᵢ ⊗ penaltyᵢ`` — and the
probability that a service-level condition holds, three ways:

1. exact, by knowledge compilation;
2. with guaranteed lower/upper *bounds* from budgeted partial compilation
   (the paper's Section-1 remark that d-trees also support approximation);
3. by Monte-Carlo sampling, for comparison.

Run with::

    python examples/risk_analysis.py
"""

import random

from repro import (
    BOOLEAN,
    SUM,
    MConst,
    Var,
    aggsum,
    approximate_probability,
    compare,
    connect,
    prune,
    tensor,
)

SERVICE_LEVEL = 120  # total penalty budget


def build_penalty_expression(rng, registry, shipments=14):
    """Σ Φᵢ ⊗ penaltyᵢ with entangled delay causes.

    Shipments share upstream causes (port congestion, weather cells), so
    their delay annotations are products over a small pool of cause
    variables — the same structure as the paper's Eq.-11 workloads.
    """
    causes = [f"cause{i}" for i in range(8)]
    for cause in causes:
        registry.bernoulli(cause, rng.uniform(0.1, 0.5))
    terms = []
    for i in range(shipments):
        involved = rng.sample(causes, rng.randint(1, 2))
        phi = Var(involved[0])
        for name in involved[1:]:
            phi = phi * Var(name)
        penalty = rng.choice([5, 10, 20, 40])
        terms.append(tensor(phi, MConst(SUM, penalty)))
    return aggsum(SUM, terms)


def main():
    # The session facade also fronts raw expression workloads: it owns the
    # registry and routes distribution queries through its per-session
    # compilation cache.
    rng = random.Random(2026)
    session = connect()
    registry = session.registry
    total_penalty = build_penalty_expression(rng, registry)

    condition = compare(total_penalty, "<=", SERVICE_LEVEL)

    # 1. Exact distribution of the total penalty.
    dist = session.distribution(total_penalty)
    print(f"Total-penalty distribution ({len(dist)} outcomes):")
    print(f"  expectation : {dist.expectation():8.2f}")
    print(f"  std. dev    : {dist.variance() ** 0.5:8.2f}")
    print(f"  95% quantile: {dist.quantile(0.95):8.0f}")

    exact = session.probability(condition)
    print(f"\nP(total penalty ≤ {SERVICE_LEVEL}) exact: {exact:.6f}")

    # 2. Guaranteed bounds at increasing compilation budgets.  Budgeted
    #    approximation works on the Boolean condition's semiring part; we
    #    demonstrate it on the canonical "any delay at all" event.
    any_delay = None
    for node in total_penalty.children:
        phi = node.phi
        any_delay = phi if any_delay is None else any_delay + phi
    print("\nBounds for P(at least one shipment delayed):")
    exact_delay = session.probability(any_delay)
    for budget in (0, 1, 2, 4, 16):
        bounds, _ = session.cache.bounds(any_delay, budget, {})
        marker = "=" if bounds.width < 1e-9 else "∈"
        print(f"  budget {budget:>3}: P {marker} [{bounds.low:.6g}, {bounds.high:.6g}]")
    refined = approximate_probability(any_delay, registry, epsilon=1e-6)
    print(
        f"  refined     : [{refined.low:.6g}, {refined.high:.6g}]"
        f"  (exact {exact_delay:.6f})"
    )

    # 3. Monte-Carlo comparison on the service-level condition.
    from repro import Valuation

    hits = 0
    samples = 4000
    sampler = random.Random(7)
    names = registry.names()
    for _ in range(samples):
        assignment = {
            name: sampler.random() < registry[name][True] for name in names
        }
        if Valuation(assignment, BOOLEAN)(condition):
            hits += 1
    print(
        f"\nMonte Carlo ({samples} samples): "
        f"{hits / samples:.4f}   vs exact {exact:.4f}"
    )

    # Show what pruning does to the condition before compilation.
    pruned = prune(condition, BOOLEAN)
    print(
        f"\nCondition size before/after pruning: "
        f"{condition.size()} → {pruned.size()} AST nodes"
    )


if __name__ == "__main__":
    main()
