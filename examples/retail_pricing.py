"""The paper's running example (Figure 1): suppliers, products, prices.

Reconstructs the pvc-database of Figure 1 — uncertain suppliers S,
uncertain price listings PS, and two uncertain product tables P1/P2 —
through the session facade, then evaluates

* Q1 = π_{shop, price}[S ⋈ PS ⋈ (P1 ∪ P2)]  (Figure 1d), and
* Q2 = π_shop σ_{P≤50} $_{shop; P←MAX(price)}[Q1]  (Figure 1e),

printing the symbolic pvc-tables and the exact answer probabilities, and
finally the decomposition tree of the ⟨Gap⟩ annotation (Figure 6).

Run with::

    python examples/retail_pricing.py
"""

from repro import BOOLEAN, Compiler, cmp_, connect, eq, max_
from repro.prob import kernels


def build_session():
    s = connect(engine="sprout")

    suppliers = s.table("S", ["sid", "shop"])
    for sid, shop in [(1, "M&S"), (2, "M&S"), (3, "M&S"), (4, "Gap"), (5, "Gap")]:
        suppliers.insert((sid, shop), p=0.5, var=f"x{sid}")

    listings = s.table("PS", ["psid", "pid", "price"])
    for sid, pid, price in [
        (1, 1, 10), (1, 2, 50), (2, 1, 11), (2, 2, 60), (3, 3, 15),
        (3, 4, 40), (4, 1, 15), (4, 3, 60), (5, 1, 10),
    ]:
        listings.insert((sid, pid, price), p=0.6, var=f"y{sid}{pid}")

    products1 = s.table("P1", ["ppid", "weight"])
    for pid, weight in [(1, 4), (2, 8), (3, 7), (4, 6)]:
        products1.insert((pid, weight), p=0.7, var=f"z{pid}")

    s.table("P2", ["ppid", "weight"]).insert((1, 5), p=0.5, var="z5")
    return s


def q1(s):
    """Q1 = π_{shop,price}[S ⋈ PS ⋈ (P1 ∪ P2)]."""
    products = s.table("P1").union(s.table("P2"))
    return (
        s.table("S")
        .product(s.table("PS"))
        .product(products)
        .where(eq("sid", "psid"), eq("pid", "ppid"))
        .select("shop", "price")
    )


def q2(s, limit: int = 50):
    """Q2 = π_shop σ_{P≤limit} $_{shop; P←MAX(price)}[Q1]."""
    return (
        q1(s)
        .group_by("shop")
        .agg(P=max_("price"))
        .where(cmp_("P", "<=", limit))
        .select("shop")
    )


def main():
    s = build_session()

    print("Q1 — prices of products available in shops (Figure 1d):")
    print(s.rewrite(q1(s)).pretty())

    print("\nQ1 answer probabilities:")
    for row in q1(s).run():
        print(f"  {row.values}:  P = {row.probability():.4f}")

    print("\nQ2 — shops whose maximal price is ≤ 50 (Figure 1e):")
    for row in q2(s).run():
        print(f"  {row.values[0]:<5} P = {row.probability():.4f}")
        print(f"        Φ = {row.annotation!r}")

    # The distribution of MAX(price) per shop, conditioned on existence.
    grouped = q1(s).group_by("shop").agg(P=max_("price"))
    print("\nDistribution of MAX(price) per shop:")
    for row in grouped.run():
        shop = row.values[0]
        print(f"  {shop}:")
        for value, probability in sorted(
            row.value_distribution("P").items(), key=lambda kv: float(kv[0])
        ):
            print(f"    max = {value:>4}:  {probability:.4f}")

    # Figure 6: the d-tree of the Gap group's semimodule expression
    # (a fresh compiler, so the node/expansion counts are this tree's own).
    # Algorithm 1 verbatim — with the numpy kernels on, rule 6's base case
    # would tabulate this 8-variable residual instead of expanding it.
    gap_row = next(r for r in s.rewrite(grouped) if r.values[0] == "Gap")
    kernels_were_on = kernels.set_numpy_enabled(False)
    try:
        compiler = Compiler(s.registry, BOOLEAN)
        tree = compiler.compile(gap_row.values[1])
    finally:
        kernels.set_numpy_enabled(kernels_were_on)
    print("\nDecomposition tree of the ⟨Gap⟩ aggregation value (Figure 6):")
    print(tree.pretty("  "))
    print(f"\n(d-tree: {tree.dag_size()} nodes, "
          f"{compiler.mutex_nodes_created} Shannon expansions)")
    if kernels_were_on:
        tabulated = Compiler(s.registry, BOOLEAN).compile(gap_row.values[1])
        print("With the numpy kernels on, the same expression compiles to:")
        print(tabulated.pretty("  "))


if __name__ == "__main__":
    main()
