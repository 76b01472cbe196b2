#!/usr/bin/env python3
"""How much of the discrimination power is just counting?

Replace the quantum particles with classical balls.  Each ball carries a
hidden binary label; under the aligned hypothesis all labels agree, under
the mixed hypothesis they are independent coin flips.  Balls are routed
into n boxes uniformly at random subject to an exclusion rule, and the
observer guesses "aligned" exactly when every box ends up with one ball.

With the rule "no two equally labeled balls share a box", the classical
game reproduces the quantum optimum 1 - (n+1)/2^(n+1) exactly, for every
n.  Reading the rule as "no box holds more than two balls" instead breaks
the equivalence immediately.  Both readings are counted exactly below, in
integers, and each success is one integer ratio rounded once to a double,
so the agreement is an identity, not a numerical accident.
"""

from statdisc import classical_comparison


def main():
    print("=" * 72)
    print("Classical exclusion model vs the exact quantum bound")
    print("=" * 72)

    rows = classical_comparison(6)
    print(f"\n  {'n':>2}  {'per-label exclusion':>20}  "
          f"{'per-box cap of two':>19}  {'quantum bound':>14}")
    for row in rows:
        print(f"  {row['n']:>2}  {row['standard']:>20.12f}  "
              f"{row['literal']:>19.12f}  {row['bound']:>14.12f}")

    print("\n  deviations from the bound:")
    for row in rows:
        print(f"  n = {row['n']}: per-label {row['standard_deviation']:+.2e},"
              f"  per-box {row['literal_deviation']:+.3f}")

    print("\nThe per-label rule is doing real work: it encodes that two")
    print("particles with the same internal state exclude each other, which")
    print("is the fermionic behavior the quantum strategy exploits.  The")
    print("looser per-box rule throws that information away and its success")
    print("probability drifts back toward the coin flip as n grows.")


if __name__ == "__main__":
    main()
