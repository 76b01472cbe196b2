#!/usr/bin/env python3
"""Does arm counting stay optimal as the register grows?

For n particles the aligned-vs-mixed task has the closed-form optimum
1 - (n+1)/2^(n+1).  Sending the n particles through a balanced n-arm
Fourier multiport and counting arrivals per arm reaches that optimum for
two fermions, three fermions, two bosons and three bosons.  From four
particles on, a gap opens for both statistics.  Whether some cleverer
linear-optics strategy closes it again is an open question; this script
simply measures the gap exactly for every n up to the chosen N_MAX, which
may go as high as the 8-qubit limit of exact evaluation.
"""

import time

from statdisc import Statistics, scan_discrimination

N_MAX = 6


def main():
    print("=" * 72)
    print(f"Arm-count strategy vs the exact bound, n = 1 .. {N_MAX}")
    print("=" * 72)

    for statistics in (Statistics.FERMION, Statistics.BOSON):
        start = time.perf_counter()
        reports = scan_discrimination(N_MAX, statistics)
        elapsed = time.perf_counter() - start
        print(f"\n{statistics.value}s  ({elapsed:.2f} s)")
        print(f"  {'n':>2}  {'arm counting':>14}  {'exact bound':>14}  "
              f"{'gap':>14}  {'outcomes':>8}")
        for rep in reports:
            marker = "  <- meets the bound" if abs(rep.gap) < 1e-10 else ""
            print(f"  {rep.n:>2}  {rep.p_bs:>14.10f}  "
                  f"{rep.p_helstrom:>14.10f}  {rep.gap:>14.10f}  "
                  f"{len(rep.strategy):>8}{marker}")

    print("\nThe n = 1 row is the sanity floor: one particle carries no")
    print("exchange information, so nothing beats a coin flip.  The gaps")
    print("from n = 4 on are exact rationals, not numerical artifacts;")
    print("rerunning with a finer tolerance reproduces them digit for digit.")


if __name__ == "__main__":
    main()
