#!/usr/bin/env python3
"""Two particles meet at a balanced two-port.

The walkthrough below sends qubit pairs with various internal states
through the balanced two-arm coupler and prints where the particles come
out.  Three regimes show up:

  - identical internal states: bosons always bunch, fermions always
    antibunch, regardless of which direction the spins point;
  - orthogonal internal states: the exchange effect washes out and both
    statistics give the coin-flip pattern mixture;
  - the singlet: perfectly anticorrelated spins force the opposite of the
    identical-spin behavior for each statistics.

Everything here is exact; there is no sampling noise in these numbers.
"""

import math

import numpy as np

from statdisc import (BlochDirection, Statistics, bloch_state, interfere,
                      orthogonal_state)


def show(label, distribution):
    parts = ", ".join(f"P{pattern} = {p:.4f}"
                      for pattern, p in distribution.probabilities.items())
    anti = distribution.antibunch_probability()
    print(f"  {label:<34} {parts}   antibunch {anti:.4f}")


def main():
    print("=" * 72)
    print("Balanced two-port interference, one particle per input arm")
    print("=" * 72)

    omega = BlochDirection(theta=0.7, phi=1.9)
    up = bloch_state(BlochDirection(0.0, 0.0))
    tilted = bloch_state(omega)
    flipped = orthogonal_state(omega)

    for statistics in (Statistics.BOSON, Statistics.FERMION):
        print(f"\n{statistics.value}s")
        print("-" * 72)
        show("identical spins (both up)", interfere(np.kron(up, up), statistics))
        show("identical spins (tilted)",
             interfere(np.kron(tilted, tilted), statistics))
        show("orthogonal spins", interfere(np.kron(tilted, flipped), statistics))
        singlet = (np.kron(tilted, flipped) - np.kron(flipped, tilted)) \
            / math.sqrt(2)
        show("singlet", interfere(singlet, statistics))

    print("\nThe identical-spin rows are the certainties the discrimination")
    print("strategy is built on: a bunched pair of fermions, or an")
    print("antibunched pair of bosons, can only have come from the other")
    print("hypothesis.")


if __name__ == "__main__":
    main()
