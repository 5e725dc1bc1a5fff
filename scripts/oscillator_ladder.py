#!/usr/bin/env python3
"""Walk the harmonic-oscillator ladder end to end.

Builds the operator family behind the oscillator, iterates the Darboux
transformation with automatic level detection, constructs the bound
states via the raising operator, and checks that the order-2 raising
matrix carries each state to the next.
"""

from darbouxkit import (
    DerivationTable,
    SecondOrderFamily,
    X,
    auto_level_seed,
    darboux_chain,
    hermite,
    normalize,
    oscillator_states,
    to_pretty,
)
from darbouxkit.expr import ONE, ZERO, const, equal, substitute
from darbouxkit.susyqm import matrix_formalism, partner_potentials


def main() -> None:
    family = SecondOrderFamily(
        p=ZERO, q=normalize(-(X ** 2) + 1), r=ONE, w=ONE, table=DerivationTable()
    )
    print("chain of potentials (q at each step, seed log-derivative -x):")
    steps = darboux_chain(family, lambda fam, _: (fam, auto_level_seed(fam, -X)), 5)
    for n, step in enumerate(steps[:-1]):
        print(f"  step {n}: q = {to_pretty(step.family.q):<12}  level = {to_pretty(step.seed.level)}")
    print(f"  step 5: q = {to_pretty(steps[-1].family.q)}")

    print("\nladder states (component 1 = Hermite factor times Gaussian):")
    states, table = oscillator_states(5)
    for n, state in enumerate(states):
        print(f"  n={n}: H_{n} = {to_pretty(hermite(n))}")

    pair = partner_potentials(X)
    mf = matrix_formalism(pair, 2, table)
    print("\nenergy ladder (state n has lambda = 2n; the raising matrix acts at")
    print("m = -(2n+2), minus the energy 2n+2 of state n under V+):")
    for n in range(5):
        raising = mf.raising.gauge.map(lambda e: substitute(e, {"m": const(-(2 * n + 2))}))
        image = raising.apply(states[n])
        verdict = "is" if all(equal(a, b) for a, b in zip(image, states[n + 1])) else "is NOT"
        print(f"  n={n}: lambda = {2 * n}, raising(state {n}) {verdict} state {n + 1}")
    print("\npartner potentials:", to_pretty(pair.v_minus), "|", to_pretty(pair.v_plus))


if __name__ == "__main__":
    main()
