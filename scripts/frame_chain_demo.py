#!/usr/bin/env python3
"""Transform a moving-frame system and verify the result numerically.

First displays the shape of one transformation step for symbolic
curvature and torsion: a compact entry of its record's gauge (the
corner entries expand to large rational functions) and the record's
closed-form determinant.  Then switches to a concrete profile,
integrates the base system, and measures the residual of the symbolic
fundamental matrix plus the drift of the quadratic first integral.
"""

from darbouxkit import (
    DerivationTable,
    X,
    application_chain,
    companion_solution_grid,
    drift,
    frenet_family,
    generic_seed,
    integrate,
    normalize,
    residual_sweep,
    sym,
    symbol_tower,
    to_pretty,
)
from darbouxkit.tensordt import first_integral_orthogonal, orthogonal_lift


def main() -> None:
    table = DerivationTable({**symbol_tower("kappa", 4), **symbol_tower("tau", 4)})
    symbolic = frenet_family(sym("kappa"), sym("tau"), "S", table)
    print("frame family (symbolic curvature and torsion):")
    print("  p =", to_pretty(symbolic.p))
    print("  q =", to_pretty(symbolic.q))
    print("  w =", to_pretty(symbolic.w))

    links = application_chain(symbolic, "S", generic_seed, 1)
    t = links[0].transform
    seed = links[0].seed
    print("\nstep-1 transformation (compact views):")
    print("  seed data rho =", to_pretty(seed.rho))
    print("  centre entry  =", to_pretty(t.gauge[1, 1]))
    print("  determinant   =", to_pretty(t.det))

    kappa = normalize(2 + X / 2)
    tau = normalize(X / 3)
    family = frenet_family(kappa, tau, "S")
    ortho, pair = orthogonal_lift(family, "S")
    grid = companion_solution_grid(family, bindings={"m": 0.5})
    value = residual_sweep(
        pair.matrix,
        pair.system,
        grid,
        grid.sample_indices(5),
        bindings={"m": 0.5},
    )
    print(f"\nconcrete profile kappa = {to_pretty(kappa)}, tau = {to_pretty(tau)}:")
    print(f"  fundamental-matrix residual along integrated solutions: {value:.3e}")

    traj = integrate(ortho.system(), [1.0, 0.5j, -0.25], (0.0, 1.0), 1e-3,
                     {"m": 0.5})
    value = drift(first_integral_orthogonal(), traj, ("alpha", "beta", "gamma"))
    print(f"  quadratic-invariant drift along the flow:               {value:.3e}")


if __name__ == "__main__":
    main()
