"""Acceptance gate: every shipped guarantee, one test per criterion.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see
them on success).  Symbolic criteria are exact: the check is that a
normal form is literally zero.  Numeric criteria carry the pinned
tolerances stated in the assertions; nothing is calibrated at runtime.
"""

import functools
import math
from fractions import Fraction
from random import Random

from darbouxkit.expr import (
    Const,
    DerivationTable,
    GaussRat,
    I,
    ONE,
    Sym,
    X,
    ZERO,
    const,
    differentiate,
    equal,
    is_zero,
    normalize,
    param,
    substitute,
    sym,
    symbol_tower,
)
from darbouxkit.linsys import (
    ExprMatrix,
    LinearSystem,
    SecondOrderFamily,
    companion,
    gauge_residual,
    residual,
)
from darbouxkit.sympow import sym_group, sym_lie, sym_system
from darbouxkit.darboux import (
    attach_generic_seed,
    darboux_gauge,
    darboux_potential,
    darboux_solution,
    darboux_transformation,
    generic_seed,
    potential_compact,
    potential_shift,
)
from darbouxkit.tensordt import (
    ROUTES,
    OrthogonalSystem,
    first_integral_orthogonal,
    first_integral_sym2,
    flow_derivative,
    orthogonal_lift,
    p1_explicit,
    p2_explicit,
    riccati_invert,
    riccati_parametrize,
    so3_system_first,
    so3_to_riccati,
    t1_explicit,
    t2_explicit,
)
from darbouxkit.susyqm import (
    hermite,
    matrix_formalism,
    oscillator_states,
    partner_potentials,
)
from darbouxkit.apps import application_chain, frenet_family, rigid_family
from darbouxkit.numverify import (
    companion_solution_grid,
    companion_solution_grids,
    convergence_ratio,
    drift,
    integrate,
    residual_sweep,
)
from conftest import balanced_companion, generic_family, oscillator_family

SEED = 20260810


@functools.lru_cache(maxsize=None)
def _seeded():
    return attach_generic_seed(generic_family())


def _criterion(number: int, description: str, results: dict[str, bool]) -> None:
    ok = all(results.values())
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {description}")
    failing = [name for name, good in results.items() if not good]
    assert ok, f"criterion {number} failed: {failing}"


def test_criterion_1_darboux_covariance():
    fam, seed = _seeded()
    (pair,), table = fam.solution_symbols("ym")
    ym, _ = pair
    new_fam = darboux_potential(fam, seed)
    ytilde = darboux_solution(fam, seed, ym, table)
    d1 = differentiate(ytilde, table)
    d2 = differentiate(d1, table)
    res = normalize(d2 + new_fam.p * d1 + new_fam.q_effective() * ytilde)
    results = {
        "transformed-solution-residual-zero": is_zero(res),
        "shift-formula-equals-compact-form": equal(
            normalize(fam.q + potential_shift(fam, seed)),
            potential_compact(fam, seed),
        ),
    }
    _criterion(1, "transformation covariance, fully symbolic", results)


def test_criterion_2_gauge_equivalence():
    fam, seed = _seeded()
    g = darboux_gauge(fam, seed)
    results = {
        "factorization": g.p_m.equals((g.l_m @ g.r_factor).normalized()),
        "determinant-minus-m": equal(g.p_m.det(), -fam.m),
        "gauged-companion-matches": gauge_residual(
            companion(fam), g.p_m, companion(darboux_potential(fam, seed))
        ).is_zero_matrix(),
    }
    _criterion(2, "the transformation is the expected gauge", results)


def test_criterion_3_symmetric_power_coherence():
    p, q, r, w = sym("p"), sym("q"), sym("r"), sym("w")
    s2 = ExprMatrix([[ZERO, const(-1), ZERO], [2 * q, p, const(-2)], [ZERO, q, 2 * p]])
    s2_hat = ExprMatrix(
        [[ZERO, -1 / w, ZERO], [2 * w * q, ZERO, -2 / w], [ZERO, w * q, ZERO]]
    )
    n2 = ExprMatrix([[ZERO, ZERO, ZERO], [-2 * r, ZERO, ZERO], [ZERO, -r, ZERO]])
    n2_hat = ExprMatrix(
        [[ZERO, ZERO, ZERO], [-2 * w * r, ZERO, ZERO], [ZERO, -w * r, ZERO]]
    )
    results = {
        "lifted-companion": sym_lie(
            ExprMatrix([[ZERO, const(-1)], [q, p]]), 2
        ).equals(s2),
        "lifted-balanced": sym_lie(
            ExprMatrix([[ZERO, -1 / w], [w * q, ZERO]]), 2
        ).equals(s2_hat),
        "lifted-perturbation": sym_lie(
            ExprMatrix([[ZERO, ZERO], [-r, ZERO]]), 2
        ).equals(n2),
        "lifted-balanced-perturbation": sym_lie(
            ExprMatrix([[ZERO, ZERO], [-w * r, ZERO]]), 2
        ).equals(n2_hat),
    }
    rng = Random(SEED)
    functorial = True
    for _ in range(50):
        m1 = ExprMatrix(
            [
                [Const(GaussRat(Fraction(rng.randint(-3, 3), rng.choice((1, 2)))))
                 for _ in range(2)]
                for _ in range(2)
            ]
        )
        m2 = ExprMatrix(
            [
                [Const(GaussRat(Fraction(rng.randint(-3, 3), rng.choice((1, 2)))))
                 for _ in range(2)]
                for _ in range(2)
            ]
        )
        functorial = functorial and sym_group(m1 @ m2, 2).equals(
            (sym_group(m1, 2) @ sym_group(m2, 2)).normalized()
        )
    results["functoriality-50-random"] = functorial
    fam = generic_family()
    (pair1, pair2), table = fam.solution_symbols("y1", "y2")
    fund = ExprMatrix([[pair1[0], pair2[0]], [pair1[1], pair2[1]]])
    base = LinearSystem(companion(fam).a, table)
    results["lifted-fundamental-residual-zero"] = residual(
        sym_system(base, 2), sym_group(fund, 2)
    ).is_zero_matrix()
    _criterion(3, "symmetric-power coherence", results)


def test_criterion_4_lifted_transformations():
    fam, seed = _seeded()
    m = fam.m
    g = darboux_gauge(fam, seed)
    # Sym2(Delta) = diag(1, w, w^2) for Delta = diag(1, w); P2 = Sym2(Delta P Delta^-1)
    d2, d2_inv = (sym_group(ExprMatrix.diagonal([ONE, e]), 2) for e in (fam.w, 1 / fam.w))
    p1 = darboux_transformation(fam, seed).sym(2).gauge
    p2 = (d2 @ p1 @ d2_inv).normalized()
    t1 = ROUTES["Q"].lift(fam, g.p_m)
    t2 = ROUTES["S"].lift(fam, g.p_m)
    left1, right1 = sym_group(g.l_m, 2), sym_group(g.r_factor, 2)
    left2, right2 = (d2 @ left1).normalized(), (right1 @ d2_inv).normalized()
    (k1, k1_inv), (k2, k2_inv) = ROUTES["Q"].frame(fam), ROUTES["S"].frame(fam)
    tl1, tr1 = (k1 @ left1).normalized(), (right1 @ k1_inv).normalized()
    tl2, tr2 = (k2 @ left1).normalized(), (right1 @ k2_inv).normalized()
    at_w1 = lambda e: substitute(e, {"w": ONE, "p": ZERO})
    lifted = sym_system(companion(fam), 2)
    lifted_target = sym_system(companion(darboux_potential(fam, seed)), 2)
    balanced = balanced_companion(fam)
    balanced_target = balanced_companion(darboux_potential(fam, seed))
    results = {
        "p1-entrywise": p1.equals(p1_explicit(fam, seed)),
        "p1-factorization": p1.equals((left1 @ right1).normalized()),
        "p2-entrywise": p2.equals(p2_explicit(fam, seed)),
        "p2-factorization": p2.equals((left2 @ right2).normalized()),
        "t1-entrywise": t1.equals(t1_explicit(fam, seed)),
        "t1-factorization": t1.equals((tl1 @ tr1).normalized()),
        "t2-entrywise": t2.equals(t2_explicit(fam, seed)),
        "t2-factorization": t2.equals((tl2 @ tr2).normalized()),
        "det-p1": equal(p1.det(), -(m ** 3)),
        "det-p2": equal(p2.det(), -(m ** 3)),
        "p2-reduces-to-p1-at-w1": p2_explicit(fam, seed)
        .map(at_w1)
        .equals(p1_explicit(fam, seed).map(at_w1)),
        "diagram-sym2-route": gauge_residual(lifted, p1, lifted_target).is_zero_matrix(),
        "diagram-balanced-route": gauge_residual(
            sym_system(balanced, 2), p2, sym_system(balanced_target, 2)
        ).is_zero_matrix(),
    }
    _criterion(4, "lifted transformation matrices and diagrams", results)


def test_criterion_5_first_integrals():
    fam = generic_family()
    lifted = sym_system(companion(fam), 2)
    f, g, h = sym("f"), sym("g"), sym("h")
    table = DerivationTable(
        {**symbol_tower("f", 1), **symbol_tower("g", 1), **symbol_tower("h", 1)}
    )
    ortho = OrthogonalSystem(f, g, h, table).system()
    results = {
        "sym2-integral-symbolic": is_zero(
            flow_derivative(lifted, first_integral_sym2(fam.w), ("z1", "z2", "z3"))
        ),
        "orthogonal-integral-symbolic": is_zero(
            flow_derivative(
                ortho, first_integral_orthogonal(), ("alpha", "beta", "gamma")
            )
        ),
    }
    osc = oscillator_family()
    traj = integrate(
        sym_system(companion(osc), 2), [1.0, 0.25, 2.0], (0.0, 1.0), 1e-3, {"m": 1}
    )
    drift_sym2 = drift(first_integral_sym2(osc.w), traj, ("z1", "z2", "z3"), {"w": 1.0})
    traj2 = integrate(
        so3_system_first(osc).system(), [1.0, 0.5j, -0.25], (0.0, 1.0), 1e-3, {"m": -2}
    )
    drift_ortho = drift(
        first_integral_orthogonal(), traj2, ("alpha", "beta", "gamma")
    )
    results["sym2-drift-below-1e-8"] = drift_sym2 <= 1e-8
    results["orthogonal-drift-below-1e-8"] = drift_ortho <= 1e-8
    _criterion(5, "first integrals, symbolic and along trajectories", results)


def test_criterion_6_riccati_parametrization():
    u, v = sym("u"), sym("v")
    alpha, beta, gamma = riccati_parametrize(u, v)
    results = {
        "unit-norm-identity": equal(
            alpha * alpha + beta * beta + gamma * gamma, ONE
        ),
    }
    f, g, h = sym("f"), sym("g"), sym("h")
    table = DerivationTable(
        {**symbol_tower("f", 2), **symbol_tower("g", 2), **symbol_tower("h", 2)}
    )
    system = OrthogonalSystem(f, g, h, table)
    data = so3_to_riccati(system)
    table_uv = table.extended({"u": data.rhs(Sym("u")), "v": data.rhs(Sym("v"))})
    flow = system.skew()
    state = [alpha, beta, gamma]
    flow_ok = True
    for i in range(3):
        lhs = differentiate(state[i], table_uv)
        rhs = normalize(sum((flow[i, j] * state[j] for j in range(3)), ZERO))
        flow_ok = flow_ok and is_zero(normalize(lhs - rhs))
    results["parametrized-solution-solves-flow"] = flow_ok
    table_y = table.extended(
        {"u": data.rhs(Sym("u")), "y": normalize(-data.omega1 * Sym("u")) * Sym("y")}
    )
    data_y = so3_to_riccati(OrthogonalSystem(f, g, h, table_y))
    b, c = data_y.linear_form()
    y = Sym("y")
    res = normalize(
        differentiate(differentiate(y, table_y), table_y)
        + b * differentiate(y, table_y)
        + c * y
    )
    results["linear-form-agrees-with-riccati"] = is_zero(res)
    u_back, v_back = riccati_invert(alpha, beta, gamma)
    results["inversion-recovers-riccati-solutions"] = equal(u_back, u) and equal(
        v_back, v
    )
    _criterion(6, "Riccati parametrization of orthogonal flows", results)


def test_criterion_7_susy_oscillator():
    pair = partner_potentials(X)
    states, table = oscillator_states(5, order=2)
    mf2 = matrix_formalism(pair, 2, table)
    mf3 = matrix_formalism(pair, 3)
    results = {
        "partner-potentials": equal(pair.v_minus, X ** 2 - 1)
        and equal(pair.v_plus, X ** 2 + 1),
        "remainder-2x2": mf2.v_plus.equals(
            mf2.v_minus + ExprMatrix([[ZERO, ZERO], [const(2), ZERO]])
        ),
        "remainder-3x3": mf3.v_plus.equals(
            mf3.v_minus
            + ExprMatrix(
                [[ZERO, ZERO, ZERO], [const(4), ZERO, ZERO], [ZERO, const(2), ZERO]]
            )
        ),
    }
    ladder_ok = True
    psi0 = Sym("psi0")
    for n, state in enumerate(states):
        ladder_ok = ladder_ok and equal(state[0], normalize(hermite(n) * psi0))
        column = ExprMatrix([[e] for e in state])
        ladder_ok = ladder_ok and residual(mf2.system(2 * n), column).is_zero_matrix()
    results["ladder-eigenstates-n-le-5"] = ladder_ok
    from darbouxkit.susyqm import ParametricPotential, spectrum

    a = param("a")
    pot = ParametricPotential(w=a * X, a_name="a", f=a, remainder=2 * a)
    spectrum_ok = all(
        equal(substitute(energy, {"a": ONE}), const(2 * n))
        for n, energy in enumerate(spectrum(pot, 5)[1])
    )
    results["spectrum-2n"] = spectrum_ok
    _criterion(7, "supersymmetric oscillator formalism", results)


def _worst_sweep(family, pair, samples):
    # the samples share one family, so they share one stepping loop
    grids = companion_solution_grids([(family, bindings) for bindings in samples])
    return max(
        residual_sweep(pair.matrix, pair.system, grid,
                       grid.sample_indices(5), bindings=bindings)
        for bindings, grid in zip(samples, grids)
    )


def test_criterion_8_applications():
    table = DerivationTable(
        {**symbol_tower("kappa", 4), **symbol_tower("tau", 4), **symbol_tower("w1", 4)}
    )
    kappa, tau, w1 = sym("kappa"), sym("tau"), sym("w1")
    frenet_q = frenet_family(kappa, -2 * I, "Q", table)
    frenet_s = frenet_family(kappa, tau, "S", table)
    rigid_q = rigid_family(w1, normalize(2 - I * w1), "Q", table)
    rigid_s = rigid_family(w1, ZERO, "S", table)
    results = {
        "frenet-q-identification": equal(frenet_q.q, const(-1))
        and equal(frenet_q.p, I * kappa),
        "frenet-s-identification": equal(frenet_s.w, 2 / (I * kappa - tau))
        and equal(frenet_s.q, (kappa ** 2 + tau ** 2) / 4),
        "rigid-q-identification": equal(rigid_q.q, 2 - I * w1 - 1),
        "rigid-s-identification": equal(rigid_s.w, -2 / w1)
        and equal(rigid_s.q, w1 ** 2 / 4),
    }
    # step-1 chain transformations against their closed forms
    rigid_links = application_chain(rigid_q, "Q", generic_seed, 1)
    th = Sym("theta0_0")
    m = rigid_q.m
    nu = normalize(m + th * th)
    rigid_expected = ExprMatrix(
        [
            [-(nu ** 2) + 2 * th ** 2 - 1, I * (nu ** 2 - 1), 2 * th * (1 - nu)],
            [I * (nu ** 2 - 1), nu ** 2 + 2 * th ** 2 + 1, 2 * I * th * (1 + nu)],
            [2 * th * (nu - 1), -2 * I * th * (nu + 1), 2 * (nu + th ** 2)],
        ]
    ).scale(Const(Fraction(1, 2)))
    results["rigid-step1-transform"] = rigid_links[0].transform.gauge.equals(
        rigid_expected.normalized()
    )
    frenet_links = application_chain(frenet_s, "S", generic_seed, 1)
    f_fam, f_seed = frenet_links[0].family, frenet_links[0].seed
    results["frenet-step1-transform"] = frenet_links[0].transform.gauge.equals(
        t2_explicit(f_fam, f_seed)
    )
    # each route built once over parameters, so its lift is proved exact
    # for every binding; then swept at five random bindings per route
    a, b, c = param("a"), param("b"), param("c")
    linear = normalize(a + b * X)
    routes = {
        "frenet-q": ("Q", frenet_family(linear, -2 * I, "Q")),
        "frenet-s": ("S", frenet_family(linear, normalize(c * X), "S")),
        "rigid-q": ("Q", rigid_family(normalize(-I * (2 - linear)), linear, "Q")),
        "rigid-s": ("S", rigid_family(linear, ZERO, "S")),
    }
    # five rounds, each drawing one m and then one binding per route
    rng = Random(SEED)
    samples = {route: [] for route in routes}
    for _ in range(5):
        m_val = rng.uniform(-1, 1)
        for route, (lo, hi) in (("frenet-q", (1, 3)), ("frenet-s", (2, 4)),
                                ("rigid-q", (1, 4)), ("rigid-s", (2, 4))):
            bindings = {"m": m_val, "a": rng.randint(lo, hi), "b": rng.randint(-1, 1) / 4}
            if route == "frenet-s":
                bindings["c"] = rng.randint(-2, 2) / 3
            samples[route].append(bindings)
    for route, (letter, family) in routes.items():
        _, pair = orthogonal_lift(family, letter)
        results[f"{route}-lift-exact"] = residual(pair.system, pair.matrix).is_zero_matrix()
        results[f"sweep-{route}-below-1e-8"] = _worst_sweep(family, pair, samples[route]) <= 1e-8
    _criterion(8, "frame and rigid-solid applications", results)


def test_criterion_9_oracle_health():
    fam = SecondOrderFamily(p=ZERO, q=ONE, r=ONE, w=ONE, table=DerivationTable())
    ratio = convergence_ratio(
        companion(fam),
        [1.0, 0.0],
        [math.cos(1.0), -math.sin(1.0)],
        (0.0, 1.0),
        1e-2,
        {"m": 0},
    )
    results = {"rk4-order-ratio-in-12-20": 12.0 <= ratio <= 20.0}
    _, pair = orthogonal_lift(fam, "Q")
    flipped = LinearSystem(so3_system_first(fam).skew(), pair.system.table)
    grid = companion_solution_grid(fam, bindings={"m": 0})
    mutated = residual_sweep(
        pair.matrix,
        flipped,
        grid,
        grid.sample_indices(5),
        bindings={"m": 0},
    )
    results["orientation-mutation-detected"] = mutated >= 1e-2
    _criterion(9, "numerical oracle health and mutation detection", results)
