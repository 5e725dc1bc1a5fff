"""Shipped verification suite.

Named checks re-derive the package's core identities (symbolically
where exact, numerically through the RK4 oracle elsewhere) and report
machine-readable results.  Sampled checks draw from a seeded generator
so runs are reproducible; each records its seed in its report.  A
numeric check imports the oracle (``numverify``, and with it numpy)
when it runs, so the exact checks never load numpy.  This module itself
loads only for ``verify`` and on first access to ``darbouxkit.run_checks``;
the check names, in run order, are ``linsys.CHECK_NAMES``, so the CLI
parser lists them without it.

Report schema: {"check", "max_residual", "tolerance", "pass"} plus
informational extras ("mode" is "max" when the measurement must stay
below tolerance, "min" when it must exceed it, as in mutation checks).
An exact check is a sequence of named identities, each a residual that
must normalize to zero; it reports 0.0 against tolerance 0.0 when all
hold.  When one does not, the check stops there and reports 1.0 with
two more keys: "identity" (its name) and "residual" (the first nonzero
entry of the normalized residual, in to_pretty form).
"""

from __future__ import annotations

import logging
import math
import time
from random import Random
from typing import Callable, Iterable, Sequence

from .expr import (
    DerivationTable,
    Expr,
    I,
    KitError,
    ONE,
    Record,
    Sym,
    X,
    ZERO,
    const,
    differentiate,
    is_zero,
    normalize,
    param,
    substitute,
    sym,
    symbol_tower,
    to_pretty,
)
from .linsys import (
    CHECK_NAMES,
    DEFAULT_INTERVAL,
    DEFAULT_STEP,
    ExprMatrix,
    LinearSystem,
    SecondOrderFamily,
    companion,
    residual,
)
from .sympow import sym_group, sym_lie, sym_system
from .darboux import (
    attach_generic_seed,
    darboux_gauge,
    darboux_potential,
    darboux_solution,
    darboux_transformation,
    potential_compact,
    potential_shift,
)
from .tensordt import (
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
from .susyqm import (
    hermite,
    matrix_formalism,
    oscillator_states,
    partner_potentials,
)
from .apps import frenet_family, rigid_family

DEFAULT_SEED = 20260810
# the pass bound of the numeric checks that sweep or integrate constructions
NUMERIC_TOLERANCE = 1e-8

log = logging.getLogger(__name__)


class VerifyConfig(Record):
    """Numeric knobs for the sampled/integrated checks: ``step`` and
    ``interval`` control every integration.  Both must be finite, the step
    positive and the interval increasing.  Every pass bound is fixed.
    """

    step: float = DEFAULT_STEP
    interval: tuple[float, float] = DEFAULT_INTERVAL

    def __post_init__(self):
        if not 0 < self.step < math.inf:
            raise ValueError(f"step must be finite and positive, got {self.step}")
        lo, hi = self.interval
        if not -math.inf < lo < hi < math.inf:
            raise ValueError(f"interval must be finite and increasing, got {lo},{hi}")


DEFAULT_CONFIG = VerifyConfig()


class IdentityFailed(KitError):
    """An identity of an exact check did not normalize to zero."""

    def __init__(self, identity: str, residual: str):
        super().__init__(f"{identity}: residual {residual}")
        self.identity, self.residual = identity, residual


def _holds(identity: str, residual: Expr | ExprMatrix | Sequence[Expr]) -> None:
    """Raise :class:`IdentityFailed` unless every entry of ``residual``
    (written ``lhs - rhs``) normalizes to zero.  Logs the identity, its
    verdict and its seconds at debug level."""
    start = time.perf_counter()
    if isinstance(residual, ExprMatrix):
        residual = [e for row in residual.rows for e in row]
    entries = [residual] if isinstance(residual, Expr) else residual
    failed = next((e for e in entries if not is_zero(e)), None)
    log.debug("identity %s: %s in %.4f s", identity, "pass" if failed is None else "fail",
              time.perf_counter() - start)
    if failed is not None:
        raise IdentityFailed(identity, to_pretty(normalize(failed)))


def _report(check: str, value: float, tolerance: float, mode: str = "max",
            **extra) -> dict:
    out = {
        "check": check,
        "max_residual": value,
        "tolerance": tolerance,
        "pass": bool(value >= tolerance if mode == "min" else value <= tolerance),
        "mode": mode,
    }
    out.update(extra)
    return out


def _generic_family() -> SecondOrderFamily:
    entries: dict = {}
    for base in ("p", "q", "r"):
        entries.update(symbol_tower(base, 6))
    entries["w"] = sym("p") * sym("w")
    return SecondOrderFamily(
        p=sym("p"), q=sym("q"), r=sym("r"), w=sym("w"),
        table=DerivationTable(entries),
    )


def _oscillator() -> SecondOrderFamily:
    return SecondOrderFamily(
        p=ZERO, q=normalize(-(X ** 2) + 1), r=ONE, w=ONE, table=DerivationTable()
    )


def _unit_family() -> SecondOrderFamily:
    """``y'' + (1 - m) y = 0``: cos and sin at m = 0."""
    return SecondOrderFamily(p=ZERO, q=ONE, r=ONE, w=ONE, table=DerivationTable())


# -- individual checks --------------------------------------------------------


def check_rk4_closed_form(seed: int, config: VerifyConfig) -> dict:
    from .numverify import integrate

    fam = _unit_family()
    x0, x1 = config.interval
    traj = integrate(companion(fam), [1.0, 0.0], config.interval, config.step, {"m": 0})
    end = traj.endpoint()
    exact = [math.cos(x1 - x0), -math.sin(x1 - x0)]
    err = max(abs(end[0] - exact[0]), abs(end[1] - exact[1]))
    return _report("rk4-closed-form", float(err), 1e-10)


def check_rk4_order(seed: int, config: VerifyConfig) -> dict:
    from .numverify import convergence_ratio

    fam = _unit_family()
    x0, x1 = config.interval
    ratio = convergence_ratio(
        companion(fam), [1.0, 0.0], [math.cos(x1 - x0), -math.sin(x1 - x0)],
        config.interval, 1e-2, {"m": 0},
    )
    return _report("rk4-order", abs(ratio - 16.0), 4.0, ratio=ratio)


def check_darboux_covariance(seed: int, config: VerifyConfig) -> dict:
    fam, sd = attach_generic_seed(_generic_family())
    (pair,), table = fam.solution_symbols("ym")
    ym, _ = pair
    new_fam = darboux_potential(fam, sd)
    ytilde = darboux_solution(fam, sd, ym, table)
    d1 = differentiate(ytilde, table)
    d2 = differentiate(d1, table)
    _holds("y~ solves the new equation", d2 + new_fam.p * d1 + new_fam.q_effective() * ytilde)
    shifted = normalize(fam.q + potential_shift(fam, sd))
    _holds("q + shift = compact transformed q", shifted - potential_compact(fam, sd))
    return _report("darboux-covariance", 0.0, 0.0)


def check_darboux_gauge(seed: int, config: VerifyConfig) -> dict:
    fam, sd = attach_generic_seed(_generic_family())
    g = darboux_gauge(fam, sd)
    _holds("P = L R", g.p_m - (g.l_m @ g.r_factor).normalized())
    for part, res in darboux_transformation(fam, sd).residuals():
        _holds(f"P {part}", res)
    return _report("darboux-gauge", 0.0, 0.0)


def check_sym_power(seed: int, config: VerifyConfig) -> dict:
    p, q, r, w = sym("p"), sym("q"), sym("r"), sym("w")
    s2 = ExprMatrix([[ZERO, const(-1), ZERO], [2 * q, p, const(-2)], [ZERO, q, 2 * p]])
    _holds("Sym2 of A", sym_lie(ExprMatrix([[ZERO, const(-1)], [q, p]]), 2) - s2)
    s2_hat = ExprMatrix([[ZERO, -1 / w, ZERO], [2 * w * q, ZERO, -2 / w], [ZERO, w * q, ZERO]])
    _holds("Sym2 of A^", sym_lie(ExprMatrix([[ZERO, -1 / w], [w * q, ZERO]]), 2) - s2_hat)
    n2 = ExprMatrix([[ZERO, ZERO, ZERO], [-2 * r, ZERO, ZERO], [ZERO, -r, ZERO]])
    _holds("Sym2 of N", sym_lie(ExprMatrix([[ZERO, ZERO], [-r, ZERO]]), 2) - n2)
    n2_hat = ExprMatrix([[ZERO, ZERO, ZERO], [-2 * w * r, ZERO, ZERO], [ZERO, -w * r, ZERO]])
    _holds("Sym2 of N^", sym_lie(ExprMatrix([[ZERO, ZERO], [-w * r, ZERO]]), 2) - n2_hat)
    m1 = ExprMatrix([[param("a"), param("b")], [param("c"), param("d")]])
    m2 = ExprMatrix([[param("e"), param("f")], [param("g"), param("h")]])
    product = (sym_group(m1, 2) @ sym_group(m2, 2)).normalized()
    _holds("Sym2(M1 M2) = Sym2(M1) Sym2(M2)", sym_group(m1 @ m2, 2) - product)
    fam = _generic_family()
    fund, table = fam.fundamental_matrix()
    base = LinearSystem(companion(fam).a, table)
    _holds("Sym2 Y solves Sym2 A", residual(sym_system(base, 2), sym_group(fund, 2)))
    return _report("sym-power", 0.0, 0.0)


def check_lifted_transforms(seed: int, config: VerifyConfig) -> dict:
    fam, sd = attach_generic_seed(_generic_family())
    p1 = darboux_transformation(fam, sd).sym(2)
    g = darboux_gauge(fam, sd)
    _holds("P1 closed form", p1.gauge - p1_explicit(fam, sd))
    l1_r1 = (sym_group(g.l_m, 2) @ sym_group(g.r_factor, 2)).normalized()
    _holds("P1 = L1 R1", p1.gauge - l1_r1)
    # P2 = Sym2(Delta P Delta^-1) = Sym2(Delta) P1 Sym2(Delta)^-1, Delta = diag(1, w)
    d2, d2_inv = (sym_group(ExprMatrix.diagonal([ONE, d]), 2) for d in (fam.w, 1 / fam.w))
    p2 = (d2 @ p1.gauge @ d2_inv).normalized()
    _holds("P2 closed form", p2 - p2_explicit(fam, sd))
    _holds("det P2 = -m^3", p2.det() + fam.m ** 3)
    at_w1 = lambda e: substitute(e, {"w": ONE, "p": ZERO})
    _holds("P2 = P1 at w = 1, p = 0",
           p2_explicit(fam, sd).map(at_w1) - p1_explicit(fam, sd).map(at_w1))
    _holds("T1 closed form", ROUTES["Q"].lift(fam, g.p_m) - t1_explicit(fam, sd))
    _holds("T2 closed form", ROUTES["S"].lift(fam, g.p_m) - t2_explicit(fam, sd))
    for part, res in p1.residuals():
        _holds(f"P1 {part}", res)
    return _report("lifted-transforms", 0.0, 0.0)


def check_first_integrals(seed: int, config: VerifyConfig) -> dict:
    from .numverify import drift, integrate_many

    fam = _generic_family()
    lifted = sym_system(companion(fam), 2)
    _holds("Sym2 first integral is conserved",
           flow_derivative(lifted, first_integral_sym2(fam.w), ("z1", "z2", "z3")))
    f, g, h = sym("f"), sym("g"), sym("h")
    table = DerivationTable(
        {**symbol_tower("f", 1), **symbol_tower("g", 1), **symbol_tower("h", 1)}
    )
    ortho = OrthogonalSystem(f, g, h, table).system()
    _holds("orthogonal first integral is conserved",
           flow_derivative(ortho, first_integral_orthogonal(), ("alpha", "beta", "gamma")))
    osc = _oscillator()
    traj, traj2 = integrate_many(
        [(sym_system(companion(osc), 2), [1.0, 0.25, 2.0], {"m": 1}),
         (so3_system_first(osc).system(), [1.0, 0.5j, -0.25], {"m": -2})],
        config.interval, config.step,
    )
    worst = max(
        drift(first_integral_sym2(osc.w), traj, ("z1", "z2", "z3"), {"w": 1.0}),
        drift(first_integral_orthogonal(), traj2, ("alpha", "beta", "gamma")),
    )
    return _report("first-integrals", float(worst), NUMERIC_TOLERANCE)


def check_riccati_parametrization(seed: int, config: VerifyConfig) -> dict:
    u, v = sym("u"), sym("v")
    alpha, beta, gamma = riccati_parametrize(u, v)
    _holds("on the unit sphere", alpha * alpha + beta * beta + gamma * gamma - 1)
    f, g, h = sym("f"), sym("g"), sym("h")
    table = DerivationTable(
        {**symbol_tower("f", 2), **symbol_tower("g", 2), **symbol_tower("h", 2)}
    )
    system = OrthogonalSystem(f, g, h, table)
    data = so3_to_riccati(system)
    table2 = table.extended({"u": data.rhs(Sym("u")), "v": data.rhs(Sym("v"))})
    flow = residual(LinearSystem(system.system().a, table2),
                    ExprMatrix([[alpha], [beta], [gamma]]))
    for name, row in zip(("alpha", "beta", "gamma"), flow.rows):
        _holds(f"{name} follows the orthogonal flow", row)
    u_back, v_back = riccati_invert(alpha, beta, gamma)
    _holds("inversion recovers u", u_back - u)
    _holds("inversion recovers v", v_back - v)
    table3 = table.extended(
        {"u": data.rhs(Sym("u")), "y": normalize(-data.omega1 * Sym("u")) * Sym("y")}
    )
    data3 = so3_to_riccati(OrthogonalSystem(f, g, h, table3))
    b, c = data3.linear_form()
    y = Sym("y")
    dy = differentiate(y, table3)
    _holds("y solves the linear form", differentiate(dy, table3) + b * dy + c * y)
    return _report("riccati-parametrization", 0.0, 0.0)


def check_susy_oscillator(seed: int, config: VerifyConfig) -> dict:
    pair = partner_potentials(X)
    _holds("V- = x^2 - 1", pair.v_minus - (X ** 2 - 1))
    _holds("V+ = x^2 + 1", pair.v_plus - (X ** 2 + 1))
    states, table = oscillator_states(5, order=2)
    mf2 = matrix_formalism(pair, 2, table)
    _holds("V+ = V- + 2N at order 2", mf2.v_plus - (mf2.v_minus + mf2.minus_n.scale(const(2))))
    mf3 = matrix_formalism(pair, 3)
    _holds("V+ = V- + 2N at order 3", mf3.v_plus - (mf3.v_minus + mf3.minus_n.scale(const(2))))
    psi0 = Sym("psi0")
    for n, state in enumerate(states):
        _holds(f"state {n} is H_{n} psi0", state[0] - normalize(hermite(n) * psi0))
        _holds(f"state {n} has energy {2 * n}",
               residual(mf2.system(2 * n), ExprMatrix([[e] for e in state])))
    return _report("susy-oscillator", 0.0, 0.0)


def check_applications(seed: int, config: VerifyConfig) -> dict:
    from .numverify import _residual_sweeps, companion_solution_grids

    rng = Random(seed)
    table = DerivationTable(
        {**symbol_tower("kappa", 4), **symbol_tower("tau", 4), **symbol_tower("w1", 4)}
    )
    kappa, tau, w1 = sym("kappa"), sym("tau"), sym("w1")
    frenet_q = frenet_family(kappa, None, "Q", table)
    _holds("Frenet Q q = -1", frenet_q.q + 1)
    frenet_s = frenet_family(kappa, tau, "S", table)
    _holds("Frenet S w = 2/(i kappa - tau)", frenet_s.w - 2 / (I * kappa - tau))
    _holds("Frenet S q = (kappa^2 + tau^2)/4", frenet_s.q - (kappa ** 2 + tau ** 2) / 4)
    rigid_q = rigid_family(w1, None, "Q", table)
    _holds("rigid Q q = 1 - i omega1", rigid_q.q - (1 - I * w1))
    rigid_s = rigid_family(w1, None, "S", table)
    _holds("rigid S w = -2/omega1", rigid_s.w + 2 / w1)
    _holds("rigid S q = omega1^2/4", rigid_s.q - w1 ** 2 / 4)
    # one family per sampled route, over the sample's parameters, lifted
    # once: the route constraint and the lift then hold for every binding,
    # the lift by its frame record and its Sym2 solution
    a, b, c, d, e = (param(name) for name in "abcde")
    omega2 = a + b * X
    lifted = []
    for name, route, family in (
        ("rigid Q", "Q", rigid_family(None, omega2, "Q")),
        ("Frenet S", "S", frenet_family(normalize(c + d * X), normalize(e * X), "S")),
    ):
        pair = orthogonal_lift(family, route)[1]
        for part, res in pair.residuals():
            _holds(f"{name} {part}", res)
        lifted.append((family, pair))
    rigid, frenet = lifted
    # five rigid Q then five Frenet S bindings, each drawn with its m
    cases = [(rigid, {"a": rng.randint(1, 4), "b": rng.randint(-2, 2) / 4,
                      "m": rng.uniform(-1, 1)}) for _ in range(5)]
    cases += [(frenet, {"c": rng.randint(2, 4), "d": rng.randint(-1, 1) / 4,
                        "e": rng.randint(-2, 2) / 3, "m": rng.uniform(-1, 1)})
              for _ in range(5)]
    grids = companion_solution_grids(
        [(family, bindings) for (family, _), bindings in cases], config.interval, config.step,
    )
    indices = grids[0].sample_indices(5)
    # one sweep per route, over the grids of its five bindings
    worst = max(
        value
        for route in lifted
        for value in _residual_sweeps(
            route[1].matrix, route[1].system,
            [(grid, bindings) for (owner, bindings), grid in zip(cases, grids) if owner is route],
            indices,
        )
    )
    return _report("applications", float(worst), NUMERIC_TOLERANCE,
                   seed=seed, samples=len(indices))


def check_orientation_mutation(seed: int, config: VerifyConfig) -> dict:
    from .numverify import companion_solution_grid, residual_sweep

    fam = _unit_family()
    ortho, pair = orthogonal_lift(fam, "Q")
    flipped = LinearSystem(ortho.skew(), pair.system.table)
    grid = companion_solution_grid(fam, config.interval, config.step, {"m": 0})
    value = residual_sweep(
        pair.matrix, flipped, grid, grid.sample_indices(5), bindings={"m": 0},
    )
    return _report("orientation-mutation", float(value), 1e-2, mode="min")


# check "a-b" is the function check_a_b
CHECKS: dict[str, Callable[[int, VerifyConfig], dict]] = {
    name: globals()["check_" + name.replace("-", "_")] for name in CHECK_NAMES
}


def run_checks(names: Iterable[str] | None = None,
               seed: int = DEFAULT_SEED,
               config: VerifyConfig | None = None) -> dict:
    """Run the named checks (every check by default); an identity that
    fails inside a check becomes that check's failed report."""
    config = config or DEFAULT_CONFIG
    selected = list(names) if names else list(CHECKS)
    unknown = [n for n in selected if n not in CHECKS]
    if unknown:
        raise KeyError(f"unknown checks: {unknown}")
    reports = []
    for name in selected:
        start = time.perf_counter()
        try:
            reports.append(CHECKS[name](seed, config))
        except IdentityFailed as exc:
            reports.append(_report(name, 1.0, 0.0, identity=exc.identity, residual=exc.residual))
        log.debug("%s: %s in %.3f s", name, "pass" if reports[-1]["pass"] else "fail",
                  time.perf_counter() - start)
    return {
        "seed": seed,
        "step": config.step,
        "interval": list(config.interval),
        "checks": reports,
        "pass": all(r["pass"] for r in reports),
    }
