import pytest

from darbouxkit.expr import (
    DerivationTable,
    I,
    ONE,
    Sym,
    X,
    ZERO,
    const,
    equal,
    is_zero,
    normalize,
    param,
    rat,
    substitute,
    sym,
    symbol_tower,
    to_sexpr,
)
from darbouxkit.apps import application_chain, frenet_family, rigid_family
from darbouxkit.darboux import Transformation, auto_level_seed, darboux_gauge, generic_seed
from darbouxkit.linsys import ExprMatrix, family_to_json, residual
from darbouxkit.sympow import sym_group
from darbouxkit.numverify import (
    companion_solution_grid,
    drift,
    integrate,
    residual_sweep,
)
from darbouxkit.tensordt import (
    FRAME_DATUM,
    ROUTES,
    RouteConstraintViolated,
    first_integral_orthogonal,
    orthogonal_lift,
    skew_matrix,
)
from conftest import failed_part, m_split


def _sym_tables(*names, depth=4):
    entries = {}
    for n in names:
        entries.update(symbol_tower(n, depth))
    return DerivationTable(entries)


# -- constructors and identifications -----------------------------------------


def test_frenet_q_route_requires_fixed_torsion():
    table = _sym_tables("kappa")
    with pytest.raises(RouteConstraintViolated):
        frenet_family(kappa=sym("kappa"), tau=ZERO, route="Q", table=table)
    family = frenet_family(kappa=sym("kappa"), tau=-2 * I, route="Q", table=table)
    assert equal(family.q, const(-1))
    assert equal(family.p, I * sym("kappa"))
    # flow vector reproduces (tau, 0, kappa) at m = 0
    ortho, _ = orthogonal_lift(family, "Q")
    f, g, h = (substitute(e, {"m": ZERO}) for e in ortho.omega)
    assert equal(f, -2 * I) and is_zero(g) and equal(h, sym("kappa"))


def test_frenet_s_route_identification():
    table = _sym_tables("kappa", "tau")
    kappa, tau = sym("kappa"), sym("tau")
    family = frenet_family(kappa=kappa, tau=tau, route="S", table=table)
    eta = I * kappa - tau
    assert equal(family.w, 2 / eta)
    assert equal(family.q, (kappa ** 2 + tau ** 2) / 4)
    ortho, _ = orthogonal_lift(family, "S")
    f, g, h = (substitute(e, {"m": ZERO}) for e in ortho.omega)
    assert equal(f, tau) and is_zero(g) and equal(h, kappa)


def test_frenet_s_route_rejects_degenerate_eta():
    with pytest.raises(RouteConstraintViolated):
        frenet_family(kappa=ONE, tau=I, route="S")


def test_rigid_q_route_identification():
    table = _sym_tables("w1")
    w1 = sym("w1")
    family = rigid_family(omega1=w1, omega2=normalize(2 - I * w1), route="Q", table=table)
    assert equal(family.q, 1 - I * w1)
    ortho, _ = orthogonal_lift(family, "Q")
    f, g, h = (substitute(e, {"m": ZERO}) for e in ortho.omega)
    assert equal(f, w1) and equal(g, 2 - I * w1) and is_zero(h)
    with pytest.raises(RouteConstraintViolated):
        rigid_family(omega1=w1, omega2=ZERO, route="Q", table=table)


W1 = sym("w1")


@pytest.mark.parametrize("route, vector", [
    ("Q", (W1, None, sym("kappa"))),
    ("Q", (None, W1, ZERO)),
    ("S", (W1, None, sym("kappa"))),
], ids=["q-completes-g", "q-completes-f", "s-completes-g"])
def test_route_family_completes_the_component_its_constraint_fixes(route, vector):
    # the completed vector lies on the route: its system gives it back
    # at m = 0, with the given components unchanged
    family = ROUTES[route].family(*vector, _sym_tables("w1", "kappa"))
    f, g, h = (substitute(e, {"m": ZERO}) for e in ROUTES[route].system(family).omega)
    assert all(equal(given, back) for given, back in zip(vector, (f, g, h)) if given is not None)
    assert is_zero(f - I * (g - 2)) if route == "Q" else is_zero(g)


@pytest.mark.parametrize("route, vector, message", [
    ("Q", (W1, None, None), "the Q route needs h"),
    ("Q", (None, None, ZERO), "the Q route needs one of f, g"),
    ("Q", (None, None, None), "the Q route needs h"),
    ("S", (None, ZERO, ZERO), "the S route needs f"),
    ("S", (W1, None, None), "the S route needs h"),
    ("S", (None, None, None), "the S route needs f"),
], ids=["q-without-h", "q-without-f-or-g", "q-without-any", "s-without-f", "s-without-h",
        "s-without-any"])
def test_route_family_rejects_a_component_no_constraint_supplies(route, vector, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ROUTES[route].family(*vector, _sym_tables("w1"))


@pytest.mark.parametrize("build, completed, by_hand", [
    (frenet_family, (sym("kappa"), None, "Q"), (sym("kappa"), -2 * I, "Q")),
    (rigid_family, (W1, None, "Q"), (W1, normalize(2 - I * W1), "Q")),
    (rigid_family, (None, W1, "Q"), (normalize(-I * (2 - W1)), W1, "Q")),
    (rigid_family, (W1, None, "S"), (W1, ZERO, "S")),
], ids=["frenet-q-without-tau", "rigid-q-from-omega1", "rigid-q-from-omega2",
        "rigid-s-without-omega2"])
def test_completed_application_family_is_the_hand_completed_one(build, completed, by_hand):
    table = _sym_tables("kappa", "w1")
    a, b = build(*completed, table), build(*by_hand, table)
    assert (a.p, a.q, a.r, a.w) == (b.p, b.q, b.r, b.w)
    assert family_to_json(a) == family_to_json(b)


def test_rigid_s_route_identification():
    table = _sym_tables("w1")
    w1 = sym("w1")
    family = rigid_family(omega1=w1, omega2=ZERO, route="S", table=table)
    assert equal(family.w, -2 / w1)
    assert equal(family.q, w1 ** 2 / 4)
    ortho, _ = orthogonal_lift(family, "S")
    f, g, h = (substitute(e, {"m": ZERO}) for e in ortho.omega)
    assert equal(f, w1) and is_zero(g) and is_zero(h)
    with pytest.raises(RouteConstraintViolated):
        rigid_family(omega1=w1, omega2=ONE, route="S", table=table)
    with pytest.raises(RouteConstraintViolated):
        rigid_family(omega1=ZERO, omega2=ZERO, route="S", table=table)


@pytest.mark.parametrize("make", [
    lambda: frenet_family(sym("kappa"), sym("tau"), "T"),
    lambda: rigid_family(sym("w1"), ZERO, "q"),
])
def test_unknown_route_is_rejected_when_built(make):
    # an unknown route is a missing key of ROUTES, as in Route.lift
    with pytest.raises(KeyError):
        make()


def test_frenet_q_route_without_curvature_has_unit_datum():
    family = frenet_family(ZERO, -2 * I, "Q")
    assert family.w is ONE and is_zero(family.p)
    assert FRAME_DATUM not in family.table


# -- perturbations -------------------------------------------------------------


def test_perturbation_shapes():
    table = _sym_tables("kappa", "tau", "w1")
    rigid, _ = orthogonal_lift(
        rigid_family(sym("w1"), normalize(2 - I * sym("w1")), "Q", table), "Q"
    )
    _, pert = m_split(rigid.system().a)
    n3 = ExprMatrix([[ZERO, ZERO, const(-1)], [ZERO, ZERO, I], [ONE, -I, ZERO]])
    assert pert.equals(n3)
    frame = frenet_family(sym("kappa"), sym("tau"), "S", table)
    frenet, _ = orthogonal_lift(frame, "S")
    _, pert_s = m_split(frenet.system().a)
    w = frame.w
    n3_hat = ExprMatrix(
        [[ZERO, I * w, ZERO], [-I * w, ZERO, -w], [ZERO, w, ZERO]]
    ).normalized()
    assert pert_s.equals(n3_hat)


def test_perturbed_base_is_frame_matrix():
    # at m = 0 the lifted system is exactly the frame system Z' = Z x Omega
    table = _sym_tables("kappa", "tau")
    kappa, tau = sym("kappa"), sym("tau")
    ortho, _ = orthogonal_lift(frenet_family(kappa, tau, "S", table), "S")
    base, _ = m_split(ortho.system().a)
    frame_flow = skew_matrix(tau, ZERO, kappa)
    assert base.equals(frame_flow.scale(const(-1)).normalized())


# -- chains --------------------------------------------------------------------


def test_rigid_chain_step_one_matches_closed_form():
    table = _sym_tables("w1")
    family = rigid_family(sym("w1"), normalize(2 - I * sym("w1")), "Q", table)
    links = application_chain(family, "Q", generic_seed, 1)
    assert len(links) == 2
    th = Sym("theta0_0")
    m = family.m
    nu = normalize(m + th * th)
    expected = ExprMatrix(
        [
            [-(nu ** 2) + 2 * th ** 2 - 1, I * (nu ** 2 - 1), 2 * th * (1 - nu)],
            [I * (nu ** 2 - 1), nu ** 2 + 2 * th ** 2 + 1, 2 * I * th * (1 + nu)],
            [2 * th * (nu - 1), -2 * I * th * (nu + 1), 2 * (nu + th ** 2)],
        ]
    ).scale(rat(1, 2))
    assert links[0].transform.gauge.equals(expected.normalized())


def test_rigid_chain_step_one_factorization():
    table = _sym_tables("w1")
    family = rigid_family(sym("w1"), normalize(2 - I * sym("w1")), "Q", table)
    links = application_chain(family, "Q", generic_seed, 1)
    fam, seed = links[0].family, links[0].seed
    g, (k, k_inv) = darboux_gauge(fam, seed), ROUTES["Q"].frame(fam)
    left = (k @ sym_group(g.l_m, 2)).normalized()
    right = (sym_group(g.r_factor, 2) @ k_inv).normalized()
    th = Sym("theta0_0")
    m = fam.m
    expected_left = ExprMatrix(
        [
            [-(m ** 2), th * m, -(th ** 2) + 1],
            [I * m ** 2, -I * th * m, I + I * th ** 2],
            [ZERO, -m, 2 * th],
        ]
    )
    expected_right = ExprMatrix(
        [
            [rat(1, 2), -I / 2, ZERO],
            [-th, I * th, const(-1)],
            [(th ** 2 - 1) / 2, -I * (th ** 2 + 1) / 2, th],
        ]
    )
    assert left.equals(expected_left.normalized())
    assert right.equals(expected_right.normalized())
    assert links[0].transform.gauge.equals((left @ right).normalized())


def test_frenet_chain_step_one_matches_closed_form():
    table = _sym_tables("kappa", "tau")
    kappa, tau = sym("kappa"), sym("tau")
    family = frenet_family(kappa, tau, "S", table)
    links = application_chain(family, "S", generic_seed, 1)
    fam, seed = links[0].family, links[0].seed
    th = Sym("theta0_0")
    eta = normalize(I * kappa - tau)
    eta_p = normalize(I * Sym("kappa_d1") - Sym("tau_d1"))
    # rho = -theta0 + eta'/eta on this route
    assert equal(seed.rho, -th + eta_p / eta)
    rho, nu, m = seed.rho, seed.nu, fam.m
    assert equal(nu, m - th * rho)
    e2, e2i = eta ** 2, 1 / eta ** 2
    expected = ExprMatrix(
        [
            [
                e2 / 4 + rho ** 2 + th ** 2 + 4 * nu ** 2 * e2i,
                I * (th * eta - 4 * nu * rho / eta),
                I * (e2 / 4 + rho ** 2 - th ** 2 - 4 * nu ** 2 * e2i),
            ],
            [
                I * (rho * eta - 4 * nu * th / eta),
                2 * (nu - rho * th),
                -(rho * eta + 4 * nu * th / eta),
            ],
            [
                I * (e2 / 4 - rho ** 2 + th ** 2 - 4 * nu ** 2 * e2i),
                -(th * eta + 4 * nu * rho / eta),
                -e2 / 4 + rho ** 2 + th ** 2 - 4 * nu ** 2 * e2i,
            ],
        ]
    ).scale(rat(1, 2))
    assert links[0].transform.gauge.equals(expected.normalized())


def test_chain_length_zero_returns_base():
    table = _sym_tables("w1")
    family = rigid_family(sym("w1"), normalize(2 - I * sym("w1")), "Q", table)
    links = application_chain(family, "Q", generic_seed, 0)
    assert len(links) == 1
    assert links[0].family is family
    assert links[0].transform is None


def test_chain_steps_stay_skew_with_fixed_perturbation():
    table = _sym_tables("w1")
    family = rigid_family(sym("w1"), normalize(2 - I * sym("w1")), "Q", table)
    links = application_chain(family, "Q", generic_seed, 2)
    n3 = ExprMatrix([[ZERO, ZERO, const(-1)], [ZERO, ZERO, I], [ONE, -I, ZERO]])
    for link in links:
        base, pert = m_split(link.orthogonal.system().a)
        assert pert.equals(n3)
        assert (base + base.transpose()).is_zero_matrix()


# -- numeric checks ------------------------------------------------------------


def _sweep_application(family, route, bindings):
    _, pair = orthogonal_lift(family, route)
    grid = companion_solution_grid(family, bindings=bindings)
    return residual_sweep(
        pair.matrix,
        pair.system,
        grid,
        grid.sample_indices(5),
        bindings=bindings,
    )


def test_frenet_q_route_numeric_sweep():
    # kappa = 2 + x/2 with the registered frame datum integrated alongside
    table = DerivationTable()
    kappa = normalize(2 + X / 2)
    value = _sweep_application(frenet_family(kappa, -2 * I, "Q", table), "Q", {"m": 0.7})
    assert value <= 1e-8


def test_frenet_s_route_circle_numeric():
    # unit circle kappa = 1, tau = 0: the equation is y'' + y/4 = 0
    family = frenet_family(ONE, ZERO, "S", DerivationTable())
    assert equal(family.q, rat(1, 4))
    assert is_zero(family.p)
    value = _sweep_application(family, "S", {"m": -0.3})
    assert value <= 1e-8
    # first integral stays put along the integrated orthogonal flow
    traj = integrate(
        orthogonal_lift(family, "S")[0].system(), [1.0, 0.5j, -0.25], (0.0, 1.0), 1e-3, {"m": 0.4}
    )
    value = drift(first_integral_orthogonal(), traj, ("alpha", "beta", "gamma"))
    assert value <= 1e-8


def test_rigid_q_route_numeric():
    # omega2 = 2, omega1 = 0: q = 1, solutions are trigonometric
    family = rigid_family(ZERO, const(2), "Q", DerivationTable())
    assert equal(family.q, ONE)
    value = _sweep_application(family, "Q", {"m": 0.2})
    assert value <= 1e-8
    traj = integrate(orthogonal_lift(family, "Q")[0].system(), [1.0, 0, 0], (0.0, 1.0), 1e-3, {"m": 0})
    assert drift(first_integral_orthogonal(), traj, ("alpha", "beta", "gamma")) <= 1e-9


def test_rigid_s_route_numeric():
    # omega1 = 2 + x/2 stays away from zero on [0, 1]
    family = rigid_family(normalize(2 + X / 2), ZERO, "S", DerivationTable())
    value = _sweep_application(family, "S", {"m": -0.6})
    assert value <= 1e-8


def test_parametric_rigid_q_sweep_fails_on_one_wrong_binding():
    # one application over params a, b; its grid is integrated at one
    # binding, and changing a, b or m alone must fail the sweep
    omega2 = param("a") + param("b") * X
    family = rigid_family(normalize(-I * (2 - omega2)), normalize(omega2), "Q")
    _, pair = orthogonal_lift(family, "Q")
    bindings = {"a": 2, "b": 0.25, "m": 0.4}
    grid = companion_solution_grid(family, bindings=bindings)

    def sweep(**changed):
        return residual_sweep(pair.matrix, pair.system, grid,
                              grid.sample_indices(5), {**bindings, **changed})

    assert sweep() <= 1e-8
    for changed in ({"a": 3}, {"b": -0.25}, {"m": -0.4}):
        assert sweep(**changed) > 1e-2, changed


def test_explicit_seed_chain_certifies_each_step_at_its_level():
    family = rigid_family(normalize(-I * X ** 2), normalize(2 - X ** 2), "Q")
    links = application_chain(family, "Q", lambda fam, _: (fam, auto_level_seed(fam, -X)), 2)
    assert [to_sexpr(link.seed.level) for link in links[:-1]] == ["0", "-2"]
    for link, nxt in zip(links, links[1:]):
        assert link.transform.target.a.equals(nxt.orthogonal.system().a)
        assert failed_part(link.transform) is None


def test_chain_transforms_compose():
    # T1 T0 carries link 0's orthogonal system to link 2's; T0 alone does not
    family = rigid_family(normalize(-I * X ** 2), normalize(2 - X ** 2), "Q")
    links = application_chain(family, "Q", lambda fam, _: (fam, auto_level_seed(fam, -X)), 2)
    t0, t1 = links[0].transform, links[1].transform
    product = Transformation(t0.source, t1.gauge @ t0.gauge, t1.target, t0.det * t1.det)
    assert failed_part(product) is None
    assert failed_part(t0.replace(target=t1.target)) == "gauge"


# each application on each route, with a nonzero third component on the
# Frenet Q chain, so that its frame datum w is not 1
CHAIN_APPLICATIONS = {
    "rigid-q": lambda t: rigid_family(sym("w1"), normalize(2 - I * sym("w1")), "Q", t),
    "rigid-s": lambda t: rigid_family(sym("w1"), None, "S", t),
    "frenet-q": lambda t: frenet_family(sym("kappa"), None, "Q", t),
    "frenet-s": lambda t: frenet_family(sym("kappa"), sym("tau"), "S", t),
}


@pytest.mark.parametrize("application", CHAIN_APPLICATIONS)
def test_chain_records_certify(application):
    family = CHAIN_APPLICATIONS[application](_sym_tables("w1", "kappa", "tau"))
    route = application.split("-")[1].upper()
    links = application_chain(family, route, generic_seed, 2)
    first, t0, t1 = links[0], links[0].transform, links[1].transform
    # one system between consecutive records, and the route's lift as gauge
    assert t0.target is t1.source and links[2].transform is None
    p = darboux_gauge(first.family, first.seed).p_m
    assert t0.gauge.equals(ROUTES[route].lift(first.family, p))
    assert failed_part(t0) is None
    assert failed_part(t1) is None
    # negative control: link 0's gauge against link 2's system
    assert failed_part(t0.replace(target=t1.target)) == "gauge"


# -- the lift certificate: frame record and Sym2 solution ----------------------

# the four parametric application families of acceptance criterion 8, and
# the symbolic-tower Frenet S and rigid Q families of the applications check
def _linear():
    return normalize(param("a") + param("b") * X)


LIFT_APPLICATIONS = {
    "frenet-q": ("Q", lambda: frenet_family(_linear(), -2 * I, "Q")),
    "frenet-s": ("S", lambda: frenet_family(_linear(), normalize(param("c") * X), "S")),
    "rigid-q": ("Q", lambda: rigid_family(normalize(-I * (2 - _linear())), _linear(), "Q")),
    "rigid-s": ("S", lambda: rigid_family(_linear(), ZERO, "S")),
    "frenet-s-tower": ("S", lambda: frenet_family(
        sym("kappa"), sym("tau"), "S", _sym_tables("kappa", "tau"))),
    "rigid-q-tower": ("Q", lambda: rigid_family(sym("w1"), None, "Q", _sym_tables("w1"))),
}


def _lift(application):
    route, build = LIFT_APPLICATIONS[application]
    family = build()
    return route, family, orthogonal_lift(family, route)[1]


@pytest.mark.parametrize("application", LIFT_APPLICATIONS)
def test_lift_certificate_and_direct_residual_both_vanish(application):
    route, family, pair = _lift(application)
    assert [part for part, _ in pair.residuals()] == ["frame det", "frame gauge", "Sym2 Y"]
    assert failed_part(pair) is None
    assert residual(pair.system, pair.matrix).is_zero_matrix()
    # the pair is its frame record times the Sym2 solution
    assert pair.frame == ROUTES[route].transformation(family)
    assert pair.matrix.equals((pair.frame.gauge @ pair.sym2).normalized())


@pytest.mark.parametrize("application", ["frenet-q", "frenet-s"])
def test_lift_with_a_w_squared_frame_det_fails_at_frame_det(application):
    # both families have w != 1, so w^2 is not w^3
    route, family, pair = _lift(application)
    det_conj = ROUTES[route].conj.det()
    wrong = pair.frame.replace(det=det_conj * family.w ** 2)
    assert failed_part(pair.replace(frame=wrong)) == "frame det"


@pytest.mark.parametrize("application", ["frenet-s", "frenet-s-tower"])
def test_lift_with_wrong_frame_exponents_fails_at_frame_gauge(application):
    # K = S diag(1, w, w), given its own det, is invertible but no gauge
    _, family, pair = _lift(application)
    frame = ROUTES["S"].replace(exponents=(0, 1, 1)).transformation(family)
    frame = frame.replace(det=frame.gauge.det())
    assert failed_part(frame) == "gauge"
    assert failed_part(pair.replace(frame=frame)) == "frame gauge"


@pytest.mark.parametrize("application", ["rigid-q", "frenet-s"])
def test_lift_with_one_flipped_solution_entry_fails_at_sym2(application):
    _, _, pair = _lift(application)
    flipped = pair.table.extended({"y2_p": normalize(-pair.table.get("y2_p"))})
    bad = pair.replace(table=flipped)
    assert failed_part(bad) == "Sym2 Y"
    assert not residual(bad.system, bad.matrix).is_zero_matrix()
