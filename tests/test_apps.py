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
from darbouxkit.apps import FrenetData, RigidData, application_chain
from darbouxkit.darboux import auto_level_seed, generic_seed
from darbouxkit.linsys import ExprMatrix, gauge_residual
from darbouxkit.numverify import (
    companion_solution_grid,
    drift,
    integrate,
    residual_sweep,
)
from darbouxkit.tensordt import (
    FRAME_DATUM,
    RouteConstraintViolated,
    first_integral_orthogonal,
    lifted_factors,
    orthogonal_lift,
    skew_matrix,
    so3_first_complete,
)


def _sym_tables(*names, depth=4):
    entries = {}
    for n in names:
        entries.update(symbol_tower(n, depth))
    return DerivationTable(entries)


# -- constructors and identifications -----------------------------------------


def test_frenet_q_route_requires_fixed_torsion():
    table = _sym_tables("kappa")
    with pytest.raises(RouteConstraintViolated):
        FrenetData(kappa=sym("kappa"), tau=ZERO, route="Q", table=table).family()
    data = FrenetData(kappa=sym("kappa"), tau=-2 * I, route="Q", table=table)
    family = data.family()
    assert equal(family.q, const(-1))
    assert equal(family.p, I * sym("kappa"))
    # flow vector reproduces (tau, 0, kappa) at m = 0
    ortho, _ = orthogonal_lift(family, "Q")
    f, g, h = (substitute(e, {"m": ZERO}) for e in ortho.omega)
    assert equal(f, -2 * I) and is_zero(g) and equal(h, sym("kappa"))


def test_frenet_s_route_identification():
    table = _sym_tables("kappa", "tau")
    kappa, tau = sym("kappa"), sym("tau")
    data = FrenetData(kappa=kappa, tau=tau, route="S", table=table)
    family = data.family()
    eta = I * kappa - tau
    assert equal(family.w, 2 / eta)
    assert equal(family.q, (kappa ** 2 + tau ** 2) / 4)
    ortho, _ = orthogonal_lift(family, "S")
    f, g, h = (substitute(e, {"m": ZERO}) for e in ortho.omega)
    assert equal(f, tau) and is_zero(g) and equal(h, kappa)


def test_frenet_s_route_rejects_degenerate_eta():
    with pytest.raises(RouteConstraintViolated):
        FrenetData(kappa=ONE, tau=I, route="S").family()


def test_rigid_q_route_identification():
    table = _sym_tables("w1")
    w1 = sym("w1")
    data = RigidData(omega1=w1, omega2=normalize(2 - I * w1), route="Q", table=table)
    family = data.family()
    assert equal(family.q, 1 - I * w1)
    ortho, _ = orthogonal_lift(family, "Q")
    f, g, h = (substitute(e, {"m": ZERO}) for e in ortho.omega)
    assert equal(f, w1) and equal(g, 2 - I * w1) and is_zero(h)
    with pytest.raises(RouteConstraintViolated):
        RigidData(omega1=w1, omega2=ZERO, route="Q", table=table).family()


def test_q_completion_puts_the_vector_on_the_route():
    # either of f and g completes the other onto f == i (g - 2)
    w1 = sym("w1")
    for f, g in (so3_first_complete(w1, None), so3_first_complete(None, w1)):
        assert is_zero(f - I * (g - 2))
    assert so3_first_complete(w1, ONE) == (w1, ONE)
    with pytest.raises(ValueError, match="needs f or g"):
        so3_first_complete(None, None)


def test_rigid_s_route_identification():
    table = _sym_tables("w1")
    w1 = sym("w1")
    data = RigidData(omega1=w1, omega2=ZERO, route="S", table=table)
    family = data.family()
    assert equal(family.w, -2 / w1)
    assert equal(family.q, w1 ** 2 / 4)
    ortho, _ = orthogonal_lift(family, "S")
    f, g, h = (substitute(e, {"m": ZERO}) for e in ortho.omega)
    assert equal(f, w1) and is_zero(g) and is_zero(h)
    with pytest.raises(RouteConstraintViolated):
        RigidData(omega1=w1, omega2=ONE, route="S", table=table).family()
    with pytest.raises(RouteConstraintViolated):
        RigidData(omega1=ZERO, omega2=ZERO, route="S", table=table).family()


@pytest.mark.parametrize("make", [
    lambda: FrenetData(sym("kappa"), sym("tau"), "T"),
    lambda: RigidData(sym("w1"), ZERO, "q"),
])
def test_unknown_route_is_rejected_when_built(make):
    with pytest.raises(ValueError, match="unknown route"):
        make()


def test_frenet_q_route_without_curvature_has_unit_datum():
    family = FrenetData(ZERO, -2 * I, "Q").family()
    assert family.w is ONE and is_zero(family.p)
    assert FRAME_DATUM not in family.table


# -- perturbations -------------------------------------------------------------


def test_perturbation_shapes():
    table = _sym_tables("kappa", "tau", "w1")
    rigid, _ = orthogonal_lift(
        RigidData(sym("w1"), normalize(2 - I * sym("w1")), "Q", table).family(), "Q"
    )
    base, pert = rigid.m_split("m")
    n3 = ExprMatrix([[ZERO, ZERO, const(-1)], [ZERO, ZERO, I], [ONE, -I, ZERO]])
    assert pert.equals(n3)
    assert base.equals(rigid.system().a.map(lambda e: substitute(e, {"m": ZERO})))
    frame = FrenetData(sym("kappa"), sym("tau"), "S", table).family()
    frenet, _ = orthogonal_lift(frame, "S")
    _, pert_s = frenet.m_split("m")
    w = frame.w
    n3_hat = ExprMatrix(
        [[ZERO, I * w, ZERO], [-I * w, ZERO, -w], [ZERO, w, ZERO]]
    ).normalized()
    assert pert_s.equals(n3_hat)


def test_perturbed_base_is_frame_matrix():
    # at m = 0 the lifted system is exactly the frame system Z' = Z x Omega
    table = _sym_tables("kappa", "tau")
    kappa, tau = sym("kappa"), sym("tau")
    ortho, _ = orthogonal_lift(FrenetData(kappa, tau, "S", table).family(), "S")
    base, _ = ortho.m_split("m")
    frame_flow = skew_matrix(tau, ZERO, kappa)
    assert base.equals(frame_flow.scale(const(-1)).normalized())


# -- chains --------------------------------------------------------------------


def test_rigid_chain_step_one_matches_closed_form():
    table = _sym_tables("w1")
    family = RigidData(sym("w1"), normalize(2 - I * sym("w1")), "Q", table).family()
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
    assert links[0].transform.equals(expected.normalized())


def test_rigid_chain_step_one_factorization():
    table = _sym_tables("w1")
    family = RigidData(sym("w1"), normalize(2 - I * sym("w1")), "Q", table).family()
    links = application_chain(family, "Q", generic_seed, 1)
    fam, seed = links[0].family, links[0].seed
    left, right = lifted_factors(fam, seed, "Q")
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
    assert links[0].transform.equals((left @ right).normalized())


def test_frenet_chain_step_one_matches_closed_form():
    table = _sym_tables("kappa", "tau")
    kappa, tau = sym("kappa"), sym("tau")
    family = FrenetData(kappa, tau, "S", table).family()
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
    assert links[0].transform.equals(expected.normalized())


def test_chain_length_zero_returns_base():
    table = _sym_tables("w1")
    family = RigidData(sym("w1"), normalize(2 - I * sym("w1")), "Q", table).family()
    links = application_chain(family, "Q", generic_seed, 0)
    assert len(links) == 1
    assert links[0].family is family
    assert links[0].transform is None


def test_chain_steps_stay_skew_with_fixed_perturbation():
    table = _sym_tables("w1")
    family = RigidData(sym("w1"), normalize(2 - I * sym("w1")), "Q", table).family()
    links = application_chain(family, "Q", generic_seed, 2)
    n3 = ExprMatrix([[ZERO, ZERO, const(-1)], [ZERO, ZERO, I], [ONE, -I, ZERO]])
    for link in links:
        base, pert = link.orthogonal.m_split("m")
        assert pert.equals(n3)
        assert (base + base.transpose()).is_zero_matrix()


# -- numeric checks ------------------------------------------------------------


def _sweep_application(data, bindings):
    family = data.family()
    _, pair = orthogonal_lift(family, data.route)
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
    value = _sweep_application(FrenetData(kappa, -2 * I, "Q", table), {"m": 0.7})
    assert value <= 1e-8


def test_frenet_s_route_circle_numeric():
    # unit circle kappa = 1, tau = 0: the equation is y'' + y/4 = 0
    data = FrenetData(ONE, ZERO, "S", DerivationTable())
    family = data.family()
    assert equal(family.q, rat(1, 4))
    assert is_zero(family.p)
    value = _sweep_application(data, {"m": -0.3})
    assert value <= 1e-8
    # first integral stays put along the integrated orthogonal flow
    traj = integrate(
        orthogonal_lift(family, "S")[0].system(), [1.0, 0.5j, -0.25], (0.0, 1.0), 1e-3, {"m": 0.4}
    )
    value = drift(first_integral_orthogonal(), traj, ("alpha", "beta", "gamma"))
    assert value <= 1e-8


def test_rigid_q_route_numeric():
    # omega2 = 2, omega1 = 0: q = 1, solutions are trigonometric
    data = RigidData(ZERO, const(2), "Q", DerivationTable())
    family = data.family()
    assert equal(family.q, ONE)
    value = _sweep_application(data, {"m": 0.2})
    assert value <= 1e-8
    traj = integrate(orthogonal_lift(family, "Q")[0].system(), [1.0, 0, 0], (0.0, 1.0), 1e-3, {"m": 0})
    assert drift(first_integral_orthogonal(), traj, ("alpha", "beta", "gamma")) <= 1e-9


def test_rigid_s_route_numeric():
    # omega1 = 2 + x/2 stays away from zero on [0, 1]
    data = RigidData(normalize(2 + X / 2), ZERO, "S", DerivationTable())
    value = _sweep_application(data, {"m": -0.6})
    assert value <= 1e-8


def test_parametric_rigid_q_sweep_fails_on_one_wrong_binding():
    # one application over params a, b; its grid is integrated at one
    # binding, and changing a, b or m alone must fail the sweep
    omega2 = param("a") + param("b") * X
    family = RigidData(normalize(-I * (2 - omega2)), normalize(omega2), "Q").family()
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
    family = RigidData(normalize(-I * X ** 2), normalize(2 - X ** 2), "Q").family()
    links = application_chain(family, "Q", lambda fam, _: (fam, auto_level_seed(fam, -X)), 2)
    assert [to_sexpr(link.seed.level) for link in links[:-1]] == ["0", "-2"]
    for link, nxt in zip(links, links[1:]):
        certificate = gauge_residual(link.orthogonal.system(), link.transform,
                                     nxt.orthogonal.system())
        assert certificate.is_zero_matrix()


def test_chain_transforms_compose():
    # T1 T0 carries link 0's orthogonal system to link 2's; T0 alone does not
    family = RigidData(normalize(-I * X ** 2), normalize(2 - X ** 2), "Q").family()
    links = application_chain(family, "Q", lambda fam, _: (fam, auto_level_seed(fam, -X)), 2)
    first, last = links[0].orthogonal.system(), links[2].orthogonal.system()
    product = links[1].transform @ links[0].transform
    assert gauge_residual(first, product, last).is_zero_matrix()
    assert not gauge_residual(first, links[0].transform, last).is_zero_matrix()
