import pytest

from darbouxkit.expr import (
    DerivationTable,
    I,
    ONE,
    Sym,
    ZERO,
    const,
    differentiate,
    equal,
    is_zero,
    normalize,
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
    Transformation,
    attach_generic_seed,
    darboux_gauge,
    darboux_potential,
    darboux_transformation,
    make_seed,
)
from darbouxkit import tensordt
from darbouxkit.tensordt import (
    FRAME_DATUM,
    NotTraceless,
    NotUnitNorm,
    OmegaOneZero,
    OrthogonalSystem,
    Q_GAUGE,
    Q_GAUGE_INV,
    ROUTES,
    RouteConstraintViolated,
    S_GAUGE,
    S_GAUGE_INV,
    first_integral_orthogonal,
    first_integral_sym2,
    flow_derivative,
    orthogonal_lift,
    p1_explicit,
    p2_explicit,
    riccati_invert,
    riccati_parametrize,
    skew_matrix,
    so3_from_sym2,
    so3_system_first,
    so3_system_second,
    so3_to_riccati,
    so3_vector_from_operator,
    sym2_from_so3,
    t1_explicit,
    t2_explicit,
)
from conftest import balanced_companion, failed_part, generic_family, m_split


import functools


@functools.lru_cache(maxsize=None)
def _generic_seeded():
    return attach_generic_seed(generic_family())


def test_constant_gauges_invert_exactly():
    assert (Q_GAUGE @ Q_GAUGE_INV).normalized().equals(ExprMatrix.identity(3))
    assert (S_GAUGE @ S_GAUGE_INV).normalized().equals(ExprMatrix.identity(3))


@pytest.mark.parametrize("route", ROUTES)
def test_route_frame_inverts_exactly(route):
    k, k_inv = ROUTES[route].frame(generic_family())
    assert (k @ k_inv).normalized().equals(ExprMatrix.identity(3))


@pytest.mark.parametrize("route", ROUTES)
def test_route_frame_is_a_gauge(route):
    # the frame record: K carries Sym2 of the companion system to the
    # route's orthogonal system; det Q = 2i and det S = 2, and either
    # frame adds w^3
    fam = generic_family()
    frame = ROUTES[route].transformation(fam)
    assert frame == Transformation(
        sym_system(companion(fam), 2),
        ROUTES[route].frame(fam)[0],
        ROUTES[route].system(fam).system(),
        frame.det,
    )
    assert equal(frame.det, {"Q": 2 * I, "S": const(2)}[route] * fam.w ** 3)
    assert failed_part(frame) is None


def test_records_compare_and_hash_by_their_entries():
    from darbouxkit import golden

    fam = generic_family()
    for make in (lambda: companion(fam), golden._oscillator,
                 lambda: ROUTES["S"].transformation(fam)):
        first, second = make(), make()
        assert first is not second
        assert first == second and hash(first) == hash(second)
    assert companion(fam) != companion(golden._oscillator())
    assert fam.table == generic_family().table != DerivationTable()
    # entries compare as trees; ``equals`` compares normal forms
    x = sym("x0")
    assert ExprMatrix([[x + x]]) != ExprMatrix([[2 * x]])
    assert ExprMatrix([[x + x]]).equals(ExprMatrix([[2 * x]]))


def test_q_conjugation_of_sym2_is_skew():
    # for generic traceless C, Q sym2(C) Q^{-1} is the cross-product matrix
    f, g, h = sym("f"), sym("g"), sym("h")
    c = ExprMatrix(
        [
            [I * h / 2, (g + I * f) / 2],
            [-(g - I * f) / 2, -I * h / 2],
        ]
    )
    lhs = (Q_GAUGE @ sym_lie(c, 2) @ Q_GAUGE_INV).normalized()
    assert lhs.equals(skew_matrix(f, g, h))


def test_so3_from_sym2_round_trip():
    f, g, h = sym("f"), sym("g"), sym("h")
    table = DerivationTable(
        {**symbol_tower("f", 2), **symbol_tower("g", 2), **symbol_tower("h", 2)}
    )
    sys = OrthogonalSystem(f, g, h, table)
    back = so3_from_sym2(sym2_from_so3(sys), table)
    assert all(equal(a, b) for a, b in zip(back.omega, sys.omega))


def test_so3_from_sym2_zero_and_traceless_guard():
    sys = so3_from_sym2(ExprMatrix.zeros(2))
    assert all(is_zero(e) for e in sys.omega)
    with pytest.raises(NotTraceless):
        so3_from_sym2(ExprMatrix.identity(2))


def test_operator_vector_satisfies_conjugation_identity():
    # the traceless shift of the companion matrix must map to (f, g, h):
    # this forces the -i p sign in the third slot
    table = DerivationTable({**symbol_tower("p", 2), **symbol_tower("q", 2)})
    p, q = sym("p"), sym("q")
    c = ExprMatrix([[p / 2, ONE], [-q, -p / 2]])
    sys = so3_from_sym2(c, table)
    f, g, h = so3_vector_from_operator(p, q)
    assert equal(sys.f, f) and equal(sys.g, g) and equal(sys.h, h)


# -- lifted transformation matrices -----------------------------------------


def _sym2_delta(fam):
    # Sym2(Delta) = diag(1, w, w^2) and its inverse, for Delta = diag(1, w)
    return tuple(sym_group(ExprMatrix.diagonal([ONE, e]), 2) for e in (fam.w, 1 / fam.w))


def _lifted(fam, seed, route):
    # T1 or T2: the route's lift of the Darboux gauge
    return ROUTES[route].lift(fam, darboux_gauge(fam, seed).p_m)


def _p1(fam, seed):
    # P1 = Sym2(P), the gauge of the Sym2 record of the transformation
    return darboux_transformation(fam, seed).sym(2).gauge


def _p2(fam, seed):
    # P2 = Sym2(Delta P Delta^-1) = Sym2(Delta) P1 Sym2(Delta)^-1, the gauge
    # between the squares of the Delta-balanced companion systems
    d2, d2_inv = _sym2_delta(fam)
    return (d2 @ _p1(fam, seed) @ d2_inv).normalized()


def _sym2_factors(fam, seed, route):
    # Sym2 of the factors L, R of P, rebalanced by Sym2(Delta) on route S
    g = darboux_gauge(fam, seed)
    left, right = sym_group(g.l_m, 2), sym_group(g.r_factor, 2)
    if route == "Q":
        return left, right
    d2, d2_inv = _sym2_delta(fam)
    return (d2 @ left).normalized(), (right @ d2_inv).normalized()


def _so3_factors(fam, seed, route):
    # K Sym2(L) and Sym2(R) K^-1, for K the route's frame
    g, (k, k_inv) = darboux_gauge(fam, seed), ROUTES[route].frame(fam)
    return ((k @ sym_group(g.l_m, 2)).normalized(),
            (sym_group(g.r_factor, 2) @ k_inv).normalized())


# each route's lift in Sym2 (P1, P2) and in so(3) (T1, T2): how it is
# built, its factors, and its independent closed form
PRESENTATIONS = {
    ("Q", "sym2"): (_p1, _sym2_factors, p1_explicit),
    ("S", "sym2"): (_p2, _sym2_factors, p2_explicit),
    ("Q", "so3"): (functools.partial(_lifted, route="Q"), _so3_factors, t1_explicit),
    ("S", "so3"): (functools.partial(_lifted, route="S"), _so3_factors, t2_explicit),
}


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("space", ("sym2", "so3"))
def test_lift_presentations_agree(route, space):
    fam, seed = _generic_seeded()
    build, factors, explicit = PRESENTATIONS[route, space]
    built = build(fam, seed)
    left, right = factors(fam, seed, route)
    assert built.equals(explicit(fam, seed))
    assert built.equals((left @ right).normalized())


def test_p1_determinant_is_minus_m_cubed():
    # P1 is the Sym2 record of the Darboux transformation, whose det rule
    # gives -m^3; test_diagram_commutes certifies it
    fam, seed = _generic_seeded()
    p1 = darboux_transformation(fam, seed).sym(2)
    assert p1.gauge.equals(sym_group(darboux_gauge(fam, seed).p_m, 2))
    assert p1.source.a.equals(sym_system(companion(fam), 2).a)
    assert p1.target.a.equals(sym_system(companion(darboux_potential(fam, seed)), 2).a)
    assert equal(p1.det, -(fam.m ** 3))


def test_p1_susy_specialization():
    # r = 1, p = 0, theta0 = -W, m = -lambda
    table = DerivationTable(symbol_tower("W", 3))
    w_ = Sym("W")
    fam = SecondOrderFamily(
        p=ZERO,
        q=normalize(-(w_ ** 2) + differentiate(w_, table)),
        r=ONE, w=ONE, table=table,
    )
    seed = make_seed(fam, -w_)
    lam = Sym("lam")
    got = _p1(fam, seed).map(lambda e: substitute(e, {"m": -lam}))
    expected = ExprMatrix(
        [
            [w_ ** 2, w_, ONE],
            [2 * w_ * (w_ ** 2 - lam), 2 * w_ ** 2 - lam, 2 * w_],
            [(w_ ** 2 - lam) ** 2, w_ * (w_ ** 2 - lam), w_ ** 2],
        ]
    )
    assert got.equals(expected)


def test_p2_reduces_to_p1_at_w_equal_one():
    fam, seed = _generic_seeded()
    def at_w1(e):
        return substitute(e, {"w": ONE, "p": ZERO})
    # w = 1 forces p = w'/w = 0; rho and nu already encode p so only the
    # explicit w occurrences matter for the reduction
    lhs = p2_explicit(fam, seed).map(at_w1)
    rhs = p1_explicit(fam, seed).map(at_w1)
    assert lhs.equals(rhs)


def test_p2_determinant_is_minus_m_cubed():
    fam, seed = _generic_seeded()
    m = fam.m
    assert equal(_p2(fam, seed).det(), -(m ** 3))


def test_t2_at_w_one_matches_s_conjugated_p1():
    fam, seed = _generic_seeded()
    def at_w1(e):
        return substitute(e, {"w": ONE, "p": ZERO})
    lhs = t2_explicit(fam, seed).map(at_w1)
    rhs = (S_GAUGE @ p1_explicit(fam, seed) @ S_GAUGE_INV).normalized().map(at_w1)
    assert lhs.equals(rhs)


def test_unknown_route_is_rejected():
    fam, seed = _generic_seeded()
    with pytest.raises(KeyError):
        _lifted(fam, seed, "T")


# -- diagrams ----------------------------------------------------------------


def _route_companion(fam, route):
    # the 2x2 system a route squares: the companion system on route Q and
    # the Delta-balanced one on route S
    return {"Q": companion, "S": balanced_companion}[route](fam)


@pytest.mark.parametrize("route", ROUTES)
def test_diagram_commutes(route):
    # the lifted transformation, with det -m^3, carries the lifted system
    # to the lift of the transformed system
    fam, seed = _generic_seeded()
    new_fam = darboux_potential(fam, seed)
    lifted = Transformation(
        sym_system(_route_companion(fam, route), 2),
        PRESENTATIONS[route, "sym2"][0](fam, seed),
        sym_system(_route_companion(new_fam, route), 2),
        -(fam.m ** 3),
    )
    assert failed_part(lifted) is None


@pytest.mark.parametrize("route", ROUTES)
def test_t_transforms_its_route_lift(route):
    fam, seed = _generic_seeded()
    lift = ROUTES[route].system
    lifted = Transformation(
        lift(fam).system(),
        _lifted(fam, seed, route),
        lift(darboux_potential(fam, seed)).system(),
        -(fam.m ** 3),
    )
    assert failed_part(lifted) is None


def test_cleared_identity_mutants_fail():
    # B G - G A + G' on the lifted Sym2 identity: the right form holds,
    # and flipping the sign of G' or writing A G for G A leaves a residual
    fam, seed = _generic_seeded()
    lifted = sym_system(companion(fam), 2)
    target = sym_system(companion(darboux_potential(fam, seed)), 2)
    g = _p1(fam, seed)
    a, b, g_prime = lifted.a, target.a, g.diff(lifted.table)
    assert gauge_residual(lifted, g, target).is_zero_matrix()
    assert not (b @ g - g @ a - g_prime).normalized().is_zero_matrix()
    assert not (b @ g - a @ g + g_prime).normalized().is_zero_matrix()


def test_shape_preservation_of_perturbations():
    # the m-coefficient of the orthogonal coefficient matrix is unchanged
    # by the transformation on both routes
    fam, seed = _generic_seeded()
    new_fam = darboux_potential(fam, seed)
    r = sym("r")
    n3 = ExprMatrix([[ZERO, ZERO, -r], [ZERO, ZERO, I * r], [r, -I * r, ZERO]])
    for f in (fam, new_fam):
        _, pert = m_split(so3_system_first(f).system().a)
        assert pert.equals(n3)
    w = sym("w")
    n3_hat = ExprMatrix(
        [[ZERO, I * w * r, ZERO], [-I * w * r, ZERO, -w * r], [ZERO, w * r, ZERO]]
    )
    for f in (fam, new_fam):
        _, pert = m_split(so3_system_second(f).system().a)
        assert pert.equals(n3_hat)


# -- fundamental matrices -----------------------------------------------------


def _companion_pair(fam):
    x_mat, table = fam.fundamental_matrix()
    return x_mat, LinearSystem(companion(fam).a, table)


def _balanced_pair(fam):
    # X1 = Delta X solves the Delta-balanced companion system
    x_mat, x_sys = _companion_pair(fam)
    d = ExprMatrix.diagonal([ONE, fam.w])
    return (d @ x_mat).normalized(), LinearSystem(balanced_companion(fam).a, x_sys.table)


def _sym2_pair(pair):
    mat, system = pair
    return sym_group(mat, 2), sym_system(system, 2)


def _orthogonal_pair(fam, route):
    pair = orthogonal_lift(fam, route)[1]
    return pair.matrix, pair.system


# each builder returns (fundamental matrix, the system it solves)
FUNDAMENTAL_PAIRS = {
    "companion": _companion_pair,
    "sym2": lambda fam: _sym2_pair(_companion_pair(fam)),
    "orthogonal": lambda fam: _orthogonal_pair(fam, "Q"),
    "balanced": _balanced_pair,
    "balanced_sym2": lambda fam: _sym2_pair(_balanced_pair(fam)),
    "orthogonal2": lambda fam: _orthogonal_pair(fam, "S"),
}


@pytest.mark.parametrize("name", FUNDAMENTAL_PAIRS)
def test_fundamental_pair_solves_its_system(name):
    matrix, system = FUNDAMENTAL_PAIRS[name](generic_family())
    assert residual(system, matrix).is_zero_matrix()


@pytest.mark.parametrize("route", ROUTES)
def test_orthogonal_lift_solves_the_route_closed_form(route):
    fam = generic_family()
    ortho, pair = orthogonal_lift(fam, route)
    assert pair.system.a.equals(ROUTES[route].system(fam).system().a)
    assert ortho.system().a.equals(pair.system.a)
    assert residual(pair.system, pair.matrix).is_zero_matrix()


def _vector_table():
    return DerivationTable({**symbol_tower("f", 4), **symbol_tower("g", 4),
                            **symbol_tower("h", 4)})


@pytest.mark.parametrize("route, vector, w", [
    ("Q", (I * (sym("g") - 2), sym("g"), sym("h")), Sym(FRAME_DATUM)),
    ("Q", (I * (sym("g") - 2), sym("g"), ZERO), ONE),
    ("S", (sym("f"), ZERO, sym("h")), 2 / (I * sym("h") - sym("f"))),
])
def test_route_family_inverts_the_route_system(route, vector, w):
    # the closed-form inverse against the independent closed-form lift:
    # system(family(v)) has the flow vector v at m = 0, exactly
    family = ROUTES[route].family(*vector, _vector_table())
    assert equal(family.w, w)
    ortho = ROUTES[route].system(family)
    for got, want in zip(ortho.omega, vector, strict=True):
        assert is_zero(substitute(got, {"m": ZERO}) - want)


@pytest.mark.parametrize("route, vector, message", [
    ("Q", (sym("f"), sym("g"), sym("h")), r"f == i\*\(g - 2\)"),
    ("S", (sym("f"), sym("g"), sym("h")), "g == 0"),
    ("S", (I * sym("h"), ZERO, sym("h")), r"i\*h - f != 0"),
])
def test_route_family_rejects_vectors_off_the_route(route, vector, message):
    with pytest.raises(RouteConstraintViolated, match=message):
        ROUTES[route].family(*vector, _vector_table())


def test_fundamental_orthogonal_structure():
    fam = generic_family()
    y1, y1p = Sym("y1"), Sym("y1_p")
    w = sym("w")
    z = orthogonal_lift(fam, "Q")[1].matrix
    assert equal(z[0, 0], w * (y1 ** 2 - y1p ** 2))
    assert equal(z[1, 0], I * w * (y1 ** 2 + y1p ** 2))
    assert equal(z[2, 0], -2 * w * y1 * y1p)
    z1 = orthogonal_lift(fam, "S")[1].matrix
    assert equal(z1[0, 0], y1 ** 2 + w ** 2 * y1p ** 2)
    assert equal(z1[1, 0], 2 * I * w * y1 * y1p)
    assert equal(z1[2, 0], I * (y1 ** 2 - w ** 2 * y1p ** 2))


def test_fundamental_conversions():
    fam = generic_family()
    w = sym("w")
    lhs = orthogonal_lift(fam, "Q")[1].matrix
    rhs = (Q_GAUGE @ FUNDAMENTAL_PAIRS["sym2"](fam)[0]).scale(w).normalized()
    assert lhs.equals(rhs)
    balanced_sym2 = FUNDAMENTAL_PAIRS["balanced_sym2"](fam)[0]
    assert orthogonal_lift(fam, "S")[1].matrix.equals((S_GAUGE @ balanced_sym2).normalized())


# -- first integrals ----------------------------------------------------------


def test_orthogonal_first_integral_symbolic():
    f, g, h = sym("f"), sym("g"), sym("h")
    table = DerivationTable(
        {**symbol_tower("f", 1), **symbol_tower("g", 1), **symbol_tower("h", 1)}
    )
    sys = OrthogonalSystem(f, g, h, table).system()
    drift = flow_derivative(sys, first_integral_orthogonal(), ("alpha", "beta", "gamma"))
    assert is_zero(drift)


def test_building_an_orthogonal_system_differentiates_nothing(monkeypatch):
    # the first integral holds for every skew flow and is proved once by
    # the test above; building a system must not prove it again
    def refuse(*args, **kwargs):
        raise AssertionError("an orthogonal system was differentiated while built")

    monkeypatch.setattr(tensordt, "flow_derivative", refuse)
    monkeypatch.setattr(tensordt, "differentiate", refuse)
    table = DerivationTable(
        {**symbol_tower("f", 1), **symbol_tower("g", 1), **symbol_tower("h", 1)}
    )
    system = OrthogonalSystem(sym("f"), sym("g"), sym("h"), table)
    assert system.omega == (sym("f"), sym("g"), sym("h"))
    fam = generic_family()
    for route in ROUTES.values():
        route.system(fam)
    so3_from_sym2(sym2_from_so3(system), table)


def test_sym2_first_integral_symbolic():
    fam = generic_family()
    lifted = sym_system(companion(fam), 2)
    drift = flow_derivative(lifted, first_integral_sym2(fam.w), ("z1", "z2", "z3"))
    assert is_zero(drift)


def test_sym2_first_integral_vanishes_on_rank_one_column():
    fam = generic_family()
    sym2 = FUNDAMENTAL_PAIRS["sym2"](fam)[0]
    col = [sym2[i, 0] for i in range(3)]
    value = substitute(
        first_integral_sym2(fam.w),
        {"z1": col[0], "z2": col[1], "z3": col[2]},
    )
    assert is_zero(value)


# -- Riccati parametrization ---------------------------------------------------


def test_riccati_coefficients():
    f, g, h = sym("f"), sym("g"), sym("h")
    sys = OrthogonalSystem(f, g, h, DerivationTable())
    data = so3_to_riccati(sys)
    assert equal(data.omega0, (g - I * f) / 2)
    assert equal(data.omega1, (g + I * f) / 2)
    assert equal(data.mu, -I * h)


def test_parametrization_unit_norm_identity():
    u, v = sym("u"), sym("v")
    alpha, beta, gamma = riccati_parametrize(u, v)
    assert equal(alpha * alpha + beta * beta + gamma * gamma, ONE)


def test_parametrized_solution_satisfies_flow():
    f, g, h = sym("f"), sym("g"), sym("h")
    table = DerivationTable(
        {**symbol_tower("f", 1), **symbol_tower("g", 1), **symbol_tower("h", 1)}
    )
    sys = OrthogonalSystem(f, g, h, table)
    data = so3_to_riccati(sys)
    u, v = Sym("u"), Sym("v")
    table = table.extended({"u": data.rhs(u), "v": data.rhs(v)})
    alpha, beta, gamma = riccati_parametrize(u, v)
    flow = sys.skew()
    state = [alpha, beta, gamma]
    for i in range(3):
        lhs = differentiate(state[i], table)
        rhs = normalize(sum((flow[i, j] * state[j] for j in range(3)), ZERO))
        assert is_zero(normalize(lhs - rhs))


def test_riccati_inversion_recovers_u_and_v():
    u, v = sym("u"), sym("v")
    alpha, beta, gamma = riccati_parametrize(u, v)
    u_back, v_back = riccati_invert(alpha, beta, gamma)
    assert equal(u_back, u)
    assert equal(v_back, v)
    with pytest.raises(NotUnitNorm):
        riccati_invert(sym("a"), sym("b"), sym("c"))


def test_riccati_inverse_alternate_forms_agree():
    u, v = sym("u"), sym("v")
    alpha, beta, gamma = riccati_parametrize(u, v)
    assert equal(
        normalize((alpha + I * beta) / (1 - gamma)),
        normalize((1 + gamma) / (alpha - I * beta)),
    )
    assert equal(
        normalize(-(1 - gamma) / (alpha - I * beta)),
        normalize(-(alpha + I * beta) / (1 + gamma)),
    )


def test_linear_form_agrees_with_riccati():
    # u = -(1/omega1) y'/y turns the Riccati certificate into the
    # second-order equation y'' + b y' + c y = 0
    f, g, h = sym("f"), sym("g"), sym("h")
    table = DerivationTable(
        {**symbol_tower("f", 2), **symbol_tower("g", 2), **symbol_tower("h", 2)}
    )
    sys = OrthogonalSystem(f, g, h, table)
    data = so3_to_riccati(sys)
    u, y = Sym("u"), Sym("y")
    table = table.extended(
        {"u": data.rhs(u), "y": normalize(-data.omega1 * u) * y}
    )
    data = so3_to_riccati(OrthogonalSystem(f, g, h, table))
    b, c = data.linear_form()
    ypp = differentiate(differentiate(y, table), table)
    res = normalize(ypp + b * differentiate(y, table) + c * y)
    assert is_zero(res)


def test_linear_form_rejects_zero_omega1():
    # g + i f == 0 kills the quadratic coefficient
    f = sym("f")
    sys = OrthogonalSystem(f, normalize(-I * f), sym("h"), DerivationTable())
    with pytest.raises(OmegaOneZero):
        so3_to_riccati(sys).linear_form()
