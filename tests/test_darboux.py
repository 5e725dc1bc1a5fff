import pytest

from darbouxkit import darboux
from darbouxkit.expr import (
    DerivationTable,
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
from darbouxkit.darboux import (
    SeedNotSolution,
    attach_generic_seed,
    auto_level_seed,
    darboux_chain,
    darboux_gauge,
    darboux_potential,
    darboux_solution,
    darboux_transformation,
    make_seed,
    potential_compact,
    potential_shift,
)
from darbouxkit.linsys import (
    ExprMatrix,
    SecondOrderFamily,
    companion,
)
from conftest import (
    failed_part, generic_family, m_split, oscillator_family, schrodinger_family,
)


def test_seed_requires_riccati_certificate():
    fam = oscillator_family()
    make_seed(fam, -X)  # theta0 = -x certifies y0 = exp(-x^2/2)
    with pytest.raises(SeedNotSolution):
        make_seed(fam, X ** 2)


def test_potential_schrodinger_shape():
    # p = 0, r = 1 reduces the shift to 2*theta0'
    table = DerivationTable(symbol_tower("q", 4))
    fam, seed = attach_generic_seed(
        schrodinger_family(sym("q"), table)
    )
    q0 = potential_shift(fam, seed)
    assert equal(q0, 2 * differentiate(seed.theta0, fam.table))


def test_potential_oscillator():
    fam = oscillator_family()
    seed = make_seed(fam, -X)
    new = darboux_potential(fam, seed)
    assert equal(new.q, -(X ** 2) - 1)


def test_potential_constant_seed_fixed_point():
    # theta0 = c constant with q = -c^2: the shift vanishes
    c = param("c")
    fam = schrodinger_family(-(c * c))
    seed = make_seed(fam, c)
    new = darboux_potential(fam, seed)
    assert equal(new.q, fam.q)


def test_potential_matches_compact_form_generic():
    fam, seed = attach_generic_seed(generic_family())
    lhs = normalize(fam.q + potential_shift(fam, seed))
    rhs = potential_compact(fam, seed)
    assert equal(lhs, rhs)


def test_potential_r_not_one_concrete():
    # q = 0, r = x^2, theta0 = 1/x (seed y0 = x): the shift is -6/x^2.
    table = DerivationTable({})
    fam = SecondOrderFamily(
        p=ZERO, q=ZERO, r=X ** 2, w=ONE, table=table, sqrt_r=X
    )
    seed = make_seed(fam, 1 / X)
    q0 = potential_shift(fam, seed)
    assert equal(q0, -6 / X ** 2)
    assert equal(potential_compact(fam, seed), ZERO + q0)


def test_solution_map_hermite_level_one():
    # y = H1 e^{-x^2/2} maps to 2 e^{-x^2/2}, checked via the residual
    fam = oscillator_family()
    seed = make_seed(fam, -X)
    psi0 = Sym("psi0")
    table = fam.table.extended({"psi0": -X * psi0})
    y = 2 * X * psi0
    new_fam = darboux_potential(fam, seed)
    ytilde = darboux_solution(fam, seed, y, table)
    assert equal(ytilde, 2 * psi0)
    # residual under the transformed operator at m = -2 (the level of y)
    ypp = differentiate(differentiate(ytilde, table), table)
    res = normalize(ypp + (new_fam.q - const(-2) * new_fam.r) * ytilde)
    assert is_zero(res)


def test_solution_map_annihilates_seed():
    fam, seed = attach_generic_seed(generic_family())
    y0 = Sym("y0")
    table = fam.table.extended({"y0": seed.theta0 * y0})
    assert is_zero(darboux_solution(fam, seed, y0, table))


def test_solution_map_symbolic_residual():
    # fully symbolic covariance: the image of a generic solution of the
    # family solves the transformed family, identically in m
    fam, seed = attach_generic_seed(generic_family())
    (pair,), table = fam.solution_symbols("ym")
    ym, _ = pair
    new_fam = darboux_potential(fam, seed)
    ytilde = darboux_solution(fam, seed, ym, table)
    d1 = differentiate(ytilde, table)
    d2 = differentiate(d1, table)
    res = normalize(d2 + new_fam.p * d1 + new_fam.q_effective() * ytilde)
    assert is_zero(res)


def test_gauge_susy_shape():
    # p = 0, r = 1, theta0 = -W, m = -lambda gives [[W, 1], [W^2 - lambda, W]]
    w_sym = Sym("W")
    table = DerivationTable(symbol_tower("W", 3))
    fam = SecondOrderFamily(
        p=ZERO,
        q=normalize(-(w_sym ** 2) + differentiate(w_sym, DerivationTable(symbol_tower("W", 3)))),
        r=ONE,
        w=ONE,
        table=table,
    )
    seed = make_seed(fam, -w_sym)
    g = darboux_gauge(fam, seed)
    lam = param("lambda")
    subst = {"m": -lam}
    specialized = g.p_m.map(lambda e: substitute(e, subst))
    expected = ExprMatrix(
        [[w_sym, ONE], [w_sym ** 2 - lam, w_sym]]
    )
    assert specialized.equals(expected)


def test_gauge_determinants():
    fam, seed = attach_generic_seed(generic_family())
    g = darboux_gauge(fam, seed)
    m = fam.m
    assert equal(g.p_m.det(), -m)
    assert equal(g.l_m.det() * g.r_factor.det(), -m)
    assert g.p_m.equals((g.l_m @ g.r_factor).normalized())


def test_gauge_degenerates_exactly_at_level():
    fam, seed = attach_generic_seed(generic_family())
    g = darboux_gauge(fam, seed)
    det_at_zero = substitute(g.p_m.det(), {"m": ZERO})
    assert is_zero(det_at_zero)


def test_gauge_reproduces_transformed_companion():
    # X -> P X carries the companion system to the transformed family's,
    # with det P = -m; a record whose target is its source fails at the gauge
    fam, seed = attach_generic_seed(generic_family())
    t = darboux_transformation(fam, seed)
    assert t.gauge.equals(darboux_gauge(fam, seed).p_m)
    assert t.source.a.equals(companion(fam).a)
    assert t.target.a.equals(companion(darboux_potential(fam, seed)).a)
    assert equal(t.det, -fam.m)
    assert failed_part(t) is None
    assert failed_part(t.replace(target=t.source)) == "gauge"


def test_darboux_record_at_a_nonzero_level():
    # the oscillator chain's second step certifies -x at level -2: det P = -2 - m
    osc = oscillator_family()
    fam = darboux_potential(osc, make_seed(osc, -X))
    t = darboux_transformation(fam, auto_level_seed(fam, -X))
    assert equal(t.det, -2 - fam.m)
    assert failed_part(t) is None


def test_record_with_a_wrong_det_fails_before_its_gauge_residual(monkeypatch):
    def no_residual(*args):
        raise AssertionError("the gauge residual was computed")

    fam, seed = attach_generic_seed(generic_family())
    t = darboux_transformation(fam, seed)
    monkeypatch.setattr(darboux, "gauge_residual", no_residual)
    assert failed_part(t.replace(det=t.det + 1)) == "det"


def test_first_order_link_generic():
    # y~' - rho y~ = m sqrt(r) y for a generic symbolic solution
    fam, seed = attach_generic_seed(generic_family())
    (pair,), table = fam.solution_symbols("ym")
    ym, _ = pair
    ytilde = darboux_solution(fam, seed, ym, table)
    link = normalize(
        differentiate(ytilde, table) - seed.rho * ytilde - fam.m * fam.sqrt_r * ym
    )
    assert is_zero(link)


def test_shape_preservation_coefficients():
    fam, seed = attach_generic_seed(generic_family())
    new = darboux_potential(fam, seed)
    _, pert = m_split(companion(new).a, fam.m_name)
    assert equal(pert[1, 0], -sym("r"))
    assert new.p is fam.p
    assert new.r is fam.r


def _at_levels(theta0, *levels):
    """Seed rule certifying ``theta0`` at ``levels[i]`` in step i."""
    return lambda family, idx: (family, make_seed(family, theta0, levels[idx]))


def test_chain_oscillator_sequence():
    fam = oscillator_family()
    steps = darboux_chain(fam, _at_levels(-X, ZERO, const(-2), const(-4)), 3)
    got = [step.family.q for step in steps]
    expected = [-(X ** 2) + 1, -(X ** 2) - 1, -(X ** 2) - 3, -(X ** 2) - 5]
    assert all(equal(a, b) for a, b in zip(got, expected))


def test_chain_zero_steps():
    fam = oscillator_family()
    steps = darboux_chain(fam, _at_levels(-X), 0)
    assert len(steps) == 1
    assert steps[0].family is fam
    assert steps[0].seed is None


def test_chain_reports_failing_step():
    fam = oscillator_family()
    with pytest.raises(SeedNotSolution) as err:
        darboux_chain(fam, _at_levels(-X, ZERO, ZERO), 2)
    assert "step 1" in str(err.value)


def test_chain_first_order_link_each_step():
    fam = oscillator_family()
    steps = darboux_chain(fam, _at_levels(-X, ZERO, const(-2)), 2)
    for step in steps[:-1]:
        family, seed = step.family, step.seed
        (pair,), table = family.solution_symbols("ym")
        ym, _ = pair
        ytilde = darboux_solution(family, seed, ym, table)
        link = normalize(
            differentiate(ytilde, table)
            - seed.rho * ytilde
            - (family.m - seed.level) * family.sqrt_r * ym
        )
        assert is_zero(link)
