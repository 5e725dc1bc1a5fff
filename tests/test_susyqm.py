from dataclasses import replace

import pytest

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
from darbouxkit import susyqm
from darbouxkit.darboux import Transformation, darboux_potential, make_seed
from darbouxkit.linsys import ExprMatrix, SecondOrderFamily, companion
from darbouxkit.sympow import sym_system
from darbouxkit.susyqm import (
    FirstOrderOp,
    NotShapeInvariant,
    ParametricPotential,
    hermite,
    matrix_formalism,
    oscillator_states,
    potential_matrix,
    partner_potentials,
    raising_op,
    shape_invariance,
    spectrum_sum,
    superpotential,
)
from darbouxkit.tensordt import lifted_factors, lifted_matrix
from conftest import failed_part


def test_superpotential_examples():
    # psi0 = exp(-x^2/2) has theta0 = -x; psi0 = const has theta0 = 0;
    # psi0 = exp(-x^3/3) has theta0 = -x^2
    assert equal(superpotential(-X), X)
    assert is_zero(superpotential(ZERO))
    assert equal(superpotential(-(X ** 2)), X ** 2)


def test_partner_potentials_oscillator():
    pair = partner_potentials(X)
    assert equal(pair.v_minus, X ** 2 - 1)
    assert equal(pair.v_plus, X ** 2 + 1)


def test_partner_potentials_degenerate_and_quartic():
    pair0 = partner_potentials(ZERO)
    assert is_zero(pair0.v_minus) and is_zero(pair0.v_plus)
    pair2 = partner_potentials(X ** 2)
    assert equal(pair2.v_minus, X ** 4 - 2 * X)
    assert equal(pair2.v_plus, X ** 4 + 2 * X)


def test_factorization_identities_generic():
    # (-d+W)(d+W) y == (-d2 + V-) y and (d+W)(-d+W) y == (-d2 + V+) y
    table = DerivationTable({**symbol_tower("W", 2), **symbol_tower("y", 2)})
    w, y = sym("W"), sym("y")
    pair = partner_potentials(w, table)
    lower, raise_ = FirstOrderOp(ONE, w), raising_op(w)  # d/dx + W, -d/dx + W
    lhs_minus = raise_.apply(lower.apply(y, table), table)
    ypp = differentiate(differentiate(y, table), table)
    assert is_zero(lhs_minus - normalize(-ypp + pair.v_minus * y))
    lhs_plus = lower.apply(raise_.apply(y, table), table)
    assert is_zero(lhs_plus - normalize(-ypp + pair.v_plus * y))


def test_darboux_consistency_with_partner_map():
    # with p = 0, r = 1, theta0 = -W, the potential map sends -V- to -V+
    table = DerivationTable(symbol_tower("W", 3))
    w = Sym("W")
    pair = partner_potentials(w, table)
    fam = SecondOrderFamily(
        p=ZERO, q=normalize(-pair.v_minus), r=ONE, w=ONE, table=table
    )
    seed = make_seed(fam, -w)
    new = darboux_potential(fam, seed)
    assert equal(new.q, -pair.v_plus)


def test_matrix_formalism_order2_oscillator():
    pair = partner_potentials(X)
    mf = matrix_formalism(pair, 2)
    assert mf.v_minus.equals(ExprMatrix([[ZERO, ONE], [X ** 2 - 1, ZERO]]))
    assert mf.v_plus.equals(
        mf.v_minus + ExprMatrix([[ZERO, ZERO], [const(2), ZERO]])
    )
    assert mf.v_plus.equals(mf.v_minus + mf.minus_n.scale(const(2)))


def test_matrix_formalism_order3_oscillator():
    pair = partner_potentials(X)
    mf = matrix_formalism(pair, 3)
    remainder = ExprMatrix(
        [[ZERO, ZERO, ZERO], [const(4), ZERO, ZERO], [ZERO, const(2), ZERO]]
    )
    assert mf.v_plus.equals(mf.v_minus + remainder)
    assert mf.v_plus.equals(mf.v_minus + mf.minus_n.scale(const(2)))


def test_matrix_formalism_generic_remainder():
    table = DerivationTable(symbol_tower("W", 2))
    pair = partner_potentials(sym("W"), table)
    wp = differentiate(sym("W"), table)
    for order in (2, 3, 4, 5):
        mf = matrix_formalism(pair, order, table)
        assert mf.v_plus.equals(mf.v_minus + mf.minus_n.scale(2 * wp))


def test_matrix_formalism_zero_superpotential():
    pair = partner_potentials(ZERO)
    mf = matrix_formalism(pair, 2)
    assert mf.v_plus.equals(mf.v_minus)


def test_matrix_formalism_rejects_order_below_two():
    pair = partner_potentials(X)
    message = "matrix formalism order must be at least 2, got 1"
    with pytest.raises(ValueError, match=message):
        matrix_formalism(pair, 1)
    with pytest.raises(ValueError, match=message):
        potential_matrix(X, 1)
    with pytest.raises(ValueError, match=message):
        oscillator_states(2, order=1)


def test_hamiltonian_apply_rejects_unknown_side():
    states, table = oscillator_states(0)
    mf = matrix_formalism(partner_potentials(X), 2, table)
    assert mf.hamiltonian_apply("plus", states[0], table)
    with pytest.raises(ValueError, match="which must be 'minus' or 'plus', got 'mins'"):
        mf.hamiltonian_apply("mins", states[0], table)


def _at_m(mat, value):
    """The ladder matrix at the family parameter ``m = value`` (energy ``-value``)."""
    return mat.map(lambda e: substitute(e, {"m": const(value)}))


def test_ladder_matrices_annihilate_and_raise_ground_state():
    # the lowering ladder at m = 0 kills the ground state in both
    # formalisms; the order-2 raising ladder at m = -2 (the ground
    # state's V+ energy) maps state 0 to state 1
    states2, table = oscillator_states(1, order=2)
    pair = partner_potentials(X)
    mf2 = matrix_formalism(pair, 2, table)
    lowered = _at_m(mf2.lowering.gauge, 0).apply(states2[0])
    assert all(is_zero(e) for e in lowered)
    raised = _at_m(mf2.raising.gauge, -2).apply(states2[0])
    assert all(equal(a, b) for a, b in zip(raised, states2[1]))
    states3, table3 = oscillator_states(0, order=3)
    mf3 = matrix_formalism(pair, 3, table3)
    lowered3 = _at_m(mf3.lowering.gauge, 0).apply(states3[0])
    assert all(is_zero(e) for e in lowered3)


def test_matrix_formalism_builds_ladders_on_first_use(monkeypatch):
    def no_transformation(family, seed):
        raise AssertionError("a ladder was built")

    monkeypatch.setattr(susyqm, "darboux_transformation", no_transformation)
    mf = matrix_formalism(partner_potentials(X), 3)
    with pytest.raises(AssertionError, match="a ladder was built"):
        mf.lowering


def _partner_families(order):
    table = DerivationTable(symbol_tower("W", 3))
    pair = partner_potentials(sym("W"), table)
    minus, plus = (
        SecondOrderFamily(p=ZERO, q=normalize(-v), r=ONE, w=ONE, table=table)
        for v in (pair.v_minus, pair.v_plus)
    )
    return matrix_formalism(pair, order, table), minus, plus


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_ladders_intertwine_symmetric_powers(order):
    # Sym^k A- carries V- solutions to V+ solutions and Sym^k A+ carries
    # them back, on the Lie-sense powers of both companions
    k = order - 1
    mf, minus, plus = _partner_families(order)
    sym_minus, sym_plus = sym_system(companion(minus), k), sym_system(companion(plus), k)
    lowering, raising = mf.lowering, mf.raising
    for t, source, target in ((lowering, sym_minus, sym_plus), (raising, sym_plus, sym_minus)):
        assert t.source.a.equals(source.a) and t.target.a.equals(target.a)
        assert is_zero(t.det - (-minus.m) ** (k * (k + 1) // 2))
        assert failed_part(t) is None
    dim = lowering.gauge.nrows
    product = raising.gauge @ lowering.gauge
    assert product.equals(ExprMatrix.identity(dim).scale((-minus.m) ** k))


def test_rank_one_dressing_is_no_intertwiner():
    # the former order-2 lowering dressing (psi, psi') -> (A psi, W A psi)
    # is singular, and the intertwining identity rejects it
    mf, minus, plus = _partner_families(2)
    w = sym("W")
    dressing = Transformation(companion(minus), ExprMatrix([[w, ONE], [w * w, w]]),
                              companion(plus), ZERO)
    assert failed_part(dressing) == "gauge"
    assert failed_part(replace(dressing, gauge=mf.lowering.gauge, det=-minus.m)) is None


@pytest.mark.parametrize("order", [2, 3, 4])
def test_ladders_step_oscillator_states(order):
    # state n has V- energy 2n and V+ energy 2n + 2, so E = -m puts
    # raising at m = -(2n + 2) and lowering at m = -2n
    k = order - 1
    states, table = oscillator_states(4, order=order)
    mf = matrix_formalism(partner_potentials(X), order, table)
    assert all(is_zero(e) for e in _at_m(mf.lowering.gauge, 0).apply(states[0]))
    for n in range(4):
        raised = _at_m(mf.raising.gauge, -(2 * n + 2)).apply(states[n])
        assert all(equal(a, b) for a, b in zip(raised, states[n + 1])), n
        lowered = _at_m(mf.lowering.gauge, -(2 * n + 2)).apply(states[n + 1])
        assert all(equal(a, (2 * n + 2) ** k * b) for a, b in zip(lowered, states[n])), n


def test_shape_invariance_oscillator_scaled():
    # W = a x: V-(x; a) = a^2 x^2 - a, f(a) = a, remainder 2a
    a = param("a")
    pot = ParametricPotential(w=a * X, a_name="a", f=a, remainder=2 * a)
    shift = shape_invariance(pot)
    assert equal(shift, 2 * a)


def test_shape_invariance_failure_quartic():
    a = param("a")
    pot = ParametricPotential(w=a * X ** 2, a_name="a", f=a)
    with pytest.raises(NotShapeInvariant) as err:
        shape_invariance(pot)
    assert err.value.residual is not None


def test_shape_invariance_rejects_wrong_remainder():
    a = param("a")
    pot = ParametricPotential(w=a * X, a_name="a", f=a, remainder=3 * a)
    with pytest.raises(NotShapeInvariant):
        shape_invariance(pot)


def test_spectrum_accumulation():
    a = param("a")
    pot = ParametricPotential(w=a * X, a_name="a", f=a, remainder=2 * a)
    for n in (0, 1, 4):
        total = spectrum_sum(pot, n)
        assert equal(total, 2 * n * a)
        assert equal(substitute(total, {"a": ONE}), const(2 * n))


def test_spectrum_sum_rejects_negative_steps():
    a = param("a")
    pot = ParametricPotential(w=a * X, a_name="a", f=a, remainder=2 * a)
    with pytest.raises(ValueError, match="number of ladder steps must be nonnegative, got -3"):
        spectrum_sum(pot, -3)


def test_hermite_recurrence_and_derivative():
    assert equal(hermite(0), ONE)
    assert equal(hermite(1), 2 * X)
    assert equal(hermite(2), 4 * X ** 2 - 2)
    # independent identity: H_n' = 2 n H_{n-1}
    for n in range(1, 7):
        assert equal(differentiate(hermite(n)), 2 * n * hermite(n - 1))


def test_oscillator_ground_state_vector():
    states, table = oscillator_states(0)
    psi0 = Sym("psi0")
    assert equal(states[0][0], psi0)
    assert equal(states[0][1], -X * psi0)


def test_oscillator_states_are_hermite_multiples():
    states, _ = oscillator_states(5)
    psi0 = Sym("psi0")
    for n, state in enumerate(states):
        assert equal(state[0], normalize(hermite(n) * psi0))


def test_oscillator_eigen_residual_order2():
    states, table = oscillator_states(5, order=2)
    pair = partner_potentials(X)
    mf = matrix_formalism(pair, 2, table)
    for n, state in enumerate(states):
        h_state = mf.hamiltonian_apply("minus", state, table)
        e_state = mf.energy(const(2 * n)).apply(state)
        assert all(is_zero(a - b) for a, b in zip(h_state, e_state)), n


def test_oscillator_eigen_residual_order3():
    states, table = oscillator_states(5, order=3)
    pair = partner_potentials(X)
    mf = matrix_formalism(pair, 3, table)
    for n, state in enumerate(states):
        h_state = mf.hamiltonian_apply("minus", state, table)
        e_state = mf.energy(const(2 * n)).apply(state)
        assert all(is_zero(a - b) for a, b in zip(h_state, e_state)), n


@pytest.mark.parametrize("order", [4, 5])
def test_oscillator_eigen_residual_higher_orders(order):
    states, table = oscillator_states(3, order=order)
    assert len(states[0]) == order
    mf = matrix_formalism(partner_potentials(X), order, table)
    for n, state in enumerate(states):
        h_state = mf.hamiltonian_apply("minus", state, table)
        e_state = mf.energy(const(2 * n)).apply(state)
        assert all(is_zero(a - b) for a, b in zip(h_state, e_state)), n


def test_susy_p1_specializes_to_three_by_three_closed_form():
    # the lifted transformation specializes to the classical 3x3
    # matrix with its lambda-block times W-block factorization
    table = DerivationTable(symbol_tower("W", 3))
    w = Sym("W")
    pair = partner_potentials(w, table)
    fam = SecondOrderFamily(
        p=ZERO, q=normalize(-pair.v_minus), r=ONE, w=ONE, table=table
    )
    seed = make_seed(fam, -w)
    lam = Sym("lam")
    to_lambda = lambda e: substitute(e, {"m": -lam})
    got = lifted_matrix(fam, seed, "Q", "sym2").map(to_lambda)
    expected = ExprMatrix(
        [
            [w ** 2, w, ONE],
            [2 * w * (w ** 2 - lam), 2 * w ** 2 - lam, 2 * w],
            [(w ** 2 - lam) ** 2, w * (w ** 2 - lam), w ** 2],
        ]
    )
    assert got.equals(expected)
    left, right = (mat.map(to_lambda) for mat in lifted_factors(fam, seed, "Q", "sym2"))
    expected_left = ExprMatrix(
        [
            [ZERO, ZERO, ONE],
            [ZERO, -lam, 2 * w],
            [lam ** 2, -lam * w, w ** 2],
        ]
    )
    expected_right = ExprMatrix(
        [
            [ONE, ZERO, ZERO],
            [2 * w, ONE, ZERO],
            [w ** 2, w, ONE],
        ]
    )
    assert left.equals(expected_left)
    assert right.equals(expected_right)
