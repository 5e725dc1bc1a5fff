import pytest

from darbouxkit.expr import (
    DerivationTable,
    ONE,
    X,
    ZERO,
    const,
    equal,
    is_zero,
    sym,
    symbol_tower,
)
from darbouxkit.linsys import (
    ExprMatrix,
    GaugeMatrix,
    LinearSystem,
    SecondOrderFamily,
    SingularGauge,
    companion,
    companion_matrices,
    gauge,
    residual,
    system_from_json,
    system_to_json,
)
from darbouxkit.sympow import sym_group
from conftest import (
    generic_family,
    oscillator_family,
    random_rational_matrix,
)


def test_matrix_inverse_roundtrip(rng):
    for _ in range(10):
        m = random_rational_matrix(rng, 3, invertible=True)
        assert (m @ m.inverse()).normalized().equals(ExprMatrix.identity(3))


def test_matrix_inverse_roundtrip_four_by_four(rng):
    # Sym^3 of a 2x2 matrix is 4x4, the size `sympow system --power 3` builds
    for _ in range(3):
        m = sym_group(random_rational_matrix(rng, 2, invertible=True), 3)
        assert (m @ m.inverse()).normalized().equals(ExprMatrix.identity(4))


def test_companion_oscillator():
    fam = oscillator_family()
    sys = companion(fam)
    m = fam.m
    expected = ExprMatrix([[ZERO, const(-1)], [-(X ** 2) + 1 - m, ZERO]])
    assert sys.a.equals(expected)


def test_companion_free_particle():
    fam = SecondOrderFamily(
        p=ZERO, q=ZERO, r=ONE, w=ONE, table=DerivationTable()
    )
    sys = companion(fam)
    a_at_zero = ExprMatrix(
        [[e for e in row] for row in sys.a.rows]
    ).map(lambda e: e)
    from darbouxkit.expr import substitute

    a0 = sys.a.map(lambda e: substitute(e, {"m": ZERO}))
    assert a0.equals(ExprMatrix([[ZERO, const(-1)], [ZERO, ZERO]]))


def test_companion_nilpotent_part():
    fam = generic_family()
    _, n = companion_matrices(fam)
    assert (n @ n).is_zero_matrix()


def test_gauge_identity():
    fam = oscillator_family()
    sys = companion(fam)
    gauged = gauge(sys, GaugeMatrix(ExprMatrix.identity(2)))
    assert gauged.a.equals(sys.a)


def test_gauge_diagonal_w_gives_traceless_form():
    # X = Delta^{-1} X1 with Delta = diag(1, w) sends the companion
    # matrix to B0 + m N1 = [[0, -1/w], [w(q - m r), 0]], which is traceless.
    fam = generic_family()
    sys = companion(fam)
    w = sym("w")
    delta = ExprMatrix.diagonal([ONE, w])
    gauged = gauge(sys, GaugeMatrix(delta.inverse(), delta))
    m = fam.m
    expected = ExprMatrix(
        [
            [ZERO, -1 / w],
            [w * (sym("q") - m * sym("r")), ZERO],
        ]
    )
    assert gauged.a.equals(expected)
    assert is_zero(gauged.a.trace())


def test_entrywise_arithmetic_rejects_mismatched_shapes():
    square = ExprMatrix([[1, 2], [3, 4]])
    for other in (ExprMatrix([[1]]), ExprMatrix([[1, 2]]), ExprMatrix([[1], [2]])):
        with pytest.raises(ValueError, match="size mismatch"):
            square - other
        with pytest.raises(ValueError, match="size mismatch"):
            square + other
    assert (square - square).is_zero_matrix()
    assert (square + square).equals(square.scale(2))


def test_gauge_singular_rejected():
    with pytest.raises(SingularGauge):
        GaugeMatrix(ExprMatrix([[ONE, ONE], [ONE, ONE]]))


def test_residual_fundamental_matrix_zero():
    fam = generic_family()
    fundamental, table = fam.fundamental_matrix()
    assert fundamental.equals(ExprMatrix([[sym("y1"), sym("y2")], [sym("y1_p"), sym("y2_p")]]))
    sys = LinearSystem(companion(fam).a, table)
    assert residual(sys, fundamental).is_zero_matrix()


@pytest.mark.parametrize("clash", ["y1", "y1_p", "y2_p"])
def test_solution_symbols_never_replace_a_family_symbol(clash):
    # a table entry would be overwritten; a symbol of p, q, r or w would
    # silently become a solution
    table = DerivationTable(symbol_tower(clash, 2))
    for fam in (
        SecondOrderFamily(p=ZERO, q=ONE, r=ONE, w=ONE, table=table),
        SecondOrderFamily(p=ZERO, q=sym(clash), r=ONE, w=ONE, table=DerivationTable()),
    ):
        with pytest.raises(ValueError, match=f"solution symbol '{clash}' is already"):
            fam.fundamental_matrix()


def test_residual_identity_on_zero_system():
    table = DerivationTable()
    sys = LinearSystem(ExprMatrix.zeros(2), table)
    assert residual(sys, ExprMatrix.identity(2)).is_zero_matrix()


def test_residual_detects_perturbation():
    fam = generic_family()
    (y1_pair, y2_pair), table = fam.solution_symbols("y1", "y2")
    y1, y1p = y1_pair
    y2, y2p = y2_pair
    sys = LinearSystem(companion(fam).a, table)
    wrong = ExprMatrix([[y1 + X, y2], [y1p, y2p]])
    res = residual(sys, wrong)
    assert not res.is_zero_matrix()


def test_gauge_composition(rng):
    table = DerivationTable(symbol_tower("q", 2))
    sys = LinearSystem(
        ExprMatrix([[sym("q"), ONE], [ZERO, const(2)]]), table
    )
    for _ in range(5):
        p = GaugeMatrix(random_rational_matrix(rng, 2, invertible=True))
        r = GaugeMatrix(random_rational_matrix(rng, 2, invertible=True))
        pr = GaugeMatrix(p.p @ r.p)
        lhs = gauge(sys, pr)
        rhs = gauge(gauge(sys, p), r)
        assert lhs.a.equals(rhs.a)


def test_gauge_then_inverse(rng):
    table = DerivationTable(symbol_tower("q", 2))
    sys = LinearSystem(ExprMatrix([[sym("q"), X], [ONE, ZERO]]), table)
    # a non-constant gauge exercises the P^{-1} P' term
    p = GaugeMatrix(ExprMatrix([[ONE, X], [ZERO, ONE]]))
    back = gauge(gauge(sys, p), p.inv())
    assert back.a.equals(sys.a)


def test_gauge_trace_identity(rng):
    table = DerivationTable(symbol_tower("q", 2))
    sys = LinearSystem(ExprMatrix([[sym("q"), X], [ONE, ZERO]]), table)
    p_mat = ExprMatrix([[ONE, X ** 2], [ZERO, const(3)]])
    p = GaugeMatrix(p_mat)
    gauged = gauge(sys, p)
    lhs = gauged.a.trace() - sys.a.trace()
    rhs = (p.p_inv @ p.p.diff(table)).trace()
    assert equal(lhs, rhs)


def test_json_round_trip():
    fam = oscillator_family()
    sys = companion(fam)
    blob = system_to_json(sys)
    back = system_from_json(blob)
    assert back.a.equals(sys.a)
    assert system_to_json(back) == blob


def test_family_validates_p_w_link():
    with pytest.raises(ValueError):
        SecondOrderFamily(
            p=X, q=ZERO, r=ONE, w=ONE, table=DerivationTable()
        )


def test_family_rejects_zero_r():
    with pytest.raises(ValueError):
        SecondOrderFamily(
            p=ZERO, q=ZERO, r=ZERO, w=ONE, table=DerivationTable()
        )
