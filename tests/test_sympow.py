from fractions import Fraction

from darbouxkit.expr import (
    Const,
    DerivationTable,
    ONE,
    X,
    ZERO,
    const,
    differentiate,
    equal,
    is_zero,
    sym,
    symbol_tower,
)
from darbouxkit.darboux import Transformation
from darbouxkit.linsys import (
    ExprMatrix,
    LinearSystem,
    SecondOrderFamily,
    companion,
    residual,
)
from darbouxkit.sympow import (
    monomial_basis,
    sym2_operator,
    sym_group,
    sym_lie,
    sym_power_vector,
    sym_system,
)
from conftest import failed_part, generic_family, random_rational_matrix, transported


def test_monomial_basis_order():
    assert monomial_basis(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert monomial_basis(3, 2) == [
        (2, 0, 0),
        (1, 1, 0),
        (1, 0, 1),
        (0, 2, 0),
        (0, 1, 1),
        (0, 0, 2),
    ]


def test_sym_group_identity():
    assert sym_group(ExprMatrix.identity(2), 2).equals(ExprMatrix.identity(3))
    assert sym_group(ExprMatrix.identity(2), 3).equals(ExprMatrix.identity(4))


def test_sym_group_of_fundamental_matrix():
    y1, y1p = sym("y1"), sym("y1_p")
    y2, y2p = sym("y2"), sym("y2_p")
    fund = ExprMatrix([[y1, y2], [y1p, y2p]])
    lifted = sym_group(fund, 2)
    expected = ExprMatrix(
        [
            [y1 ** 2, y1 * y2, y2 ** 2],
            [2 * y1 * y1p, y1p * y2 + y1 * y2p, 2 * y2 * y2p],
            [y1p ** 2, y1p * y2p, y2p ** 2],
        ]
    )
    assert lifted.equals(expected)


def _brute_force_sym2(a, b, c, d):
    """Independent oracle: expand P(a X1 + c X2, b X1 + d X2) by hand.

    Polynomials are dicts (i, j) -> Fraction for the monomial X1^i X2^j.
    Returns the 3x3 matrix of coefficients on (X1^2, X1 X2, X2^2).
    """

    def mul(p1, p2):
        out = {}
        for (i1, j1), c1 in p1.items():
            for (i2, j2), c2 in p2.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return out

    img1 = {(1, 0): a, (0, 1): c}  # image of X1
    img2 = {(1, 0): b, (0, 1): d}  # image of X2
    columns = [mul(img1, img1), mul(img1, img2), mul(img2, img2)]
    order = [(2, 0), (1, 1), (0, 2)]
    return [[col.get(mono, Fraction(0)) for col in columns] for mono in order]


def test_sym_group_matches_brute_force(rng):
    for _ in range(10):
        vals = [Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(4)]
        a, b, c, d = vals
        mat = ExprMatrix([[Const(a), Const(b)], [Const(c), Const(d)]])
        got = sym_group(mat, 2)
        expected = _brute_force_sym2(a, b, c, d)
        for i in range(3):
            for j in range(3):
                assert equal(got[i, j], Const(expected[i][j]))


def test_sym_group_functoriality(rng):
    for _ in range(50):
        m1 = random_rational_matrix(rng, 2)
        m2 = random_rational_matrix(rng, 2)
        lhs = sym_group(m1 @ m2, 2)
        rhs = sym_group(m1, 2) @ sym_group(m2, 2)
        assert lhs.equals(rhs)


def test_sym_group_inverse_compatibility(rng):
    for power in (2, 3):
        for _ in range(10):
            m = random_rational_matrix(rng, 2, invertible=True)
            lhs = sym_group(m.inverse(), power)
            rhs = sym_group(m, power).inverse()
            assert lhs.equals(rhs)


def test_sym_group_det_cube(rng):
    for _ in range(10):
        m = random_rational_matrix(rng, 2)
        assert equal(sym_group(m, 2).det(), m.det() ** 3)


def test_sym_lie_companion_example():
    p, q = sym("p"), sym("q")
    a0 = ExprMatrix([[ZERO, const(-1)], [q, p]])
    got = sym_lie(a0, 2)
    expected = ExprMatrix(
        [
            [ZERO, const(-1), ZERO],
            [2 * q, p, const(-2)],
            [ZERO, q, 2 * p],
        ]
    )
    assert got.equals(expected)


def test_sym_lie_traceless_example():
    w, q = sym("w"), sym("q")
    b0 = ExprMatrix([[ZERO, -1 / w], [w * q, ZERO]])
    got = sym_lie(b0, 2)
    expected = ExprMatrix(
        [
            [ZERO, -1 / w, ZERO],
            [2 * w * q, ZERO, -2 / w],
            [ZERO, w * q, ZERO],
        ]
    )
    assert got.equals(expected)


def test_sym_lie_zero_and_morphism(rng):
    assert sym_lie(ExprMatrix.zeros(2), 2).is_zero_matrix()

    def matrix_commutator(a, b):
        return (a @ b) - (b @ a)

    for _ in range(10):
        m1 = random_rational_matrix(rng, 2)
        m2 = random_rational_matrix(rng, 2)
        lhs = sym_lie(matrix_commutator(m1, m2), 2)
        rhs = matrix_commutator(sym_lie(m1, 2), sym_lie(m2, 2))
        assert lhs.equals(rhs)


def test_sym_power_vector_weights():
    y, yp = sym("y"), sym("y_p")
    vec = sym_power_vector([y, yp], 2)
    assert equal(vec[0], y ** 2)
    assert equal(vec[1], 2 * y * yp)
    assert equal(vec[2], yp ** 2)


def test_sym2_operator_schrodinger_shape():
    table = DerivationTable(symbol_tower("q", 2))
    fam = SecondOrderFamily(
        p=ZERO, q=sym("q"), r=ONE, w=ONE, table=table
    )
    a2, a1, a0 = sym2_operator(fam)
    assert is_zero(a2)
    assert equal(a1, 4 * (sym("q") - fam.m))
    assert equal(a0, 2 * differentiate(sym("q"), table))


def test_sym2_operator_trivial():
    fam = SecondOrderFamily(p=ZERO, q=ZERO, r=ONE, w=ONE, table=DerivationTable())
    a2, a1, a0 = sym2_operator(fam)
    assert is_zero(a2) and is_zero(a0)
    assert equal(a1, -4 * fam.m)


def test_sym2_operator_annihilates_solution_products():
    # generic p = w'/w, q: the third-order operator kills y1*y2 and y1^2
    fam = generic_family()
    (pair1, pair2), table = fam.solution_symbols("y1", "y2")
    y1, _ = pair1
    y2, _ = pair2
    a2, a1, a0 = sym2_operator(fam)
    # the companion system of d3 + a2 d2 + a1 d + a0, state (y, y', y'')
    sys3 = LinearSystem(
        ExprMatrix([[ZERO, const(-1), ZERO], [ZERO, ZERO, const(-1)], [a0, a1, a2]]), table
    )
    for u in (y1 * y2, y1 * y1):
        up = differentiate(u, table)
        upp = differentiate(up, table)
        cand = ExprMatrix([[u], [up], [upp]])
        assert residual(sys3, cand).is_zero_matrix()


def test_sym_system_splits_into_s2_and_n2():
    fam = generic_family()
    sys2 = sym_system(companion(fam), 2)
    p, q, r = sym("p"), sym("q"), sym("r")
    m = fam.m
    s2 = ExprMatrix(
        [[ZERO, const(-1), ZERO], [2 * q, p, const(-2)], [ZERO, q, 2 * p]]
    )
    n2 = ExprMatrix(
        [[ZERO, ZERO, ZERO], [-2 * r, ZERO, ZERO], [ZERO, -r, ZERO]]
    )
    assert sys2.a.equals(s2 + n2.scale(m))


def test_sym_system_zero():
    sys = LinearSystem(ExprMatrix.zeros(2), DerivationTable())
    assert sym_system(sys, 2).a.is_zero_matrix()


def test_sym_system_residual_of_lifted_fundamental():
    fam = generic_family()
    (pair1, pair2), table = fam.solution_symbols("y1", "y2")
    y1, y1p = pair1
    y2, y2p = pair2
    fund = ExprMatrix([[y1, y2], [y1p, y2p]])
    base = LinearSystem(companion(fam).a, table)
    lifted_sys = sym_system(base, 2)
    lifted_fund = sym_group(fund, 2)
    assert residual(lifted_sys, lifted_fund).is_zero_matrix()


def _assert_natural(sys, g, powers=(2, 3)):
    # if G certifies A -> B, then Sym^k G certifies Sym^k A -> Sym^k B,
    # with det Sym^k G = (det G)^(k C(n+k-1, k)/n)
    t = Transformation(sys, g, transported(sys, g), g.det())
    assert failed_part(t) is None
    for k in powers:
        assert failed_part(t.sym(k)) is None
    return t


def test_sym_gauge_naturality(rng):
    table = DerivationTable(symbol_tower("q", 2))
    sys = LinearSystem(ExprMatrix([[sym("q"), X], [ONE, ZERO]]), table)
    for _ in range(5):
        _assert_natural(sys, random_rational_matrix(rng, 2, invertible=True))


def test_sym_gauge_naturality_nonconstant():
    table = DerivationTable(symbol_tower("q", 2))
    sys = LinearSystem(ExprMatrix([[sym("q"), X], [ONE, ZERO]]), table)
    _assert_natural(sys, ExprMatrix([[ONE, X], [ZERO, ONE]]))


def test_sym_gauge_naturality_three_by_three():
    # a 3x3 gauge of determinant 2: its Sym^2 is 6x6, of determinant 2^4
    table = DerivationTable(symbol_tower("q", 2))
    sys = LinearSystem(
        ExprMatrix([[sym("q"), X, ZERO], [ONE, ZERO, X], [ZERO, ONE, sym("q")]]), table
    )
    t = _assert_natural(sys, ExprMatrix([[2, 0, 0], [0, 1, 1], [1, 0, 1]]), powers=(2,))
    assert equal(t.det, const(2)) and equal(t.sym(2).det, const(16))
