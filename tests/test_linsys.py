import pytest

from darbouxkit.expr import (
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
from darbouxkit.linsys import (
    ExprMatrix,
    LinearSystem,
    SecondOrderFamily,
    SingularGauge,
    companion,
    gauge_residual,
    residual,
    system_from_json,
    system_to_json,
)
from darbouxkit.sympow import sym_group
from conftest import (
    balanced_companion,
    generic_family,
    oscillator_family,
    random_rational_matrix,
    transported,
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
    # the companion matrix is A0 + m N with N = [[0, 0], [-r, 0]]
    fam = generic_family()
    n = ExprMatrix([[ZERO, ZERO], [-fam.r, ZERO]])
    assert (n @ n).is_zero_matrix()


def test_gauge_identity():
    fam = oscillator_family()
    sys = companion(fam)
    assert gauge_residual(sys, ExprMatrix.identity(2), sys).is_zero_matrix()


def test_gauge_diagonal_w_gives_traceless_form():
    # X1 = Delta X with Delta = diag(1, w) sends the companion matrix to
    # B0 + m N1 = [[0, -1/w], [w(q - m r), 0]], which is traceless.
    fam = generic_family()
    sys = companion(fam)
    w = sym("w")
    delta = ExprMatrix.diagonal([ONE, w])
    m = fam.m
    expected = LinearSystem(
        ExprMatrix([[ZERO, -1 / w], [w * (sym("q") - m * sym("r")), ZERO]]), fam.table
    )
    assert gauge_residual(sys, delta, expected).is_zero_matrix()
    assert balanced_companion(fam).a.equals(expected.a)
    assert is_zero(expected.a.trace())
    # the untransformed companion is not the target
    assert not gauge_residual(sys, delta, sys).is_zero_matrix()


def test_gauge_residual_rejects_mismatched_shapes():
    sys = companion(generic_family())
    with pytest.raises(ValueError, match="size mismatch"):
        gauge_residual(sys, ExprMatrix.identity(3), sys)


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
        ExprMatrix([[ONE, ONE], [ONE, ONE]]).inverse()


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
    # nor one added earlier in the same call: ("y1", "y1") would give a
    # singular fundamental matrix, ("y1", "y1_p") would replace y1_p' by y1_p_p
    first = clash.removesuffix("_p")
    with pytest.raises(ValueError, match=f"solution symbol '{clash}' is added twice"):
        generic_family().solution_symbols(first, clash)


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


def test_gauge_then_inverse():
    table = DerivationTable(symbol_tower("q", 2))
    sys = LinearSystem(ExprMatrix([[sym("q"), X], [ONE, ZERO]]), table)
    # a non-constant G exercises the G' term
    g = ExprMatrix([[ONE, X], [ZERO, ONE]])
    g_inv = ExprMatrix([[ONE, -X], [ZERO, ONE]])
    target = transported(sys, g)
    assert gauge_residual(sys, g, target).is_zero_matrix()
    assert gauge_residual(target, g_inv, sys).is_zero_matrix()
    # the G' term counts: with its sign flipped the identity fails
    flipped = target.a @ g - g @ sys.a - g.diff(table)
    assert not flipped.normalized().is_zero_matrix()
    assert not gauge_residual(sys, g, sys).is_zero_matrix()


def test_gauge_trace_identity():
    # tr B - tr A = -(det G)'/det G
    table = DerivationTable(symbol_tower("q", 2))
    sys = LinearSystem(ExprMatrix([[sym("q"), X], [ONE, ZERO]]), table)
    g = ExprMatrix([[ONE, X ** 2], [ZERO, X + 3]])
    target = transported(sys, g)
    assert gauge_residual(sys, g, target).is_zero_matrix()
    det = g.det()
    assert equal(target.a.trace() - sys.a.trace(), -differentiate(det, table) / det)


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
