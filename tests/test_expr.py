import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

try:
    import sympy
except ImportError:  # sympy is an optional cross-check
    sympy = None

import darbouxkit.expr as kernel
from darbouxkit.expr import (
    I,
    X,
    Add,
    Apply,
    Const,
    DerivationTable,
    DivisionByZeroExpr,
    EvalSingularity,
    Div,
    GaussRat,
    KitError,
    Mul,
    ONE,
    Param,
    Pow,
    Radical,
    Record,
    Sym,
    UnboundSymbol,
    UnknownSymbol,
    ZERO,
    const,
    depends_on_x,
    differentiate,
    equal,
    evaluate,
    exp,
    free_names,
    is_zero,
    normalize,
    param,
    parse_infix,
    parse_sexpr,
    rat,
    substitute,
    sym,
    symbol_names,
    symbol_tower,
    to_pretty,
    to_sexpr,
    Var,
)


# -- GaussRat coefficients ------------------------------------------------------

# ints, and small fractions whose numerator may be zero and whose
# denominator may be negative (Fraction normalizes the sign)
_rationals = st.one_of(
    st.integers(-40, 40),
    st.builds(Fraction, st.integers(-12, 12), st.integers(-12, 12).filter(bool)),
)


def _assert_canonical(g):
    assert g._d > 0 and math.gcd(g._a, g._b, g._d) == 1


def _assert_value(g, re, im):
    """``g`` is the canonical coefficient of ``re + im*i``."""
    _assert_canonical(g)
    assert (g.re, g.im) == (re, im)
    assert type(g.re) is Fraction and type(g.im) is Fraction
    direct = GaussRat(re, im)
    assert g == direct and hash(g) == hash(direct)


@settings(max_examples=300, deadline=None)
@given(_rationals, _rationals, _rationals, _rationals)
def test_gaussrat_matches_fraction_pair_reference(p, q, r, s):
    u, v = GaussRat(p, q), GaussRat(r, s)
    p, q, r, s = map(Fraction, (p, q, r, s))
    _assert_value(u, p, q)
    _assert_value(u + v, p + r, q + s)
    _assert_value(u - v, p - r, q - s)
    _assert_value(u * v, p * r - q * s, p * s + q * r)
    _assert_value(-u, -p, -q)
    n = r * r + s * s
    if n == 0:
        with pytest.raises(DivisionByZeroExpr):
            u / v
    else:
        _assert_value(u / v, (p * r + q * s) / n, (q * r - p * s) / n)
    assert (u == v) == ((p, q) == (r, s))
    assert u.is_zero() == (p == 0 and q == 0)
    assert u.to_complex() == complex(p, q)
    # the same value built by other routes keeps one form and one hash
    for other in (GaussRat(p) + GaussRat(0, q), GaussRat(GaussRat(p), q),
                  u * GaussRat(1) + GaussRat(0), (u + v) - v):
        assert other == u and hash(other) == hash(u)
        _assert_canonical(other)


def test_gaussrat_compares_with_int_and_fraction():
    assert GaussRat(2) == 2
    assert GaussRat(Fraction(1, 2)) == Fraction(1, 2)
    assert GaussRat(Fraction(4, 2)) == 2
    assert not GaussRat(2, 1) == 2
    assert not GaussRat(Fraction(1, 2), 1) == Fraction(1, 2)
    with pytest.raises(DivisionByZeroExpr, match="division by zero Gaussian rational"):
        GaussRat(1, 1) / GaussRat(0)


@pytest.mark.parametrize("value", [3, -7, 0, Fraction(1, 2), Fraction(-7, 4)], ids=str)
def test_a_real_gaussrat_hashes_as_the_equal_number(value):
    g = GaussRat(value)
    assert g == value and hash(g) == hash(value)
    assert len({g, value}) == 1
    # a nonreal value equals no int or Fraction and keeps its tuple hash
    h = GaussRat(value, 1)
    assert h != value and hash(h) == hash((h._a, h._b, h._d))


def test_normalize_perfect_square_cancellation():
    e = (X + 1) ** 2 - X ** 2 - 2 * X - 1
    assert is_zero(e)


def test_normalize_imaginary_unit():
    assert equal(I * I, const(-1))


def test_normalize_riccati_sphere_identity():
    # ((1-uv)^2 + (i(1+uv))^2 + (u+v)^2) / (u-v)^2 == 1
    u, v = sym("u"), sym("v")
    e = ((1 - u * v) ** 2 + (I * (1 + u * v)) ** 2 + (u + v) ** 2) / (u - v) ** 2
    assert equal(e, const(1))


def test_normalize_idempotent():
    u, v = sym("u"), sym("v")
    samples = [
        (X + 1) ** 3 / (u - v),
        u / v + v / u,
        (X ** 2 - 1) / (X - 1),
        exp(-(X ** 2) / 2) * (4 * X ** 2 - 2),
    ]
    for e in samples:
        n = normalize(e)
        assert normalize(n) == n


def test_normalize_division_by_zero():
    with pytest.raises(DivisionByZeroExpr):
        normalize(X / ((X + 1) - X - 1))


def test_exact_multivariate_division_cancels():
    y = param("y")
    q = X * y + y ** 2 + 1
    p = X ** 2 + y ** 2 + X
    assert normalize(p * q / q) == normalize(p)


def test_exact_division_with_a_long_quotient():
    # 40 quotient terms from a two-term dividend and a two-term divisor
    quotient = normalize((X ** 40 - 1) / (X - 1))
    assert not isinstance(quotient, Div)
    assert quotient == normalize(Add(tuple(X ** k for k in range(40))))


# -- the monomial order -----------------------------------------------------------

# one generator of every kind, two of most, in no particular rank order
_GENS = tuple(
    kernel._gen(leaf)
    for leaf in (
        X,
        param("a"),
        param("b"),
        Sym("u"),
        Sym("v"),
        Radical("r", Sym("u") + 1),
        Radical("s", Sym("v")),
        Apply("exp", normalize(X)),
        Apply("exp", normalize(-X)),
    )
)


def _mono_from(powers):
    mono = kernel._EMPTY_MONO
    for index, power in powers.items():
        mono = kernel._mono_mul(mono, (power, ((_GENS[index], power),)))
    return mono


_powers = st.dictionaries(st.integers(0, len(_GENS) - 1), st.integers(1, 4), max_size=4)
_monos = _powers.map(_mono_from)
_coeffs = st.builds(GaussRat, st.integers(-5, 5), st.integers(-5, 5)).filter(
    lambda c: not c.is_zero()
)
_polys = st.dictionaries(_monos, _coeffs, min_size=1, max_size=5)
# radicals to the first power only, as in every normal form
_reduced_polys = st.dictionaries(
    _powers.map(
        lambda powers: _mono_from(
            {i: 1 if _GENS[i][0] == 3 else p for i, p in powers.items()}
        )
    ),
    _coeffs,
    min_size=1,
    max_size=5,
)
# no radical at all, as in every denominator of a normal form
_radical_free_monos = _powers.map(
    lambda powers: _mono_from({i: p for i, p in powers.items() if _GENS[i][0] != 3})
)
_radical_free_polys = st.dictionaries(_radical_free_monos, _coeffs, min_size=1, max_size=5)
# 150 examples, or more under a profile that asks for more
_EXACT_DIVISION_EXAMPLES = max(150, settings.default.max_examples)


@given(_monos, _monos)
def test_mono_order_is_total_with_the_empty_monomial_least(m1, m2):
    assert (m1 < m2) + (m1 == m2) + (m1 > m2) == 1
    assert kernel._EMPTY_MONO < m1 or m1 == kernel._EMPTY_MONO


@given(_monos, _monos, _monos)
def test_mono_order_is_multiplicative(m1, m2, m3):
    assume(m1 < m2)
    assert kernel._mono_mul(m1, m3) < kernel._mono_mul(m2, m3)


@settings(max_examples=_EXACT_DIVISION_EXAMPLES, deadline=None)
@given(_polys, _polys)
def test_exact_division_recovers_the_cofactor(a, b):
    assert kernel._poly_exact_div(kernel._poly_mul(a, b), b) == a


# one term, often with the empty monomial or the unit coefficient, which
# the one-term product multiplies by no monomial or coefficient
_terms = st.dictionaries(
    st.one_of(st.just(kernel._EMPTY_MONO), _monos),
    st.one_of(st.just(kernel._UNIT), _coeffs),
    min_size=1,
    max_size=1,
)


@settings(max_examples=_EXACT_DIVISION_EXAMPLES, deadline=None)
@given(_polys, _monos, _terms)
def test_one_term_denominator_left_by_cancel_content_never_divides(p, shared, den):
    # the numerator may share any part of the denominator's monomial
    num = kernel._poly_mul(p, {shared: kernel._UNIT})
    num, den = kernel._poly_cancel_content(num, den)
    assume(len(den) == 1 and min(den)[0])
    assert kernel._poly_exact_div(num, den) is None


def _cancel_content_general(num, den):
    """The common monomial factor of two polynomials struck by intersecting
    the factors of every monomial, whatever the denominator."""
    common = None
    for poly in (den, num):
        for degree, factors in poly:
            if not degree:
                return num, den
            if common is None:
                common = dict(factors)
                continue
            common = {g: min(p, common[g]) for g, p in factors if g in common}
            if not common:
                return num, den
    factor = (sum(common.values()), tuple(sorted(common.items(), reverse=True)))
    return tuple({kernel._mono_div(m, factor): c for m, c in poly.items()}
                 for poly in (num, den))


@settings(max_examples=_EXACT_DIVISION_EXAMPLES, deadline=None)
@given(_polys, _monos, st.integers(0, len(_GENS) - 1), st.integers(1, 4), _coeffs)
def test_one_generator_cancel_content_matches_the_general_intersection(
        p, shared, index, power, c):
    # the denominator is c*g**k; the numerator may share any power of g
    den = {(power, ((_GENS[index], power),)): c}
    num = kernel._poly_mul(p, {shared: kernel._UNIT})
    got = kernel._poly_cancel_content(num, den)
    want = _cancel_content_general(num, den)
    assert [list(poly.items()) for poly in got] == [list(poly.items()) for poly in want]


@settings(max_examples=_EXACT_DIVISION_EXAMPLES, deadline=None)
@given(_reduced_polys, _radical_free_polys, _radical_free_monos, st.booleans())
def test_rf_reduced_matches_rf_over_a_radical_free_denominator(num, den, shared, exact):
    # a shared monomial is struck, and a shared denominator divides out
    shared = {shared: kernel._UNIT}
    num = kernel._poly_mul(kernel._poly_mul(num, den) if exact else num, shared)
    den = kernel._poly_mul(den, shared)
    got = kernel._rf_reduced(dict(num), dict(den))
    want = kernel._rf(num, den)
    assert list(got.num.items()) == list(want.num.items())
    assert list(got.den.items()) == list(want.den.items())


@given(_polys)
def test_radical_scan_stops_below_the_radical_rank(p):
    assert kernel._poly_has_radical(p) == any(g[0] == 3 for mono in p for g, _ in mono[1])


def _poly_mul_loop(a, b):
    """The product of two polynomials by the general loop, with its
    collision checks."""
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = kernel._mono_mul(ma, mb)
            s = out.get(mono)
            s = ca * cb if s is None else s + ca * cb
            if s.is_zero():
                del out[mono]
            else:
                out[mono] = s
    return out


@settings(max_examples=_EXACT_DIVISION_EXAMPLES, deadline=None)
@given(_terms, _polys)
def test_one_term_product_matches_the_general_loop(term, p):
    for a, b in ((term, p), (p, term)):
        got = kernel._poly_mul(a, b)
        assert list(got.items()) == list(_poly_mul_loop(a, b).items())
        assert got is not a and got is not b


@settings(deadline=None)
@given(_reduced_polys)
def test_generators_recover_their_leaves(p):
    assert kernel._to_ratfunc(kernel._poly_to_expr(p)).num == p


def test_radical_square_rewrites():
    r = sym("r")
    s = Radical("sqrt_r", r)
    assert equal(s * s, r)
    assert equal(s ** 4, r * r)
    assert equal((1 / s) * s, const(1))
    # rationalization pulls radicals out of denominators
    n = normalize(1 / s)
    assert equal(n * s, const(1))


def test_differentiate_power():
    assert equal(differentiate(X ** 2), 2 * X)


def test_differentiate_table_symbol():
    p, w = sym("p"), sym("w")
    table = DerivationTable({"w": p * w, "p": sym("p_d1")})
    assert equal(differentiate(w, table), p * w)


def test_differentiate_companion_rewrite():
    # d/dx (y1*y2' + y1'*y2) with y'' = -q y  (p = 0, r = 1, m = 0)
    q = sym("q")
    y1, y1p = sym("y1"), sym("y1p")
    y2, y2p = sym("y2"), sym("y2p")
    table = DerivationTable(
        {
            "y1": y1p,
            "y1p": -q * y1,
            "y2": y2p,
            "y2p": -q * y2,
            "q": sym("q_d1"),
        }
    )
    got = differentiate(y1 * y2p + y1p * y2, table)
    assert equal(got, 2 * y1p * y2p - 2 * q * y1 * y2)


def test_differentiate_unknown_symbol():
    with pytest.raises(UnknownSymbol):
        differentiate(sym("mystery"))


def test_differentiate_of_a_singular_constant_raises_as_normalize_does():
    # the derivative tree drops the constant, so its singular part must be
    # caught on the input: the derivative used to be 0
    for e in (param("k") / (const(2) - 2), X + (const(1) - 1) ** -1):
        with pytest.raises(DivisionByZeroExpr):
            normalize(e)
        with pytest.raises(DivisionByZeroExpr):
            differentiate(e)


def test_radical_auto_derivative():
    r, r1 = sym("r"), sym("r_d1")
    table = DerivationTable({"r": r1})
    s = Radical("sqrt_r", r)
    got = differentiate(s, table)
    assert equal(got, r1 * s / (2 * r))


def test_evaluate_basics():
    assert evaluate(X ** 2, {"x": 3}) == 9
    assert evaluate(exp(-(X ** 2) / 2), {"x": 0}) == 1


def test_evaluate_hermite_state():
    import math

    e = (4 * X ** 2 - 2) * exp(-(X ** 2) / 2)
    got = evaluate(e, {"x": 1})
    assert abs(got - 2 * math.exp(-0.5)) < 1e-12


def test_evaluate_errors():
    with pytest.raises(UnboundSymbol):
        evaluate(sym("q"), {})
    with pytest.raises(EvalSingularity):
        evaluate(1 / X, {"x": 0})


def test_substitute_simple():
    theta0 = sym("theta0")
    assert equal(substitute(theta0 ** 2, {"theta0": -X}), X ** 2)


def test_substitute_after_derivative():
    # q + 2*theta0' with theta0 = -x gives q - 2
    q, theta0 = sym("q"), sym("theta0")
    table = DerivationTable({"theta0": sym("theta0_d1"), "q": sym("q_d1")})
    e = q + 2 * differentiate(theta0, table)
    got = substitute(e, {"theta0_d1": const(-1)})
    assert equal(got, q - 2)


def test_sexpr_round_trip():
    u = sym("u")
    samples = [
        X ** 2 + 1,
        rat(1, 2) * I + const(3),
        Radical("s", sym("r")) * u / (u - 1),
        exp(-(X ** 2) / 2),
        param("m") * sym("q"),
    ]
    for e in samples:
        n = normalize(e)
        assert normalize(parse_sexpr(to_sexpr(n))) == n


def test_parse_infix():
    e = parse_infix("2 - i*w1", params=("m",))
    assert equal(e, 2 - I * sym("w1"))
    assert equal(parse_infix("-x"), -X)
    assert equal(parse_infix("(x+1)^2/3"), (X + 1) ** 2 / 3)
    assert equal(parse_infix("exp(-x^2/2)"), exp(-(X ** 2) / 2))
    assert equal(parse_infix("m*r", params=("m",)), param("m") * sym("r"))


@pytest.mark.parametrize("text", [
    "(^ x)", "(/ x)", "(rad s)", "(c 1)", "(sym)", "(apply exp)",
    "(/ x 1 2)", "(^ x 2 3)", "(param m 3)", "(rad s x 5)", "(c 1 2 3)", "(param (sym a))",
])
def test_parse_sexpr_rejects_a_missing_surplus_or_misplaced_argument(text):
    with pytest.raises(KitError, match=r"^malformed \("):
        parse_sexpr(text)


@pytest.mark.parametrize("parse, text, message", [
    (parse_sexpr, "(+ x (* 2 x)", "unbalanced parenthesis in expression text"),
    (parse_sexpr, "x 1", "trailing tokens in expression text: ['1']"),
    (parse_sexpr, " ", "empty expression text"),
    (parse_sexpr, "(sin x)", "unknown S-expression head 'sin'"),
    (parse_sexpr, "(apply sin x)", "unknown function 'sin': exp is the only one"),
    (parse_infix, "x $ 1", "bad character '$' in expression text"),
    (parse_infix, "exp(x + 1", "missing closing parenthesis"),
    (parse_infix, "x^y", "exponent must be an integer"),
])
def test_malformed_expression_text_names_its_fault(parse, text, message):
    with pytest.raises(KitError) as info:
        parse(text)
    assert str(info.value) == message


def test_infix_reader_rejects_an_operator_where_an_operand_belongs():
    # "*" and ")" used to read as symbols, and (sym )) does not read back
    for text in ("+", "-", "*", "/", "^", "(", ")", "x + *"):
        with pytest.raises(KitError):
            parse_infix(text)


@pytest.mark.parametrize("text", [
    "-" * 1200 + "x", "(" * 1200 + "x" + ")" * 1200, "exp(" * 1200 + "x" + ")" * 1200,
], ids=["minus-signs", "parentheses", "applications"])
def test_infix_nested_too_deeply_raises_kit_error(text):
    # each used to raise RecursionError
    with pytest.raises(KitError) as info:
        parse_infix(text)
    assert str(info.value) == "nested too deeply"


def test_infix_nested_within_the_limit_reads_as_before():
    # a run of signs is read in a loop and applied innermost first
    negated = X
    for _ in range(kernel._INFIX_MAX_DEPTH):
        negated = -negated
    assert parse_infix("-" * kernel._INFIX_MAX_DEPTH + "x") == negated
    assert parse_infix("- + - x") == -(-X)
    assert parse_infix("(" * kernel._INFIX_MAX_DEPTH + "x" + ")" * kernel._INFIX_MAX_DEPTH) == X


@pytest.mark.parametrize("e, text", [
    (normalize((X + 1) ** 2 / (X - rat(1, 2) * I)), "(x^2 + 2*x + 1)/(x - 1/2*i)"),
    (exp(-(X ** 2) / 2), "exp((-1)*x^2/2)"),
    (Const(GaussRat(Fraction(1, 2), -3)) * X, "(1/2-3*i)*x"),
    ((X + 1) * (X - 1) - I * 3, "(x + 1)*(x + (-1)*1) + (-1)*i*3"),
    (-I * X + sym("q") ** -2 + Radical("s", X), "(-1)*i*x + q^-2 + s"),
    (Const(GaussRat(0, Fraction(-2, 3))) + X / (param("k") + I), "-2/3*i + x/(k + i)"),
])
def test_pretty_text(e, text):
    assert to_pretty(e) == text


def test_name_walkers_see_symbols_inside_radicals():
    # the radical's square holds the symbol a; only Sym names are
    # table-dependent, so symbol_names skips the radical and the parameter
    s = Radical("s", sym("a") + X)
    e = s * sym("b") + param("m") * exp(sym("c"))
    assert free_names(e) == {"s", "a", "b", "c", "m"}
    assert free_names(normalize(e)) == {"s", "a", "b", "c", "m"}
    assert symbol_names(s) == {"a"}
    assert symbol_names(s * sym("c") + param("m")) == {"a", "c"}
    # a radical counts as x-dependent until its square rewrites it away
    r = Radical("r", param("m") + 1)
    assert depends_on_x(r)
    assert not depends_on_x(r * r)
    assert depends_on_x(s * s)
    assert not depends_on_x(param("m") * 2)


@pytest.mark.parametrize("e, expected", [
    (lambda: exp(param("m")), False),
    (lambda: exp(param("m") * X), True),
    (lambda: exp(exp(X) - exp(X)), False),
    (lambda: X / X + param("m"), False),
    (lambda: 1 / (X + param("m")), True),
])
def test_depends_on_x_reads_the_generators_of_the_normal_form(e, expected):
    # an application counts through its argument, and a cancelled x not at all
    assert depends_on_x(e()) is expected


def test_symbol_tower_depth():
    table = DerivationTable(symbol_tower("q", 3))
    e = sym("q")
    for _ in range(3):
        e = differentiate(e, table)
    with pytest.raises(UnknownSymbol):
        differentiate(e, table)


# -- randomized properties ---------------------------------------------------

_u, _v = sym("u"), sym("v")
_TABLE = DerivationTable({"u": _v, "v": _u, "a": Const(0)})


def _exprs(depth):
    leaves = st.sampled_from(
        [X, _u, _v, param("k"), const(2), rat(-1, 2), I, const(3)]
    )
    if depth == 0:
        return leaves
    sub = _exprs(depth - 1)
    return st.one_of(
        leaves,
        st.tuples(sub, sub).map(lambda p: p[0] + p[1]),
        st.tuples(sub, sub).map(lambda p: p[0] * p[1]),
        st.tuples(sub, st.integers(0, 3)).map(lambda p: p[0] ** p[1]),
        sub.map(lambda e: e / (1 + X ** 2)),
    )


@settings(max_examples=200, deadline=None)
@given(_exprs(3), _exprs(3))
def test_product_commutes_and_derives(e1, e2):
    assert normalize(e1 * e2) == normalize(e2 * e1)
    lhs = differentiate(e1 * e2, _TABLE)
    rhs = differentiate(e1, _TABLE) * e2 + e1 * differentiate(e2, _TABLE)
    assert equal(lhs, rhs)


@settings(max_examples=200, deadline=None)
@given(_exprs(3))
def test_self_subtraction_is_zero(e):
    assert is_zero(e - e)


@settings(max_examples=100, deadline=None)
@given(_exprs(3))
def test_normalize_idempotent_random(e):
    n = normalize(e)
    assert normalize(n) == n


@settings(max_examples=60, deadline=None)
@given(_exprs(2), st.integers(-3, 3))
def test_derivative_matches_finite_difference(e, t0):
    # central finite difference at a smooth sample point
    bindings = {"x": float(t0) + 0.37, "u": 0.81, "v": -0.44, "k": 1.25}
    h = 1e-6
    de = differentiate(e, _TABLE)
    # u and v vary with x through the table u' = v, v' = u: emulate by
    # shifting their values consistently to first order
    up = bindings["v"]
    vp = bindings["u"]
    plus = dict(bindings)
    minus = dict(bindings)
    plus["x"] += h
    plus["u"] += h * up
    plus["v"] += h * vp
    minus["x"] -= h
    minus["u"] -= h * up
    minus["v"] -= h * vp
    num = (evaluate(e, plus) - evaluate(e, minus)) / (2 * h)
    symval = evaluate(de, bindings)
    assert abs(num - symval) <= 1e-6 * max(1.0, abs(symval))


# -- array-bound evaluation ---------------------------------------------------

_S = Radical("s", X + 2)
_GRID = np.linspace(0.3, 1.7, 7) + 0.2j
_ARRAY_ENV = {"x": _GRID, "k": 0.75 - 0.5j, "s": np.sqrt(_GRID + 2)}
_POINTS = [{n: v[i] if isinstance(v, np.ndarray) else v for n, v in _ARRAY_ENV.items()}
           for i in range(len(_GRID))]


def _numeric_exprs(depth):
    leaves = st.sampled_from([X, param("k"), _S, const(2), rat(-1, 2), I])
    if depth == 0:
        return leaves
    sub = _numeric_exprs(depth - 1)
    small = _numeric_exprs(max(depth - 2, 0))  # function arguments: keeps exp finite
    return st.one_of(
        leaves,
        st.tuples(sub, sub).map(lambda p: p[0] + p[1]),
        st.tuples(sub, sub).map(lambda p: p[0] * p[1]),
        st.tuples(sub, sub).map(lambda p: p[0] / p[1]),
        st.tuples(sub, st.integers(-3, 3)).map(lambda p: p[0] ** p[1]),
        small.map(exp),
    )


_nonreal = st.builds(lambda re, im: Const(GaussRat(re, im)), _rationals, _rationals)


# 200 examples, or more under a profile that asks for more
@settings(max_examples=max(200, settings.default.max_examples), deadline=None)
@given(st.one_of(_numeric_exprs(3), _exprs(3)), _exprs(2), _nonreal)
def test_sexpr_reads_back_every_printed_tree(e, square, c):
    for tree in (e, Radical("r", square) * exp(c * e) - c):
        text = to_sexpr(tree)
        assert parse_sexpr(text) == tree
        assert to_sexpr(parse_sexpr(text)) == text


def _error_scale(e, env):
    """Magnitude bounding the rounding error of evaluating ``e`` in units
    of the working precision, up to a factor of the tree size.  Relative
    error is measured against it rather than against the value, which
    may be the small difference of large terms."""
    value = lambda sub: np.abs(evaluate(sub, env))
    if isinstance(e, (Const, Var, Param, Radical)):
        return value(e)
    if isinstance(e, Add):
        return sum(_error_scale(t, env) for t in e.terms)
    if isinstance(e, Mul):
        out = 1.0
        for f in e.factors:
            out = out * _error_scale(f, env)
        return out
    if isinstance(e, Pow):
        n = e.exponent
        if n >= 0:
            return max(n, 1) * _error_scale(e.base, env) ** n
        return -n * value(e.base) ** (n - 1) * _error_scale(e.base, env)
    if isinstance(e, Div):
        den = value(e.den)
        return _error_scale(e.num, env) / den + value(e.num) * _error_scale(e.den, env) / den ** 2
    return value(e) * (1 + _error_scale(e.arg, env))


def _assert_array_evaluate_matches(e, reference):
    """Array-bound ``evaluate`` of ``e`` agrees with ``reference(e)`` on
    the grid to 1e-12 relative to the error scale; a singular array
    evaluation must be singular at some grid point."""
    with np.errstate(all="ignore"):
        try:
            got = np.broadcast_to(evaluate(e, _ARRAY_ENV), _GRID.shape)
        except EvalSingularity:
            with pytest.raises(EvalSingularity):
                for point in _POINTS:
                    evaluate(e, point)
            return
        scale = np.broadcast_to(_error_scale(e, _ARRAY_ENV), _GRID.shape)
        assume(np.all(np.isfinite(got)) and np.all(np.isfinite(scale)))
        want = np.broadcast_to(reference(e), _GRID.shape)
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


@settings(max_examples=200, deadline=None)
@given(_numeric_exprs(3))
def test_array_evaluate_matches_pointwise(e):
    _assert_array_evaluate_matches(
        e, lambda e: np.array([evaluate(e, point) for point in _POINTS])
    )


def test_a_row_of_x_and_columns_of_parameters_broadcast_to_a_grid():
    # the RK4 oracle binds x as a (1, N) row and each parameter as an
    # (M, 1) column, one value per member of a stack
    e = (param("k") * X ** 2 + exp(param("k") * X)) / (X + 3) - param("k") ** -2 + _S
    xs, ks = _GRID[:5], np.array([0.75 - 0.5j, 1.5, -2j])
    got = evaluate(e, {"x": xs[None, :], "k": ks[:, None], "s": np.sqrt(xs + 2)[None, :]})
    assert got.shape == (3, 5)
    want = [[evaluate(e, {"x": x, "k": k, "s": np.sqrt(x + 2)}) for x in xs] for k in ks]
    # numpy's complex arithmetic may round the last bit differently from Python's
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


def _to_sympy(e):
    if isinstance(e, Const):
        re, im = e.value.re, e.value.im
        return sympy.Rational(re.numerator, re.denominator) + sympy.I * sympy.Rational(
            im.numerator, im.denominator)
    if isinstance(e, Var):
        return sympy.Symbol("x")
    if isinstance(e, (Param, Radical)):
        return sympy.Symbol(e.name)
    if isinstance(e, Add):
        return sympy.Add(*map(_to_sympy, e.terms))
    if isinstance(e, Mul):
        return sympy.Mul(*map(_to_sympy, e.factors))
    if isinstance(e, Pow):
        return _to_sympy(e.base) ** e.exponent
    if isinstance(e, Div):
        return _to_sympy(e.num) / _to_sympy(e.den)
    return sympy.exp(_to_sympy(e.arg))


@pytest.mark.skipif(sympy is None, reason="sympy not installed")
@settings(max_examples=100, deadline=None)
@given(_numeric_exprs(3))
def test_array_evaluate_matches_sympy_lambdify(e):
    def reference(e):
        f = sympy.lambdify(("x", "k", "s"), _to_sympy(e), modules="numpy")
        return f(_ARRAY_ENV["x"], _ARRAY_ENV["k"], _ARRAY_ENV["s"])

    _assert_array_evaluate_matches(e, reference)


# -- normal-form cache ----------------------------------------------------------


def _clear_caches():
    kernel._NORMAL_CACHE.clear()
    kernel._TERM_CACHE.clear()
    kernel._TEXT_CACHE.clear()


def _normal_text(e):
    try:
        return to_sexpr(normalize(e))
    except DivisionByZeroExpr:
        return "DivisionByZeroExpr"


def _subtrees(e):
    """Proper subtrees of ``e``, children before parents."""
    if isinstance(e, Add):
        children = e.terms
    elif isinstance(e, Mul):
        children = e.factors
    elif isinstance(e, Pow):
        children = (e.base,)
    elif isinstance(e, Div):
        children = (e.num, e.den)
    elif isinstance(e, Apply):
        children = (e.arg,)
    else:
        children = ()
    for child in children:
        yield from _subtrees(child)
        yield child


@settings(max_examples=max(150, settings.default.max_examples), deadline=None)
@given(_numeric_exprs(3))
def test_normal_form_does_not_depend_on_cache_state(e):
    _clear_caches()
    cold = _normal_text(e)
    # warm every subtree first, so normalizing e reuses their cached
    # forms as inputs and, through the rebuilt tree, as outputs
    _clear_caches()
    for sub in _subtrees(e):
        _normal_text(sub)
    assert _normal_text(e) == cold
    if isinstance(e, (Add, Mul)):
        parts = e.terms if isinstance(e, Add) else e.factors
        texts = [_normal_text(p) for p in parts]
        assume("DivisionByZeroExpr" not in texts)
        rebuilt = type(e)(tuple(normalize(p) for p in parts))
        assert _normal_text(rebuilt) == cold


def _converted(trees):
    """The trees that the normal-form cache holds as converted only."""
    return [t for t in trees if kernel._NORMAL_CACHE.get(t, (t,))[0] is None]


_PARENTS = [lambda s: s + X, lambda s: X * s, lambda s: s / (X + 1), lambda s: s ** 2,
            lambda s: param("k") - s]


def _derivative_text(e):
    try:
        return to_sexpr(differentiate(e))
    except DivisionByZeroExpr:
        return "DivisionByZeroExpr"


@settings(max_examples=max(150, settings.default.max_examples), deadline=None)
@given(_numeric_exprs(3), st.data())
def test_normal_form_does_not_depend_on_converted_subtrees(e, data):
    _clear_caches()
    cold = _normal_text(e)
    _clear_caches()
    cold_derivative = _derivative_text(e)
    # convert some subtrees of e and of its derivative tree alone, inside
    # random parents or through the check that differentiate makes, so
    # that e and its derivative then read their entries
    _clear_caches()
    tree = kernel._diff(e, kernel.EMPTY_TABLE)
    subs = [*_subtrees(e), *_subtrees(tree)]
    picks = data.draw(st.lists(st.sampled_from(subs), max_size=4)) if subs else []
    picks += [tree] * data.draw(st.integers(0, 1))
    for sub in picks:
        parent = data.draw(st.sampled_from(_PARENTS))(sub)
        try:
            normalize(parent) if data.draw(st.booleans()) else differentiate(parent)
        except DivisionByZeroExpr:
            pass
    assert _derivative_text(e) == cold_derivative
    assert _normal_text(e) == cold


@settings(max_examples=max(150, settings.default.max_examples), deadline=None)
@given(_numeric_exprs(3))
def test_normalize_of_a_converted_subtree_is_its_cold_normal_form(e):
    _clear_caches()
    try:
        kernel._to_ratfunc(e)
    except DivisionByZeroExpr:
        assume(False)
    trees = _converted([*_subtrees(e), e])
    if isinstance(e, (Add, Pow, Div)):
        assert e in trees
    warm = []
    for t in trees:
        n = normalize(t)
        # the entry now holds the normal form, and so does the form's own
        assert kernel._NORMAL_CACHE[t][0] is n and kernel._NORMAL_CACHE[n][0] is n
        warm.append(to_sexpr(n))
    cold = []
    for t in trees:
        _clear_caches()
        cold.append(to_sexpr(normalize(t)))
    assert warm == cold


def test_equal_normal_forms_of_different_trees_are_one_node():
    _clear_caches()
    first = normalize(2 / _S)
    assert normalize((2 / _S) / (X / X)) is first
    assert normalize(first) is first and normalize(2 / _S) is first


def _normal_terms(n):
    """The term nodes of a normal form, numerator then denominator."""
    parts = (n.num, n.den) if isinstance(n, Div) else (n,)
    return [t for p in parts for t in (p.terms if isinstance(p, Add) else (p,))]


@settings(max_examples=max(150, settings.default.max_examples), deadline=None)
@given(_numeric_exprs(3))
def test_equal_normal_forms_share_their_terms(e):
    _clear_caches()
    try:
        n = normalize(e)
    except DivisionByZeroExpr:
        assume(False)
    # an equal input built anew misses the normal-form cache, and its
    # rebuilt normal form reuses the term nodes of the first
    kernel._NORMAL_CACHE.clear()
    again = normalize(parse_sexpr(to_sexpr(e)))
    assert again == n
    first, second = _normal_terms(n), _normal_terms(again)
    assert len(first) == len(second)
    assert all(a is b for a, b in zip(first, second))


def _normal_or_none(e):
    try:
        return normalize(e)
    except DivisionByZeroExpr:
        return None


@settings(max_examples=max(150, settings.default.max_examples), deadline=None)
@given(_numeric_exprs(3))
def test_warm_text_is_the_cold_text(e):
    # every subtree and its normal form print once to warm the text cache
    # (a normal form through the kept text of its terms) and once from it,
    # and each prints as it does after every cache is cleared
    _clear_caches()
    trees = [*_subtrees(e), e]
    trees += [n for n in map(_normal_or_none, trees) if n is not None]
    warm = [to_sexpr(t) for t in trees]
    assert [to_sexpr(t) for t in trees] == warm
    cold = []
    for t in trees:
        _clear_caches()
        cold.append(to_sexpr(t))
    assert cold == warm


def test_reprinting_a_normal_form_does_not_walk_it(monkeypatch):
    walked = []
    walk = kernel._sexpr
    monkeypatch.setattr(kernel, "_sexpr", lambda e: walked.append(e) or walk(e))
    _clear_caches()
    n = normalize((X + param("a")) ** 3 / (X - 1))
    text = to_sexpr(n)
    # the first print walks each term once, and the root not at all
    assert walked == _normal_terms(n)
    walked.clear()
    assert to_sexpr(n) == text and walked == []
    # another normal form walks only the terms it does not share
    to_sexpr(normalize((X + param("a")) ** 3 + param("z")))
    assert walked == [param("z")]


def test_text_cache_stays_bounded_and_clears_with_the_others(monkeypatch):
    limit = 16
    monkeypatch.setattr(kernel, "_NORMAL_CACHE_LIMIT", limit)
    _clear_caches()
    n = normalize((X + param("a")) ** 2)
    to_sexpr(n)
    # trees printed without being normalized keep one text each, and the
    # text cache's clearing empties the normal-form and term caches too
    for i in range(100):
        to_sexpr(param(f"a{i}") * X + i)
        assert len(kernel._TEXT_CACHE) <= limit + 1
    assert not kernel._NORMAL_CACHE and not kernel._TERM_CACHE
    # and the normal-form cache's clearing empties the text cache
    to_sexpr(n)
    assert n in kernel._TEXT_CACHE
    for i in range(limit):
        normalize(param(f"b{i}") + X)
    assert n not in kernel._TEXT_CACHE


def _key_read(self):
    raise AssertionError("_key was read")


@pytest.mark.parametrize("kind", [
    lambda a, b: Add((a, b)), lambda a, b: Mul((a, b)), Div,
], ids=["add", "mul", "div"])
def test_a_node_hashes_without_reading_its_key(monkeypatch, kind):
    # a node's hash is stored when it is built, from its children's
    a, b = X + param("h"), param("h") * X
    for cls in (Const, Var, Param, Sym, Radical, Add, Mul, Pow, Div, Apply):
        monkeypatch.setattr(cls, "_key", _key_read)
    assert hash(kind(a, b)) == hash(kind(a, b))


@settings(max_examples=max(150, settings.default.max_examples), deadline=None)
@given(_numeric_exprs(2), _numeric_exprs(2))
def test_cached_ratfunc_is_never_mutated(e, f):
    _clear_caches()
    try:
        n = normalize(e)
    except DivisionByZeroExpr:
        assume(False)
    try:
        kernel._to_ratfunc(f)
    except DivisionByZeroExpr:
        pass
    # the normal form's entry and the converted sums, powers and quotients of f
    kept = [rf for _, rf in kernel._NORMAL_CACHE.values()]
    snapshot = [(list(rf.num.items()), list(rf.den.items())) for rf in kept]
    for use in (n + f, f - n, n * f, f * n * n, n / f, f / n, n ** -1, (n + f) ** -2,
                n + n + f, f + n + n, n * n * f, f + f * n, f ** 2 + n):
        _normal_text(use)
    assert [(list(rf.num.items()), list(rf.den.items())) for rf in kept] == snapshot


# -- the fold of sums and products ----------------------------------------------

_y = param("y")


@pytest.mark.parametrize("e, want", [
    # the inner sum cancels to zero, which leaves 1/(x+1) alone
    (Add((1 / (X + 1), Add((1 / (_y + 2), -1 / (_y + 2))))), "(/ 1 (+ x 1))"),
    # without a GCD, (x+1)/((x+1)(y+2)) keeps its common factor
    (Mul((1 / (X + 1), Mul((X + 1, 1 / (_y + 2))))),
     "(/ (+ x 1) (+ (* x (param y)) (param y) (* 2 x) 2))"),
], ids=["add", "mul"])
@pytest.mark.parametrize("inner_cached", [False, True])
def test_right_nested_operands_fold_on_their_own(e, want, inner_cached):
    _clear_caches()
    if inner_cached:
        normalize(e.terms[1] if isinstance(e, Add) else e.factors[1])
    assert _normal_text(e) == want


def _left_nested_matches_flat(kind, parts):
    flat = kind(tuple(parts))
    nested = parts[0]
    for p in parts[1:]:
        nested = kind((nested, p))
    _clear_caches()
    cold = _normal_text(flat)
    _clear_caches()
    assert _normal_text(nested) == cold
    # warm: every partial sum or product, and every operand, is cached
    _clear_caches()
    for sub in _subtrees(nested):
        _normal_text(sub)
    assert _normal_text(nested) == cold
    assert _normal_text(flat) == cold


@settings(max_examples=max(100, settings.default.max_examples), deadline=None)
@given(st.lists(_numeric_exprs(2), min_size=2, max_size=4))
def test_left_nested_sum_folds_as_the_flat_sum(parts):
    _left_nested_matches_flat(Add, parts)


@settings(max_examples=max(100, settings.default.max_examples), deadline=None)
@given(st.lists(_numeric_exprs(2), min_size=2, max_size=4))
def test_left_nested_product_folds_as_the_flat_product(parts):
    _left_nested_matches_flat(Mul, parts)


def test_a_sum_deeper_than_the_stack_hashes_compares_and_folds():
    # summed one term at a time, 2,000 terms nest 2,000 levels deep
    terms = [param(f"a{i}") * X for i in range(2000)]
    deep, copy = sum(terms, const(0)), sum(terms, const(0))
    assert hash(deep) == hash(copy) and deep == copy
    assert deep != sum(terms[:-1], const(0)) + param("a0") * X
    _clear_caches()
    assert normalize(deep) == normalize(Add(tuple(terms)))


def test_a_sum_deeper_than_the_stack_prints_reads_back_and_squares_under_a_radical():
    deep = sum([param(f"a{i}") * X for i in range(2000)], const(0))
    text = to_sexpr(deep)
    assert text.startswith("(+ " * 2000 + "0 (* (param a0) x)) (* (param a1) x))")
    assert parse_sexpr(text) == deep
    # the radical's generator key prints its square
    s = Radical("s", deep)
    assert normalize(s * s) == normalize(deep)


def test_a_sum_deeper_than_the_stack_pretty_prints_as_one_text():
    deep = sum([param(f"a{i}") * X for i in range(2000)], const(0))
    assert to_pretty(deep) == " + ".join(["0"] + [f"a{i}*x" for i in range(2000)])
    # its S-expression text is kept for the root alone, not for each prefix
    _clear_caches()
    to_sexpr(deep)
    assert list(kernel._TEXT_CACHE) == [deep]


def test_a_left_nested_sum_pretty_prints_as_its_flat_sum():
    # a run of left-nested sums is joined at once, to the flat sum's text
    terms = [param(f"a{i}") * X - rat(i % 3, 2) * sym("y") for i in range(4000)]
    assert to_pretty(sum(terms, const(0))) == to_pretty(Add((const(0), *terms)))
    # an empty sum inside a sum still prints as its empty text
    assert to_pretty(Add((Add(()), X))) == " + x"


def test_names_of_a_sum_deeper_than_the_stack():
    # the leaf-name walks visit a 2,000-deep sum without recursing
    deep = sum([param(f"a{i}") * X for i in range(2000)], const(0)) + sym("s")
    assert free_names(deep) == {f"a{i}" for i in range(2000)} | {"s"}
    assert symbol_names(deep) == {"s"}


@pytest.mark.parametrize("nest", [
    lambda e, i: Mul((e, param(f"a{i}"))),
    lambda e, i: Add((param(f"a{i}"), e)),
    lambda e, i: Div(e, X + i) if i % 2 else Pow(e, 1),
], ids=["left-product", "right-sum", "div-pow"])
def test_any_tree_deeper_than_the_stack_hashes_and_compares(nest):
    def build(bottom):
        e = bottom
        for i in range(3000):
            e = nest(e, i)
        return e

    a, b = build(X), build(X)
    assert hash(a) == hash(b) and a == b
    assert a != build(param("z"))


@settings(max_examples=max(150, settings.default.max_examples), deadline=None)
@given(_numeric_exprs(3))
def test_rf_is_idempotent_on_normal_forms(e):
    try:
        n = normalize(e)
    except DivisionByZeroExpr:
        assume(False)
    rf = kernel._NORMAL_CACHE[n][1]
    again = kernel._rf(rf.num, rf.den)
    assert (again.num, again.den) == (rf.num, rf.den)


@settings(max_examples=max(150, settings.default.max_examples), deadline=None)
@given(_numeric_exprs(3))
def test_normal_forms_have_radical_free_denominators(e):
    try:
        n = normalize(e)
    except DivisionByZeroExpr:
        assume(False)
    rf = kernel._NORMAL_CACHE[n][1]
    assert not kernel._poly_has_radical(rf.den)
    assert all(p == 1 for mono in rf.num for g, p in mono[1] if g[0] == 3)


def test_negative_powers_of_radicals_have_radical_free_denominators():
    # the inverse of a radical is rationalized at every step of the power
    _clear_caches()
    n = normalize(_S ** -1)
    assert to_sexpr(n) == "(/ (rad s (+ x 2)) (+ x 2))"
    assert not kernel._poly_has_radical(kernel._NORMAL_CACHE[n][1].den)
    n = normalize((_S * _S - _S / 2) ** -2)
    assert not kernel._poly_has_radical(kernel._NORMAL_CACHE[n][1].den)
    assert to_sexpr(n) == (
        "(/ (+ (* (^ x 3) (rad s (+ x 2))) (^ x 4) (* 23/4 (^ x 2) (rad s (+ x 2)))"
        " (* 8 (^ x 3)) (* 11 x (rad s (+ x 2))) (* 383/16 (^ x 2)) (* 7 (rad s (+ x 2)))"
        " (* 127/4 x) 63/4)"
        " (+ (^ x 6) (* 45/4 (^ x 5)) (* 843/16 (^ x 4)) (* 8415/64 (^ x 3))"
        " (* 5901/32 (^ x 2)) (* 2205/16 x) 343/8))"
    )


def test_caches_stay_bounded_and_results_match_cold(monkeypatch):
    limit = 16
    monkeypatch.setattr(kernel, "_NORMAL_CACHE_LIMIT", limit)
    _clear_caches()
    # each exp(a_i) is a new application generator
    exprs = [
        ((param(f"a{i}") + X) ** (i % 3 + 1) + i + exp(param(f"a{i}"))) / (X ** 2 + i + 1)
        for i in range(300)
    ]
    warm, converted = [], {}
    for e in exprs:
        warm.append(normalize(e))
        # converted sums, powers and quotients count against the bound too
        converted.update((t, rf) for t, (n, rf) in kernel._NORMAL_CACHE.items() if n is None)
        assert len(kernel._NORMAL_CACHE) <= limit + 2
        assert len(kernel._TERM_CACHE) <= limit
    assert len(converted) > limit
    for e, result in zip(exprs, warm):
        _clear_caches()
        assert normalize(e) == result
    for t, rf in converted.items():
        _clear_caches()
        cold = kernel._to_ratfunc(t)
        assert (cold.num, cold.den) == (rf.num, rf.den)


# -- one reduction per denominator, and derivatives on polynomials -----------------

# 100 examples, or more under a profile that asks for more
_FOLD_EXAMPLES = max(100, settings.default.max_examples)

# x + 1, a one-monomial denominator, and one with monomial content
_DENOMINATORS = [X + 1, param("w") ** 2, X ** 2 + X]


# numerators that can sum to a multiple of a denominator or of its content
_numerators = st.one_of(
    _numeric_exprs(1),
    st.sampled_from([X, -X, const(1), const(-1), X + 2, X ** 2 + 1, param("w") + 1]),
)


@st.composite
def _sums_over_denominators(draw):
    """Sums of quotients over one shared denominator or over a mix of them
    and one; the numerators may hold radicals and fractions of their own."""
    nums = draw(st.lists(_numerators, min_size=2, max_size=5))
    shared = draw(st.sampled_from(_DENOMINATORS + [None]))
    if shared is None:
        dens = draw(st.lists(st.sampled_from(_DENOMINATORS + [const(1)]),
                             min_size=len(nums), max_size=len(nums)))
    else:
        dens = [shared] * len(nums)
    return Add(tuple(n / d for n, d in zip(nums, dens)))


def _fold_reducing_every_term(terms):
    """The sum fold that reduces the running sum after every term."""
    one = kernel._POLY_ONE
    out = kernel._RatFunc({}, dict(one))
    for t in terms:
        b = kernel._to_ratfunc(t)
        if out.den == one and b.den == one:
            out = kernel._RatFunc(kernel._poly_add(out.num, b.num), dict(one))
        else:
            out = kernel._rf_add(out, b)
    return out


@settings(max_examples=_FOLD_EXAMPLES, deadline=None)
@given(_sums_over_denominators())
def test_sum_reduces_once_per_denominator_as_the_fold_reducing_every_term(e):
    _clear_caches()
    try:
        want = _fold_reducing_every_term(e.terms)
    except DivisionByZeroExpr:
        assume(False)
    _clear_caches()
    got = kernel._to_ratfunc(e)
    assert (got.num, got.den) == (want.num, want.den)


def _product_rule_tree(e, table):
    """The derivative tree of ``e`` with every zero term kept."""
    d = lambda f: _product_rule_tree(f, table)
    if isinstance(e, (Const, Param)):
        return const(0)
    if isinstance(e, Var):
        return const(1)
    if isinstance(e, (Sym, Radical)) and e.name in table:
        return table.get(e.name)
    if isinstance(e, Radical):
        return Div(Mul((d(e.square), e)), Mul((const(2), e.square)))
    if isinstance(e, Add):
        return Add(tuple(d(t) for t in e.terms))
    if isinstance(e, Mul):
        fs = e.factors
        return Add(tuple(Mul(fs[:k] + (d(f),) + fs[k + 1:]) for k, f in enumerate(fs)))
    if isinstance(e, Pow):
        if e.exponent == 0:
            return const(0)
        return Mul((const(e.exponent), Pow(e.base, e.exponent - 1), d(e.base)))
    if isinstance(e, Div):
        return Div(Add((Mul((d(e.num), e.den)), Mul((const(-1), e.num, d(e.den))))),
                   Pow(e.den, 2))
    return d(e.arg) * exp(e.arg)


# r' = 0, so with u' = r v the derivative of r u holds r**2
_R3 = Radical("r", const(3))
_RADICAL_TABLE = DerivationTable({"u": _R3 * _v, "v": _u})
_RATIONAL_TABLE = DerivationTable({"u": _v / (X + 1), "v": _u})

# polynomials and fractions in the symbols u and v, with radicals and
# applications from the numeric strategy
_derivable_exprs = st.one_of(
    _exprs(3),
    st.tuples(_exprs(2), _numeric_exprs(2)).map(lambda p: p[0] * p[1]),
    st.tuples(_exprs(2), _numeric_exprs(1)).map(lambda p: p[0] / (p[1] + _u)),
    st.tuples(_exprs(1), _exprs(1)).map(lambda p: _R3 * _u * p[0] + p[1]),
)


@pytest.mark.parametrize("cached", [True, False], ids=["cached", "uncached"])
@pytest.mark.parametrize("table", [_TABLE, _RADICAL_TABLE, _RATIONAL_TABLE],
                         ids=["polynomial", "polynomial-radical", "rational"])
@settings(max_examples=_FOLD_EXAMPLES, deadline=None)
@given(_derivable_exprs)
def test_derivative_of_a_normal_form_matches_its_product_rule_tree(table, cached, e):
    _clear_caches()
    try:
        n = normalize(e)
        want = to_sexpr(normalize(_product_rule_tree(n, table)))
    except DivisionByZeroExpr:
        assume(False)
    _clear_caches()
    # cached, n is the normal form object itself; uncached, an equal tree
    n = normalize(n) if cached else parse_sexpr(to_sexpr(n))
    assert to_sexpr(differentiate(n, table)) == want


def test_polynomial_derivative_path_runs_only_for_polynomial_generator_derivatives(monkeypatch):
    ran = []
    real = kernel._poly_derivative
    monkeypatch.setattr(kernel, "_poly_derivative", lambda p, d: ran.append(p) or real(p, d))
    e = (_u ** 2 + X * _v) / (_v + param("k"))
    _clear_caches()
    n = normalize(e)
    assert differentiate(n, _TABLE) == normalize(_product_rule_tree(n, _TABLE))
    assert len(ran) == 2  # the numerator and the denominator
    # v' = u / (x + 1) is a fraction, so the tree is normalized instead
    ran.clear()
    assert differentiate(n, _RATIONAL_TABLE) == normalize(_product_rule_tree(n, _RATIONAL_TABLE))
    assert ran == []
    # so is the tree of an equal input that is not in the cache
    _clear_caches()
    differentiate(parse_sexpr(to_sexpr(n)), _TABLE)
    assert ran == []


# -- records ------------------------------------------------------------------------


def _twins():
    """A record and a frozen dataclass with the same name and fields."""
    class Pair(Record):
        a: int
        b: object = None

    record = Pair

    @dataclasses.dataclass(frozen=True)
    class Pair:
        a: int
        b: object = None

    return record, Pair


def test_records_compare_and_hash_by_fields_like_frozen_dataclasses():
    record, twin = _twins()
    for cls in (record, twin):
        assert cls(1, (2,)) == cls(a=1, b=(2,)) == cls(b=(2,), a=1)
        assert cls(1) == cls(1, None) != cls(2)
        assert hash(cls(1, (2,))) == hash(cls(1, (2,))) == hash((1, (2,)))
    # another class, even with the same fields, is never equal
    other, _ = _twins()
    assert record(1).__eq__(other(1)) is NotImplemented
    assert record(1).__eq__(twin(1)) is NotImplemented
    assert twin(1).__eq__(record(1)) is NotImplemented
    assert record(1) != other(1) and record(1) != twin(1) and record(1) != (1, None)


def test_records_print_as_frozen_dataclasses():
    record, twin = _twins()
    assert repr(record(1, "b")) == repr(twin(1, "b"))
    assert repr(record(b=record(2), a=[1])) == repr(twin(b=twin(2), a=[1]))
    assert repr(record(1)).startswith("_twins.<locals>.Pair(a=1, ")


def test_records_refuse_assignment_and_deletion():
    for cls in _twins():
        value = cls(1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            value.a = 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            value.c = 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            del value.a
        assert value == cls(1)


@pytest.mark.parametrize("args, kwargs", [
    ((), {}),  # missing
    ((1, 2, 3), {}),  # surplus
    ((1,), {"c": 3}),  # unknown
    ((1,), {"a": 1}),  # repeated
], ids=["missing", "surplus", "unknown", "repeated"])
def test_records_reject_bad_fields_like_frozen_dataclasses(args, kwargs):
    for cls in _twins():
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_a_record_field_named_like_a_method_still_needs_an_argument():
    # defaults come from the class's own body, so the inherited replace
    # method is no default; a dataclass would take it as one
    class Named(Record):
        replace: int

    with pytest.raises(TypeError):
        Named()
    assert Named(3).replace == 3

    class Base:
        def replace(self):
            pass

    @dataclasses.dataclass(frozen=True)
    class Twin(Base):
        replace: int

    assert Twin().replace is Base.replace


def test_record_replace_runs_post_init_again():
    from darbouxkit.golden import DEFAULT_CONFIG, VerifyConfig
    from darbouxkit.linsys import SecondOrderFamily

    assert DEFAULT_CONFIG.replace(step=1e-3) == VerifyConfig(step=1e-3)
    assert DEFAULT_CONFIG.replace() == DEFAULT_CONFIG
    with pytest.raises(ValueError, match="step"):
        DEFAULT_CONFIG.replace(step=0)
    with pytest.raises(TypeError):
        DEFAULT_CONFIG.replace(steps=1e-3)
    family = SecondOrderFamily(p=ZERO, q=-X * X, r=ONE, w=ONE, table=DerivationTable())
    assert family.replace(q=X).q == X
    with pytest.raises(ValueError, match="w'/w"):
        family.replace(p=X)


def test_cached_properties_stay_out_of_record_identity():
    from darbouxkit.susyqm import matrix_formalism, partner_potentials

    mf = matrix_formalism(partner_potentials(X), 2)
    copy, text = mf.replace(), repr(mf)
    mf.lowering, mf.raising
    assert {"lowering", "raising"} <= set(vars(mf)) and "lowering" not in vars(copy)
    assert mf == copy == mf.replace() and hash(mf) == hash(copy)
    assert repr(mf) == repr(copy) == text
