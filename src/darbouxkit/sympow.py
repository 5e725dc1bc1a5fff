"""Symmetric-power functors on matrices, systems, and solution vectors.

Two flavours act on the span of degree-m monomials in X_1..X_n, ordered
``X_1^m, X_1^{m-1} X_2, ..., X_n^m``:

* the group-sense power ``sym_group`` represents linear substitution
  ``X_j -> sum_i M[i][j] X_i`` (a group morphism), and
* the Lie-sense power ``sym_lie`` represents the derivation
  ``D_M = sum_j (sum_i M[i][j] X_i) d/dX_j`` (a Lie-algebra morphism).

Columns of either matrix are coefficient vectors on the monomial basis.
Solution vectors such as ``(y^2, 2 y y', y'^2)`` are coefficient
vectors of substituted monomials, so the factor 2 in the middle entry
comes from expansion; ``sym_power_vector`` builds them.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import factorial

from .expr import Expr, ZERO, ONE, const, differentiate, normalize
from .linsys import ExprMatrix, LinearSystem, SecondOrderFamily


def monomial_basis(n: int, m: int) -> list[tuple[int, ...]]:
    """Exponent tuples of the degree-m monomials, lexicographically descending."""
    if m < 1:
        raise ValueError("degree must be at least 1")
    exps = []
    for combo in combinations_with_replacement(range(n), m):
        e = [0] * n
        for idx in combo:
            e[idx] += 1
        exps.append(tuple(e))
    return sorted(exps, reverse=True)


def sym_power_vector(values: list[Expr], m: int) -> list[Expr]:
    """Coefficient vector of ``(v_1 X_1 + ... + v_n X_n)^m``.

    For n = 2, m = 2 and values (y, y') this is ``(y^2, 2 y y', y'^2)``.
    """
    n = len(values)
    basis = monomial_basis(n, m)
    out = []
    for e in basis:
        coeff = factorial(m)
        term: Expr = const(1)
        for vi, ei in zip(values, e):
            coeff //= factorial(ei)
            for _ in range(ei):
                term = term * vi
        out.append(normalize(const(coeff) * term))
    return out


def _substituted_monomial(exponents: tuple[int, ...], images: list[dict]) -> dict:
    """Expand prod_j (image of X_j)^{e_j} as exponent-tuple -> Expr."""
    n = len(exponents)
    acc: dict[tuple[int, ...], Expr] = {tuple([0] * n): ONE}
    for j, e_j in enumerate(exponents):
        for _ in range(e_j):
            nxt: dict[tuple[int, ...], Expr] = {}
            for mono, coeff in acc.items():
                for mono2, coeff2 in images[j].items():
                    key = tuple(a + b for a, b in zip(mono, mono2))
                    term = coeff * coeff2
                    nxt[key] = nxt.get(key, ZERO) + term
            acc = nxt
    return acc


def sym_group(mat: ExprMatrix, m: int) -> ExprMatrix:
    """Group-sense symmetric power; functorial in matrix products."""
    n = mat.nrows
    basis = monomial_basis(n, m)
    index = {e: k for k, e in enumerate(basis)}
    unit = [tuple(1 if t == i else 0 for t in range(n)) for i in range(n)]
    # image of X_j is the linear form sum_i M[i][j] X_i
    images = [
        {unit[i]: mat.rows[i][j] for i in range(n)}
        for j in range(n)
    ]
    cols = []
    for e in basis:
        expanded = _substituted_monomial(e, images)
        col = [ZERO] * len(basis)
        for mono, coeff in expanded.items():
            col[index[mono]] = coeff
        cols.append(col)
    return ExprMatrix(list(zip(*cols))).normalized()


def sym_lie(mat: ExprMatrix, m: int) -> ExprMatrix:
    """Lie-sense symmetric power; a Lie-algebra morphism."""
    n = mat.nrows
    basis = monomial_basis(n, m)
    index = {e: k for k, e in enumerate(basis)}
    cols = []
    for e in basis:
        col = [ZERO] * len(basis)
        # D_M(X^e) = sum_j e_j X^{e - delta_j} * (sum_i M[i][j] X_i)
        for j in range(n):
            if e[j] == 0:
                continue
            for i in range(n):
                coeff = mat.rows[i][j]
                target = list(e)
                target[j] -= 1
                target[i] += 1
                key = tuple(target)
                col[index[key]] = col[index[key]] + const(e[j]) * coeff
        cols.append(col)
    return ExprMatrix(list(zip(*cols))).normalized()


def sym_system(system: LinearSystem, m: int) -> LinearSystem:
    """Lifted system: if X solves [A], ``sym_group(X, m)`` solves the result."""
    return LinearSystem(sym_lie(system.a, m), system.table)


def sym2_operator(family: SecondOrderFamily) -> tuple[Expr, Expr, Expr]:
    """Coefficients (a2, a1, a0) of the second symmetric power operator.

    The third-order operator ``d3 + a2 d2 + a1 d + a0`` annihilates
    products of two solutions of ``d2 + p d + q_eff`` with
    ``q_eff = q - m r`` (the parameter stays symbolic):
    ``a2 = 3p``, ``a1 = 4q_eff + p' + 2p^2``, ``a0 = 2(q_eff' + 2 p q_eff)``.
    """
    p, q = family.p, family.q_effective()
    pprime = differentiate(p, family.table)
    qprime = differentiate(q, family.table)
    a2 = normalize(3 * p)
    a1 = normalize(4 * q + pprime + 2 * p * p)
    a0 = normalize(2 * (qprime + 2 * p * q))
    return a2, a1, a0
