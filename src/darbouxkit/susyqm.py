"""Witten-formalism supersymmetric quantum mechanics toys.

Superpotentials, partner potentials, shape invariance with
user-supplied reparametrization data, the 2x2 and 3x3 matrix wrappers
of the Schrodinger operator with their ladder operators, and the
harmonic-oscillator state ladder.

States stay unnormalized: the ladder construction is algebraic and
normalization constants add nothing checkable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .expr import (
    DerivationTable,
    Expr,
    KitError,
    Param,
    Sym,
    X,
    ZERO,
    ONE,
    as_expr,
    const,
    depends_on_x,
    differentiate,
    is_zero,
    normalize,
    substitute,
)
from .linsys import ExprMatrix
from .sympow import sym_power_vector


class UnsupportedOrder(KitError):
    """Only the 2x2 and 3x3 matrix formalisms exist."""


class NotShapeInvariant(KitError):
    """Partner potential differs by an x-dependent residual."""

    def __init__(self, residual: Expr):
        super().__init__(
            "partner potential is not a pure reparametrization; residual "
            + repr(residual)
        )
        self.residual = residual


@dataclass(frozen=True)
class SusyPair:
    """Superpotential with its partner potentials ``W^2 -+ W'``."""

    w: Expr
    v_minus: Expr
    v_plus: Expr


def superpotential(theta0: Expr) -> Expr:
    """``W = -theta0`` for ``theta0`` the ground-state logarithmic derivative."""
    return normalize(-theta0)


def partner_potentials(w: Expr, table: DerivationTable = DerivationTable()) -> SusyPair:
    wp = differentiate(w, table)
    return SusyPair(
        w=normalize(w),
        v_minus=normalize(w * w - wp),
        v_plus=normalize(w * w + wp),
    )


# ---------------------------------------------------------------------------
# First-order operators and operator-valued matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FirstOrderOp:
    """The operator ``f -> d_coef * f' + mul_coef * f``."""

    d_coef: Expr
    mul_coef: Expr

    def apply(self, f: Expr, table: DerivationTable) -> Expr:
        return normalize(self.d_coef * differentiate(f, table) + self.mul_coef * f)

    def compose_multiplier(self, c: Expr) -> "FirstOrderOp":
        """The operator ``f -> c * (self f)``."""
        return FirstOrderOp(normalize(c * self.d_coef), normalize(c * self.mul_coef))


def multiplier(c) -> FirstOrderOp:
    return FirstOrderOp(ZERO, as_expr(c))


def lowering_op(w: Expr) -> FirstOrderOp:
    """``d/dx + W``."""
    return FirstOrderOp(ONE, normalize(w))


def raising_op(w: Expr) -> FirstOrderOp:
    """``-d/dx + W``."""
    return FirstOrderOp(const(-1), normalize(w))


class OperatorMatrix:
    """Matrix whose entries are first-order operators."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence[FirstOrderOp]]):
        self.rows = tuple(tuple(row) for row in rows)

    def apply(self, vector: Sequence[Expr], table: DerivationTable) -> list[Expr]:
        return [
            normalize(sum((op.apply(v, table) for op, v in zip(row, vector)), ZERO))
            for row in self.rows
        ]


# ---------------------------------------------------------------------------
# Matrix formalism
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MatrixFormalism:
    """The order-2 or order-3 matrix wrapper of a partner pair.

    ``v_minus``/``v_plus`` wrap the scalar potentials; ``minus_n`` is
    the constant matrix with ``energy(lam) = lam * minus_n``; the ladder
    operators pair the scalar ``+-d/dx + W`` with a fixed matrix
    dressing.  ``v_plus - v_minus == 2 W' * minus_n`` exactly.
    """

    order: int
    v_minus: ExprMatrix
    v_plus: ExprMatrix
    minus_n: ExprMatrix
    lowering: OperatorMatrix
    raising: OperatorMatrix

    def energy(self, lam) -> ExprMatrix:
        return self.minus_n.scale(as_expr(lam)).normalized()

    def hamiltonian_apply(self, which: str, state: Sequence[Expr],
                          table: DerivationTable) -> list[Expr]:
        """Apply ``-d/dx + V`` componentwise to a state vector."""
        v = self.v_minus if which == "minus" else self.v_plus
        out = []
        for i, row in enumerate(v.rows):
            acc = -differentiate(state[i], table)
            for j, entry in enumerate(row):
                acc = acc + entry * state[j]
            out.append(normalize(acc))
        return out


def potential_matrix(v: Expr, order: int) -> ExprMatrix:
    if order == 2:
        return ExprMatrix([[ZERO, ONE], [v, ZERO]])
    if order == 3:
        return ExprMatrix([[ZERO, ONE, ZERO], [2 * v, ZERO, const(2)], [ZERO, v, ZERO]])
    raise UnsupportedOrder(f"order {order} not supported")


def matrix_formalism(pair: SusyPair, order: int,
                     table: DerivationTable = DerivationTable()) -> MatrixFormalism:
    w = pair.w
    a_low = lowering_op(w)
    a_raise = raising_op(w)
    wp = differentiate(w, table)
    zero_op = multiplier(ZERO)
    if order == 2:
        minus_n = ExprMatrix([[ZERO, ZERO], [ONE, ZERO]])
        lowering = OperatorMatrix(
            [
                [a_low, zero_op],
                [a_low.compose_multiplier(w), zero_op],
            ]
        )
        # second row: f -> 2 W' f - W (A+ f)
        raising = OperatorMatrix(
            [
                [a_raise, zero_op],
                [
                    FirstOrderOp(
                        normalize(-a_raise.d_coef * w),
                        normalize(2 * wp - w * a_raise.mul_coef),
                    ),
                    zero_op,
                ],
            ]
        )
    elif order == 3:
        minus_n = ExprMatrix([[ZERO, ZERO, ZERO], [const(2), ZERO, ZERO], [ZERO, ONE, ZERO]])
        lowering = OperatorMatrix(
            [
                [a_low.compose_multiplier(w), zero_op, multiplier(ONE)],
                [a_low.compose_multiplier(2 * w * w), zero_op, multiplier(2 * w)],
                [a_low.compose_multiplier(w ** 3), zero_op, multiplier(w * w)],
            ]
        )
        raising = OperatorMatrix(
            [
                [a_raise.compose_multiplier(w), zero_op, multiplier(ONE)],
                [a_raise.compose_multiplier(-2 * w * w), zero_op, multiplier(-2 * w)],
                [a_raise.compose_multiplier(w ** 3), zero_op, multiplier(w * w)],
            ]
        )
    else:
        raise UnsupportedOrder(f"order {order} not supported")
    return MatrixFormalism(
        order=order,
        v_minus=potential_matrix(pair.v_minus, order).normalized(),
        v_plus=potential_matrix(pair.v_plus, order).normalized(),
        minus_n=minus_n,
        lowering=lowering,
        raising=raising,
    )


# ---------------------------------------------------------------------------
# Shape invariance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParametricPotential:
    """A parametric superpotential with reparametrization data.

    ``w`` depends on x and the parameter ``a_name``; ``f`` rewrites the
    parameter for the partner; ``remainder``, if supplied, is the
    cross-parameter energy shift, validated rather than inferred (the
    inference is ill-posed when f is not invertible).
    """

    w: Expr
    a_name: str
    f: Expr
    remainder: Expr | None = None
    table: DerivationTable = DerivationTable()

    def pair(self) -> SusyPair:
        return partner_potentials(self.w, self.table)


def shape_invariance(pot: ParametricPotential) -> Expr:
    """Check ``V+(x; a) == V-(x; f(a)) + R(f(a))`` and return the shift.

    The returned expression is the remainder already evaluated at the
    reparametrized argument, i.e. ``R(f(a))`` as a function of a; it
    must be x-free, otherwise NotShapeInvariant carries the residual.
    When the potential supplies ``remainder``, the identity against it
    is verified exactly.
    """
    pair = pot.pair()
    v_minus_shifted = substitute(pair.v_minus, {pot.a_name: pot.f})
    diff = normalize(pair.v_plus - v_minus_shifted)
    if depends_on_x(diff):
        raise NotShapeInvariant(diff)
    if pot.remainder is not None:
        stated = substitute(pot.remainder, {pot.a_name: pot.f})
        if not is_zero(diff - stated):
            raise NotShapeInvariant(normalize(diff - stated))
    return diff


def spectrum_sum(pot: ParametricPotential, n: int) -> Expr:
    """Accumulated energy after n ladder steps: sum of remainders along
    the orbit ``a, f(a), f(f(a)), ...``."""
    if n < 0:
        raise ValueError(f"number of ladder steps must be nonnegative, got {n}")
    shift = shape_invariance(pot)
    a = Param(pot.a_name)
    total: Expr = ZERO
    current: Expr = a
    for _ in range(n):
        total = total + substitute(shift, {pot.a_name: current})
        current = substitute(pot.f, {pot.a_name: current})
    return normalize(total)


# ---------------------------------------------------------------------------
# Harmonic oscillator ladder
# ---------------------------------------------------------------------------


def hermite(n: int) -> Expr:
    """Explicit Hermite polynomial via H_{k+1} = 2x H_k - 2k H_{k-1}."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    h_prev, h = ONE, 2 * X
    if n == 0:
        return ONE
    for k in range(1, n):
        h_prev, h = h, normalize(2 * X * h - 2 * k * h_prev)
    return normalize(h)


GROUND_STATE = "psi0"


def oscillator_table() -> DerivationTable:
    """Register the Gaussian ground-state symbol: psi0' = -x psi0."""
    return DerivationTable({GROUND_STATE: -X * Sym(GROUND_STATE)})


def oscillator_states(n: int, order: int = 2) -> tuple[list[list[Expr]], DerivationTable]:
    """Ladder-built bound states of the W = x pair, as vectors.

    The scalar chain is ``psi_{k+1} = (-d/dx + x) psi_k`` starting from
    the Gaussian; component 1 of state k is the degree-k Hermite
    polynomial times the Gaussian, exactly.  Order 2 packs
    ``(psi, psi')``; order 3 packs ``(psi^2, 2 psi psi', psi'^2)``.
    Each state satisfies ``(-d/dx + V-) state = 2k * minus_n state``.
    """
    if n < 0:
        raise ValueError(f"number of ladder steps must be nonnegative, got {n}")
    if order not in (2, 3):
        raise UnsupportedOrder(f"order {order} not supported")
    table = oscillator_table()
    psi = Sym(GROUND_STATE)
    raise_x = raising_op(X)
    scalars = [normalize(psi)]
    for _ in range(n):
        scalars.append(raise_x.apply(scalars[-1], table))
    states = []
    for s in scalars:
        sp = differentiate(s, table)
        if order == 2:
            states.append([s, sp])
        else:
            states.append(sym_power_vector([s, sp], 2))
    return states, table
