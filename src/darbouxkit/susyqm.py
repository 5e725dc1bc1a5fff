"""Witten-formalism supersymmetric quantum mechanics toys.

Superpotentials, partner potentials, shape invariance with
user-supplied reparametrization data, the matrix wrappers of the
Schrodinger operator with their ladders at every order >= 2, as
symmetric powers (ladder convention ``E = -m``), and the
harmonic-oscillator state ladder.

States stay unnormalized: the ladder construction is algebraic and
normalization constants add nothing checkable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
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
from .darboux import Transformation, darboux_transformation, make_seed
from .linsys import ExprMatrix, SecondOrderFamily
from .sympow import sym_lie, sym_power_vector


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


@dataclass(frozen=True)
class FirstOrderOp:
    """The operator ``f -> d_coef * f' + mul_coef * f``."""

    d_coef: Expr
    mul_coef: Expr

    def apply(self, f: Expr, table: DerivationTable) -> Expr:
        return normalize(self.d_coef * differentiate(f, table) + self.mul_coef * f)


def raising_op(w: Expr) -> FirstOrderOp:
    """``-d/dx + W``."""
    return FirstOrderOp(const(-1), normalize(w))


# ---------------------------------------------------------------------------
# Matrix formalism
# ---------------------------------------------------------------------------


def _power(order: int) -> int:
    """The symmetric power ``order - 1`` behind an order-``order`` wrapper."""
    if order < 2:
        raise ValueError(f"matrix formalism order must be at least 2, got {order}")
    return order - 1


def _partner_transformation(v: Expr, theta0: Expr, table: DerivationTable) -> Transformation:
    """The Darboux transformation of ``-d2 + v`` with the seed ``theta0``, over ``m``."""
    family = SecondOrderFamily(p=ZERO, q=normalize(-v), r=ONE, w=ONE, table=table)
    return darboux_transformation(family, make_seed(family, theta0))


@dataclass(frozen=True)
class MatrixFormalism:
    """The matrix wrapper of a partner pair at every order >= 2, as symmetric powers.

    With ``k = order - 1``, ``v_minus``/``v_plus`` are the Lie-sense
    ``Sym^k`` of the Schrodinger companion ``[[0, 1], [V, 0]]`` and
    ``minus_n`` that of ``[[0, 0], [1, 0]]``; ``energy(lam) = lam *
    minus_n`` and ``v_plus - v_minus == 2 W' * minus_n`` exactly.
    States are packed as ``Sym^k(psi, psi')``.

    The ladders, built on first use, are the ``Sym^k`` records
    (:meth:`~darbouxkit.darboux.Transformation.sym`) of Darboux
    transformations over the family parameter ``m`` of
    ``-psi'' + V psi = E psi``, with ``E = -m``, between the Lie-sense
    ``Sym^k`` companions of the two partners; their ``gauge`` matrices
    have first rows ``A = d/dx + W`` (``lowering``, seed ``-W`` on
    ``V-``, so ``A H- = H+ A``) and ``A+ = -d/dx + W`` (``raising``,
    minus the gauge of seed ``W`` on ``V+``, with the same determinant).
    ``raising.gauge @ lowering.gauge = (-m)^k I``.
    """

    order: int
    pair: SusyPair
    table: DerivationTable
    v_minus: ExprMatrix
    v_plus: ExprMatrix
    minus_n: ExprMatrix

    @cached_property
    def lowering(self) -> Transformation:
        t = _partner_transformation(self.pair.v_minus, -self.pair.w, self.table)
        return t.sym(self.order - 1)

    @cached_property
    def raising(self) -> Transformation:
        t = _partner_transformation(self.pair.v_plus, self.pair.w, self.table)
        return replace(t, gauge=t.gauge.scale(const(-1))).sym(self.order - 1)

    def energy(self, lam) -> ExprMatrix:
        return self.minus_n.scale(as_expr(lam)).normalized()

    def hamiltonian_apply(self, which: str, state: Sequence[Expr],
                          table: DerivationTable) -> list[Expr]:
        """Apply ``-d/dx + V`` componentwise to a state vector, with ``V``
        the ``"minus"`` or the ``"plus"`` potential matrix."""
        if which not in ("minus", "plus"):
            raise ValueError(f"which must be 'minus' or 'plus', got {which!r}")
        v = self.v_minus if which == "minus" else self.v_plus
        out = []
        for i, row in enumerate(v.rows):
            acc = -differentiate(state[i], table)
            for j, entry in enumerate(row):
                acc = acc + entry * state[j]
            out.append(normalize(acc))
        return out


def potential_matrix(v: Expr, order: int) -> ExprMatrix:
    """The Lie-sense ``Sym^(order-1)`` of ``[[0, 1], [v, 0]]``."""
    return sym_lie(ExprMatrix([[ZERO, ONE], [v, ZERO]]), _power(order))


def matrix_formalism(pair: SusyPair, order: int,
                     table: DerivationTable = DerivationTable()) -> MatrixFormalism:
    return MatrixFormalism(
        order=order, pair=pair, table=table,
        v_minus=potential_matrix(pair.v_minus, order),
        v_plus=potential_matrix(pair.v_plus, order),
        minus_n=sym_lie(ExprMatrix([[ZERO, ZERO], [ONE, ZERO]]), _power(order)),
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
    polynomial times the Gaussian, exactly.  Every order packs
    ``Sym^(order-1)(psi, psi')``: ``(psi, psi')`` at order 2,
    ``(psi^2, 2 psi psi', psi'^2)`` at order 3.  Each state satisfies
    ``(-d/dx + V-) state = 2k * minus_n state``.
    """
    if n < 0:
        raise ValueError(f"number of ladder steps must be nonnegative, got {n}")
    power = _power(order)
    table = oscillator_table()
    psi = Sym(GROUND_STATE)
    raise_x = raising_op(X)
    scalars = [normalize(psi)]
    for _ in range(n):
        scalars.append(raise_x.apply(scalars[-1], table))
    states = [sym_power_vector([s, differentiate(s, table)], power) for s in scalars]
    return states, table
