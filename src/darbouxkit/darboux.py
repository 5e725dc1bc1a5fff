"""The classical Darboux transformation as potential map, solution map,
and factored gauge matrix, plus chain iteration.

Given the family ``y'' + p y' + (q - m r) y = 0`` and a seed
``theta0 = y0'/y0`` built from a solution at parameter value ``level``
(zero in the classical statement), the transformation produces a family
with the same p, r, and m-dependence and a new potential ``q + q0``.
The parameter stays symbolic throughout: the gauge matrix degenerates
exactly at ``m = level`` (its determinant is ``-(m - level)``), so
specialization happens only at evaluation time.

A :class:`Transformation` records a gauge between two systems with its
closed-form determinant and owns their certificate; the Darboux
transformation is one (:func:`darboux_transformation`), and
:meth:`Transformation.sym` carries any record to its symmetric powers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb
from typing import Callable, Iterator

from .expr import (
    DerivationTable,
    Expr,
    KitError,
    Sym,
    ZERO,
    as_expr,
    depends_on_x,
    differentiate,
    is_zero,
    normalize,
)
from .linsys import ExprMatrix, LinearSystem, SecondOrderFamily, companion, gauge_residual
from .sympow import sym_group, sym_system


class SeedNotSolution(KitError):
    """The candidate seed fails its Riccati certificate."""


@dataclass(frozen=True)
class DarbouxSeed:
    """Seed data for one transformation step.

    ``theta0`` is the logarithmic derivative of a solution of the family
    at parameter value ``level``; the certificate
    ``theta0' = -(q - level*r) - p*theta0 - theta0^2`` is checked at
    construction.  ``rho = -theta0 - p - r'/(2r)`` and
    ``nu = (m - level)*r - theta0*rho`` are the derived quantities that
    populate every transformation matrix.
    """

    theta0: Expr
    rho: Expr
    nu: Expr
    level: Expr


def riccati_defect(family: SecondOrderFamily, theta0: Expr, level: Expr = ZERO) -> Expr:
    """Normalized ``theta0' + (q - level*r) + p*theta0 + theta0^2``."""
    d = differentiate(theta0, family.table)
    q_eff = family.q - as_expr(level) * family.r
    return normalize(d + q_eff + family.p * theta0 + theta0 * theta0)


def make_seed(family: SecondOrderFamily, theta0: Expr, level: Expr = ZERO) -> DarbouxSeed:
    theta0 = normalize(theta0)
    level = normalize(as_expr(level))
    defect = riccati_defect(family, theta0, level)
    if not is_zero(defect):
        raise SeedNotSolution(
            "seed fails the Riccati certificate; defect normalizes to "
            + repr(defect)
        )
    r_hat = differentiate(family.r, family.table) / (2 * family.r)
    rho = normalize(-theta0 - family.p - r_hat)
    nu = normalize((family.m - level) * family.r - theta0 * rho)
    return DarbouxSeed(theta0=theta0, rho=rho, nu=nu, level=level)


def auto_level_seed(family: SecondOrderFamily, theta0: Expr) -> DarbouxSeed:
    """Seed from theta0 alone, solving for the parameter value it certifies.

    ``level = (theta0' + q + p theta0 + theta0^2)/r`` must be free of
    the variable; this recovers seeds taken anywhere in the family, not
    just at parameter value zero (spectra shift along chains).
    """
    theta0 = normalize(theta0)
    defect0 = riccati_defect(family, theta0, ZERO)
    level = normalize(defect0 / family.r)
    if depends_on_x(level):
        raise SeedNotSolution(
            "theta0 does not certify any parameter value; residual "
            + repr(defect0)
        )
    return make_seed(family, theta0, level)


def attach_generic_seed(
    family: SecondOrderFamily, name: str = "theta0"
) -> tuple[SecondOrderFamily, DarbouxSeed]:
    """Adjoin a fresh symbol certified by the Riccati rewrite at level 0.

    The returned family carries the extended derivation table, so the
    transformed potential remains differentiable.
    """
    theta = Sym(name)
    if name in family.table:
        raise KitError(f"symbol {name!r} already has a table entry")
    entry = normalize(-family.q - family.p * theta - theta * theta)
    fam = replace(family, table=family.table.extended({name: entry}))
    return fam, make_seed(fam, theta)


def generic_seed(family: SecondOrderFamily, idx: int) -> tuple[SecondOrderFamily, DarbouxSeed]:
    """Seed rule for ``darboux_chain``: adjoin the symbol ``theta0_<idx>``
    at step idx (``attach_generic_seed``)."""
    return attach_generic_seed(family, name=f"theta0_{idx}")


def potential_shift(family: SecondOrderFamily, seed: DarbouxSeed) -> Expr:
    """The additive change ``q0`` of the potential.

    With ``rh = r'/(2r)``:

        q0 = 2*theta0' + rh' + p' - rh*(rh + p + 2*theta0)

    This is the expansion of the classical closed form
    ``q~ = u * (p/u - (1/u)')'`` with ``u = y0*sqrt(r)``; see
    ``potential_shift_compact`` for that route.
    """
    table = family.table
    theta0 = seed.theta0
    r_hat = normalize(differentiate(family.r, table) / (2 * family.r))
    q0 = (
        2 * differentiate(theta0, table)
        + differentiate(r_hat, table)
        + differentiate(family.p, table)
        - r_hat * (r_hat + family.p + 2 * theta0)
    )
    return normalize(q0)


def potential_compact(family: SecondOrderFamily, seed: DarbouxSeed) -> Expr:
    """The transformed potential via ``u*(p/u - (1/u)')'`` with ``u = y0*sqrt(r)``.

    A scratch symbol realizes y0 through ``y0' = theta0*y0``; the result
    is independent of it.  Useful as a cross-check of potential_shift.
    """
    y0 = Sym("_y0_compact")
    table = family.table.extended({y0.name: seed.theta0 * y0})
    u = y0 * family.sqrt_r
    inner = normalize(family.p / u - differentiate(normalize(1 / u), table))
    return normalize(u * differentiate(inner, table))


def darboux_potential(family: SecondOrderFamily, seed: DarbouxSeed) -> SecondOrderFamily:
    """Transformed family: same p, r, m-dependence, potential ``q + q0``."""
    q0 = potential_shift(family, seed)
    return replace(family, q=normalize(family.q + q0))


def darboux_solution(
    family: SecondOrderFamily,
    seed: DarbouxSeed,
    y: Expr,
    table: DerivationTable | None = None,
) -> Expr:
    """Map a solution ``y`` of the family to ``(y' - theta0 y)/sqrt(r)``.

    ``y`` is usually an abstract solution symbol registered via
    ``family.solution_symbols``; the result then has residual zero under
    the transformed operator, for symbolic ``m != level``.  The seed's
    own solution maps to zero.
    """
    table = table if table is not None else family.table
    yprime = differentiate(y, table)
    return normalize((yprime - seed.theta0 * y) / family.sqrt_r)


@dataclass(frozen=True)
class DarbouxGauge:
    """The gauge matrix of the transformation with its factorization.

    ``p_m = l_m @ r_factor`` exactly;
    ``p_m = (1/sqrt(r)) [[-theta0, 1], [nu, rho]]`` has determinant
    ``-(m - level)``.  New solutions arise as ``X~ = p_m X``: with A
    the companion matrix of the family and A~ that of the transformed
    family, ``A~ p_m - p_m A + p_m' = 0``; :func:`darboux_transformation`
    records ``p_m`` with that certificate.
    """

    p_m: ExprMatrix
    l_m: ExprMatrix
    r_factor: ExprMatrix


def darboux_gauge(family: SecondOrderFamily, seed: DarbouxSeed) -> DarbouxGauge:
    s = family.sqrt_r
    theta0, rho, nu = seed.theta0, seed.rho, seed.nu
    p_m = ExprMatrix([[-theta0 / s, 1 / s], [nu / s, rho / s]])
    l_m = ExprMatrix([[ZERO, 1], [(family.m - seed.level) * family.r, rho]])
    r_factor = ExprMatrix([[1 / s, ZERO], [-theta0 / s, 1 / s]])
    return DarbouxGauge(
        p_m=p_m.normalized(), l_m=l_m.normalized(), r_factor=r_factor.normalized()
    )


@dataclass(frozen=True)
class Transformation:
    """A gauge ``X -> gauge X`` from ``source`` to ``target``, with ``det``
    the closed-form determinant of ``gauge``.

    :meth:`residuals` is its certificate: ``det`` proves the gauge
    invertible, and then :func:`~darbouxkit.linsys.gauge_residual`
    proves that it carries solutions of ``source`` to solutions of
    ``target`` without forming an inverse.
    """

    source: LinearSystem
    gauge: ExprMatrix
    target: LinearSystem
    det: Expr

    def residuals(self) -> Iterator[tuple[str, Expr | ExprMatrix]]:
        """The named residuals ``("det", det gauge - det)`` and then
        ``("gauge", gauge_residual(source, gauge, target))``, each of
        which must normalize to zero.  Lazy: a caller that stops at a
        failed ``det`` never computes the gauge residual."""
        yield "det", self.gauge.det() - self.det
        yield "gauge", gauge_residual(self.source, self.gauge, self.target)

    def sym(self, k: int) -> "Transformation":
        """The ``Sym^k`` of the transformation: ``sym_group(gauge, k)``
        between the ``sym_system``s, with determinant
        ``det^(k C(n+k-1, k)/n)`` for an n x n gauge (``det^(k(k+1)/2)``
        for 2 x 2)."""
        n = self.gauge.nrows
        return Transformation(
            sym_system(self.source, k),
            sym_group(self.gauge, k),
            sym_system(self.target, k),
            normalize(self.det ** (k * comb(n + k - 1, k) // n)),
        )


def darboux_transformation(family: SecondOrderFamily, seed: DarbouxSeed) -> Transformation:
    """The record of the transformation: the gauge ``P`` of
    :func:`darboux_gauge` from the companion system of ``family`` to
    that of :func:`darboux_potential`, with ``det P = level - m``."""
    return Transformation(
        companion(family),
        darboux_gauge(family, seed).p_m,
        companion(darboux_potential(family, seed)),
        normalize(seed.level - family.m),
    )


@dataclass(frozen=True)
class ChainStep:
    family: SecondOrderFamily
    seed: DarbouxSeed | None


def darboux_chain(
    family: SecondOrderFamily,
    seed_rule: Callable[[SecondOrderFamily, int], tuple[SecondOrderFamily, DarbouxSeed]],
    k: int,
) -> list[ChainStep]:
    """Iterate the transformation ``k`` times.

    ``seed_rule(family, i)`` certifies step i from the family it leaves:
    it returns that family, possibly with an extended derivation table
    (as ``attach_generic_seed`` does), and the seed, for example
    ``make_seed`` at a chosen level or ``auto_level_seed``;
    ``generic_seed`` is such a rule.  Returns k+1
    steps; step 0 starts from the input family and each step records the
    seed that leaves it.  A SeedNotSolution names the failing step.
    """
    if k < 0:
        raise ValueError("chain length must be nonnegative")
    steps: list[ChainStep] = []
    for idx in range(k):
        try:
            family, seed = seed_rule(family, idx)
        except SeedNotSolution as exc:
            raise SeedNotSolution(f"chain step {idx}: {exc}") from exc
        steps.append(ChainStep(family, seed))
        family = darboux_potential(family, seed)
    steps.append(ChainStep(family, None))
    return steps
