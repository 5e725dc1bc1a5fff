"""Lifted Darboux transformations for orthogonal (so(3)) systems: the
constant Q/S gauges, each route's frame, the orthogonal lift with its
fundamental matrix, first integrals, and the Riccati parametrization of
orthogonal flows.

Two independent routes lift a second-order family to a 3x3 orthogonal
system.  The first conjugates the symmetric square of the companion
system by the constant matrix Q and scales it by w, the antiderivative
datum of p; the second first rebalances the companion state by
Delta = diag(1, w) into a traceless system and conjugates its
symmetric square by the constant matrix S.  The routes are not
equivalent unless w = 1.  ``ROUTES`` defines each route once, in both
directions: ``system`` maps a family to the flow vector of its
orthogonal system, and ``family`` maps a flow vector that satisfies the
route's constraint back to a family with that system at m = 0 (the
frame and rigid-solid applications are such vectors).  Each route has
one change of frame K (:meth:`Route.frame`: w Q, or S Sym2(Delta)), a
gauge from Sym2 of the companion system to the route's orthogonal
system, so every lift is a product with K: a 2x2 gauge G lifts to
``K Sym2(G) K^-1`` (:meth:`Route.lift`; T1 and T2 are the lifts of the
Darboux gauge) and a companion fundamental matrix X to ``K Sym2(X)``.
A lifted matrix is certified as a transformation by
:func:`~darbouxkit.linsys.gauge_residual`, with no lift of its inverse,
and a lifted fundamental matrix by K's record
(:meth:`Route.transformation`) and the Sym2 solution, without
differentiating the product (:meth:`FundamentalPair.residuals`).

Every lifted transformation matrix here is *constructed* from the
functorial definitions (symmetric powers of the 2x2 gauge), and the
closed-form entry matrices are provided separately; tests pin their
agreement.  Orientation conventions are fixed by re-deriving each
conjugation identity symbolically, never by trusting a remembered
sign.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from .expr import (
    DerivationTable,
    EMPTY_TABLE,
    Expr,
    I,
    KitError,
    ONE,
    Record,
    Sym,
    ZERO,
    as_expr,
    const,
    differentiate,
    equal,
    is_zero,
    normalize,
    rat,
)
from .linsys import ExprMatrix, LinearSystem, SecondOrderFamily, companion, residual
from .darboux import DarbouxSeed, Transformation
from .sympow import sym_group, sym_system


class NotTraceless(KitError):
    """The 2x2 matrix handed to the orthogonal correspondence has trace != 0."""


class OmegaOneZero(KitError):
    """The Riccati leading coefficient vanishes; no linear form exists."""


class NotUnitNorm(KitError):
    """The orthogonal solution does not satisfy the unit quadratic invariant."""


class RouteConstraintViolated(KitError):
    """The flow vector does not satisfy the route's defining identity."""


# The datum exp(i * integral of h) of a Q-route family, never integrated
FRAME_DATUM = "w_frame"


# The two constant gauges and their exact inverses.
Q_GAUGE = ExprMatrix([[ONE, ZERO, const(-1)], [I, ZERO, I], [ZERO, const(-1), ZERO]])
Q_GAUGE_INV = ExprMatrix(
    [[rat(1, 2), -I / 2, ZERO], [ZERO, ZERO, const(-1)], [rat(-1, 2), -I / 2, ZERO]]
)
S_GAUGE = ExprMatrix([[ONE, ZERO, ONE], [ZERO, I, ZERO], [I, ZERO, -I]])
S_GAUGE_INV = ExprMatrix(
    [[rat(1, 2), ZERO, -I / 2], [ZERO, -I, ZERO], [rat(1, 2), ZERO, I / 2]]
)


def skew_matrix(f: Expr, g: Expr, h: Expr) -> ExprMatrix:
    """The matrix of ``Z -> Z x (f, g, h)``: rows (0, h, -g; -h, 0, f; g, -f, 0)."""
    return ExprMatrix([[ZERO, h, -as_expr(g)], [-as_expr(h), ZERO, f], [g, -as_expr(f), ZERO]])


class OrthogonalSystem(Record):
    """A 3x3 system with skew coefficient matrix, ``Z' = Z x Omega``.

    ``omega = (f, g, h)`` is the vector of the flow form
    ``Z' = skew(f, g, h) Z``; :meth:`system` converts to the internal
    ``X' = -A X`` convention by negating the flow matrix.
    The quadratic form alpha^2 + beta^2 + gamma^2 is a first integral
    of any such flow, since the flow matrix is skew by construction;
    ``verify``'s ``first-integrals`` check proves it once, generically.
    """

    f: Expr
    g: Expr
    h: Expr
    table: DerivationTable = EMPTY_TABLE

    def __post_init__(self):
        object.__setattr__(self, "f", normalize(self.f))
        object.__setattr__(self, "g", normalize(self.g))
        object.__setattr__(self, "h", normalize(self.h))

    @property
    def omega(self) -> tuple[Expr, Expr, Expr]:
        return (self.f, self.g, self.h)

    def skew(self) -> ExprMatrix:
        return skew_matrix(self.f, self.g, self.h)

    def system(self) -> LinearSystem:
        # -skew is its transpose, which negates each component only once
        return LinearSystem(self.skew().transpose(), self.table)


# ---------------------------------------------------------------------------
# The sl(2) <-> so(3) correspondence
# ---------------------------------------------------------------------------


def so3_from_sym2(c: ExprMatrix, table: DerivationTable | None = None) -> OrthogonalSystem:
    """Orthogonal system matching a traceless 2x2 flow ``U' = C U``.

    ``C = (1/2) [[i h, g + i f], [-(g - i f), -i h]]``; conjugating the
    symmetric square of the flow by Q turns it into ``Z' = Z x (f,g,h)``.
    Exact inverse of :func:`sym2_from_so3`.
    """
    if not is_zero(c.trace()):
        raise NotTraceless("the 2x2 matrix must be traceless")
    f = normalize(-I * (c[0, 1] + c[1, 0]))
    g = normalize(c[0, 1] - c[1, 0])
    h = normalize(-2 * I * c[0, 0])
    return OrthogonalSystem(f, g, h, table or DerivationTable())


def sym2_from_so3(system: OrthogonalSystem) -> ExprMatrix:
    f, g, h = system.omega
    return ExprMatrix(
        [
            [I * h / 2, (g + I * f) / 2],
            [-(g - I * f) / 2, -I * h / 2],
        ]
    ).normalized()


def so3_vector_from_operator(p: Expr, q: Expr) -> tuple[Expr, Expr, Expr]:
    """Flow vector of the orthogonal system equivalent to ``y'' + p y' + q y``.

    Obtained by shifting the companion matrix to trace zero (which
    weights solutions by sqrt of the Wronskian datum) and applying
    :func:`so3_from_sym2`: ``(f, g, h) = (i(q - 1), q + 1, -i p)``.
    The sign of the third entry is forced by the conjugation identity.
    """
    return (normalize(I * (q - 1)), normalize(q + 1), normalize(-I * p))


def so3_system_first(family: SecondOrderFamily) -> OrthogonalSystem:
    """Q-route orthogonal lift of the family.

    Fundamental solutions are ``w * Q * Sym2(X)`` for X the companion
    fundamental matrix; the coefficient matrix is affine in m with the
    perturbation ``r * (0 0 -1; 0 0 i; 1 -i 0)`` in the internal
    convention.
    """
    f, g, h = so3_vector_from_operator(family.p, family.q_effective())
    return OrthogonalSystem(f, g, h, family.table)


def so3_system_second(family: SecondOrderFamily) -> OrthogonalSystem:
    """S-route orthogonal lift of the family.

    Fundamental solutions are ``S * Sym2(Delta X)`` with
    Delta = diag(1, w); no extra scaling is needed because the
    rebalanced companion system is already traceless.
    """
    q_eff = family.q_effective()
    w = family.w
    f = normalize(-(1 / w + w * q_eff))
    g = ZERO
    h = normalize(-I * (1 / w - w * q_eff))
    return OrthogonalSystem(f, g, h, family.table)


def so3_family_first(f: Expr | None, g: Expr | None, h: Expr | None,
                     table: DerivationTable) -> SecondOrderFamily:
    """Q-route family ``y'' + i h y' + (g - 1) y = 0`` (r = 1) of the flow
    vector ``(f, g, h)``, which needs ``f == i (g - 2)``; inverse of
    :func:`so3_system_first` at m = 0.  A ``None`` f or g is completed
    from the other by that constraint, ``f = -i (2 - g)`` or
    ``g = 2 - i f``.  Its datum w is 1 when h vanishes, else the
    registered :data:`FRAME_DATUM` with ``w' = i h w``.
    """
    if h is None or f is None and g is None:
        raise ValueError(f"the Q route needs {'h' if h is None else 'one of f, g'}")
    if f is None:
        f = normalize(-I * (2 - g))
    elif g is None:
        g = normalize(2 - I * f)
    elif not is_zero(f - I * (g - 2)):
        raise RouteConstraintViolated("Q route requires f == i*(g - 2)")
    w = ONE
    if not is_zero(h):
        w = Sym(FRAME_DATUM)
        table = table.extended({FRAME_DATUM: I * h * w})
    return SecondOrderFamily(p=normalize(I * h), q=normalize(g - 1), r=ONE, w=w, table=table)


def so3_family_second(f: Expr | None, g: Expr | None, h: Expr | None,
                      table: DerivationTable) -> SecondOrderFamily:
    """S-route family ``y'' - (eta'/eta) y' + (f^2 + h^2)/4 y = 0`` (r = 1,
    ``w = 2/eta``, ``eta = i h - f``) of the flow vector ``(f, g, h)``,
    which needs ``g == 0`` and ``eta != 0``; inverse of
    :func:`so3_system_second` at m = 0.  A ``None`` g is that 0.
    """
    if f is None or h is None:
        raise ValueError(f"the S route needs {'f' if f is None else 'h'}")
    if g is not None and not is_zero(g):
        raise RouteConstraintViolated("S route requires g == 0")
    eta = normalize(I * h - f)
    if is_zero(eta):
        raise RouteConstraintViolated("S route requires i*h - f != 0")
    return SecondOrderFamily(
        p=normalize(-normalize(differentiate(eta, table) / eta)),
        q=normalize((f ** 2 + h ** 2) / 4),
        r=ONE, w=normalize(2 / eta), table=table,
    )


# ---------------------------------------------------------------------------
# The two routes and the lifting rule
# ---------------------------------------------------------------------------


class Route(Record):
    """One orthogonal lift of a second-order family.

    ``conj`` (with its exact inverse) is the route's constant conjugator
    and ``exponents`` are the powers e of w in its frame
    ``K = conj diag(w^e)``: (1, 1, 1) on route Q, whose solutions carry
    the factor w, and (0, 1, 2) on route S, where
    ``diag(1, w, w^2) = Sym2(Delta)`` rebalances the companion state by
    Delta = diag(1, w).  :meth:`frame` is the route's change of frame and
    :meth:`lift` is its one lifting rule.  ``system`` is the closed-form
    lift, the reference for what :meth:`lift` constructs.  ``family`` is
    its inverse: ``system(family(f, g, h, table))`` has the flow vector
    ``(f, g, h)`` at m = 0; it completes a ``None`` component that the
    route's constraint fixes and raises ValueError for any other, and a
    vector outside the constraint raises :class:`RouteConstraintViolated`.
    """

    conj: ExprMatrix
    conj_inv: ExprMatrix
    exponents: tuple[int, int, int]
    system: Callable[[SecondOrderFamily], OrthogonalSystem]
    family: Callable[[Expr | None, Expr | None, Expr | None, DerivationTable],
                     SecondOrderFamily]

    def frame(self, family: SecondOrderFamily) -> tuple[ExprMatrix, ExprMatrix]:
        """``(K, K^-1)``, the gauge from Sym2 of the companion system to the
        route's orthogonal system: ``K = conj diag(w^e)`` and
        ``K^-1 = diag(w^-e) conj^-1``, so ``K = w Q`` on route Q and
        ``K = S Sym2(Delta) = S diag(1, w, w^2)`` on route S.  K is
        certified as that gauge by :meth:`transformation`, its record, and
        every lift ``K Sym2(X)`` by that record and the Sym2 solution
        (:meth:`FundamentalPair.residuals`)."""
        d = [family.w ** e for e in self.exponents]
        k = ExprMatrix([[c * e for c, e in zip(row, d)] for row in self.conj.rows])
        k_inv = ExprMatrix([[c / e for c in row] for e, row in zip(d, self.conj_inv.rows)])
        return k.normalized(), k_inv.normalized()

    def transformation(self, family: SecondOrderFamily) -> Transformation:
        """The frame K of :meth:`frame` as a record, from
        ``sym_system(companion(family), 2)`` to ``system(family).system()``,
        with the closed-form determinant ``det(conj) w^3``."""
        return self._transformation(family, self.system(family))

    def _transformation(self, family: SecondOrderFamily,
                        ortho: OrthogonalSystem) -> Transformation:
        # the record with the route's system already built as ortho
        return Transformation(
            sym_system(companion(family), 2),
            self.frame(family)[0],
            ortho.system(),
            normalize(self.conj.det() * family.w ** 3),
        )

    def lift(self, family: SecondOrderFamily, gauge: ExprMatrix) -> ExprMatrix:
        """The lifting rule ``G -> K Sym2(G) K^-1`` of a 2x2 gauge of the
        companion system, with K from :meth:`frame`; a scalar factor of K
        cancels, so route Q's lift is ``Q Sym2(G) Q^-1``."""
        k, k_inv = self.frame(family)
        return (k @ sym_group(gauge, 2) @ k_inv).normalized()


ROUTES = {
    "Q": Route(Q_GAUGE, Q_GAUGE_INV, (1, 1, 1), so3_system_first, so3_family_first),
    "S": Route(S_GAUGE, S_GAUGE_INV, (0, 1, 2), so3_system_second, so3_family_second),
}


def p1_explicit(family: SecondOrderFamily, seed: DarbouxSeed) -> ExprMatrix:
    """Closed-form entries of the first lifted transformation.

    The (2,1) and (3,2) signs follow from expanding
    ``Sym2((1/sqrt r)[[-theta0, 1], [nu, rho]])`` directly.
    """
    th, rho, nu, r = seed.theta0, seed.rho, seed.nu, family.r
    rows = [
        [th * th, -th, ONE],
        [-2 * th * nu, nu - th * rho, 2 * rho],
        [nu * nu, rho * nu, rho * rho],
    ]
    return ExprMatrix(rows).scale(1 / r).normalized()


def p2_explicit(family: SecondOrderFamily, seed: DarbouxSeed) -> ExprMatrix:
    """Closed-form entries of the second lifted transformation.

    Orientation in w is the one produced by conjugating with
    Delta = diag(1, w); it reduces to :func:`p1_explicit` at w = 1.
    """
    th, rho, nu, r, w = seed.theta0, seed.rho, seed.nu, family.r, family.w
    rows = [
        [th * th, -th / w, 1 / (w * w)],
        [-2 * w * th * nu, nu - th * rho, 2 * rho / w],
        [w * w * nu * nu, w * rho * nu, rho * rho],
    ]
    return ExprMatrix(rows).scale(1 / r).normalized()


def t1_explicit(family: SecondOrderFamily, seed: DarbouxSeed) -> ExprMatrix:
    th, rho, nu, r = seed.theta0, seed.rho, seed.nu, family.r
    th2, rho2, nu2 = th * th, rho * rho, nu * nu
    rows = [
        [-nu2 + rho2 + th2 - 1, I * (nu2 + rho2 - th2 - 1), 2 * (nu * rho + th)],
        [I * (nu2 - rho2 + th2 - 1), nu2 + rho2 + th2 + 1, 2 * I * (th - nu * rho)],
        [2 * (nu * th + rho), -2 * I * (nu * th - rho), 2 * (nu - th * rho)],
    ]
    return ExprMatrix(rows).scale(1 / (2 * r)).normalized()


def t2_explicit(family: SecondOrderFamily, seed: DarbouxSeed) -> ExprMatrix:
    """Closed-form entries of the second orthogonal transformation.

    The w-orientation follows :func:`p2_explicit` (conjugation by
    Delta = diag(1, w)); at w = 1 this coincides with t1 conjugated by
    S instead of Q.
    """
    th, rho, nu, r, w = seed.theta0, seed.rho, seed.nu, family.r, family.w
    th2, rho2, nu2, w2 = th * th, rho * rho, nu * nu, w * w
    rows = [
        [
            1 / w2 + rho2 + th2 + nu2 * w2,
            2 * I * (th / w - w * nu * rho),
            I * (1 / w2 + rho2 - th2 - nu2 * w2),
        ],
        [
            2 * I * (rho / w - w * nu * th),
            2 * (nu - rho * th),
            -2 * (rho / w + w * nu * th),
        ],
        [
            I * (1 / w2 - rho2 + th2 - nu2 * w2),
            -2 * (th / w + w * nu * rho),
            -1 / w2 + rho2 + th2 - nu2 * w2,
        ],
    ]
    return ExprMatrix(rows).scale(1 / (2 * r)).normalized()


# ---------------------------------------------------------------------------
# The orthogonal lift with a fundamental matrix
# ---------------------------------------------------------------------------


class FundamentalPair(Record):
    """A fundamental matrix of a route's orthogonal system, as the product
    of the route's frame record and a Sym2 solution.

    ``frame`` is :meth:`Route.transformation`, the gauge K from the Sym2
    system S2 of the companion system to the orthogonal system A;
    ``sym2`` is ``Y2 = Sym2(X)`` for X the companion fundamental matrix,
    over the solution symbols that ``table`` registers.  ``matrix`` is
    ``Z = K Y2`` and ``system`` is A over ``table``; both are built from
    those fields.  :meth:`residuals` certifies Z without differentiating
    it: by Leibniz, ``Z' + A Z = (K' + A K - K S2) Y2 + K (Y2' + S2 Y2)``,
    so a zero frame gauge residual and a zero Sym2 residual make Z a
    solution, and the frame det makes it invertible.
    """

    frame: Transformation
    sym2: ExprMatrix
    table: DerivationTable

    def __post_init__(self):
        object.__setattr__(self, "matrix", (self.frame.gauge @ self.sym2).normalized())
        object.__setattr__(self, "system", LinearSystem(self.frame.target.a, self.table))

    def residuals(self) -> Iterator[tuple[str, Expr | ExprMatrix]]:
        """The frame record's named residuals, as ``"frame det"`` and
        ``"frame gauge"``, and then ``("Sym2 Y", residual(S2, Y2))`` over
        ``table``, each of which must normalize to zero.  Lazy, as
        :meth:`~darbouxkit.darboux.Transformation.residuals` is."""
        for part, res in self.frame.residuals():
            yield f"frame {part}", res
        yield "Sym2 Y", residual(LinearSystem(self.frame.source.a, self.table), self.sym2)


def orthogonal_lift(family: SecondOrderFamily,
                    route: str) -> tuple[OrthogonalSystem, FundamentalPair]:
    """The route's orthogonal system with a fundamental matrix of it.

    The matrix is ``K Sym2(X)`` for K the route's :meth:`Route.frame` and
    X the companion fundamental matrix; :meth:`FundamentalPair.residuals`
    certifies that it satisfies ``matrix' + A matrix == 0`` exactly, by
    the route's :meth:`Route.transformation` and the Sym2 solution.
    """
    r = ROUTES[route]
    x_mat, table = family.fundamental_matrix()
    ortho = r.system(family)
    return ortho, FundamentalPair(r._transformation(family, ortho), sym_group(x_mat, 2), table)


# ---------------------------------------------------------------------------
# First integrals
# ---------------------------------------------------------------------------


def first_integral_orthogonal() -> Expr:
    """``alpha^2 + beta^2 + gamma^2``, conserved along any orthogonal flow."""
    a, b, c = Sym("alpha"), Sym("beta"), Sym("gamma")
    return a * a + b * b + c * c


def first_integral_sym2(w: Expr) -> Expr:
    """``w^2 (4 z1 z3 - z2^2)``, conserved along any lifted sym2 flow."""
    z1, z2, z3 = Sym("z1"), Sym("z2"), Sym("z3")
    return w * w * (4 * z1 * z3 - z2 * z2)


def flow_derivative(system: LinearSystem, integral: Expr,
                    names: Sequence[str]) -> Expr:
    """Symbolic derivative of ``integral`` along trajectories of the system."""
    table = system.flow_table(list(names))
    return differentiate(integral, table)


# ---------------------------------------------------------------------------
# Riccati parametrization of orthogonal flows
# ---------------------------------------------------------------------------


class RiccatiData(Record):
    """Riccati reduction ``theta' = omega0 + mu theta + omega1 theta^2``
    of an orthogonal flow, with the associated linear second-order form.

    ``omega0 = (g - i f)/2``, ``omega1 = (g + i f)/2``, ``mu = -i h``.
    Under ``u = -(1/omega1) y'/y``, solutions of the Riccati equation
    are logarithmic-derivative data of
    ``y'' - (mu + omega1'/omega1) y' + omega0 omega1 y = 0``; the
    coefficient of y' is forced by the classical change of variables.
    """

    omega0: Expr
    omega1: Expr
    mu: Expr
    table: DerivationTable

    def rhs(self, theta: Expr) -> Expr:
        return normalize(self.omega0 + self.mu * theta + self.omega1 * theta * theta)

    def linear_form(self) -> tuple[Expr, Expr]:
        """Coefficients (b, c) of ``y'' + b y' + c y = 0``."""
        if is_zero(self.omega1):
            raise OmegaOneZero("omega1 normalizes to zero; no linear form")
        d_omega1 = differentiate(self.omega1, self.table)
        b = normalize(-self.mu - d_omega1 / self.omega1)
        c = normalize(self.omega0 * self.omega1)
        return b, c


def so3_to_riccati(system: OrthogonalSystem) -> RiccatiData:
    f, g, h = system.omega
    return RiccatiData(
        omega0=normalize((g - I * f) / 2),
        omega1=normalize((g + I * f) / 2),
        mu=normalize(-I * h),
        table=system.table,
    )


def riccati_parametrize(u: Expr, v: Expr) -> tuple[Expr, Expr, Expr]:
    """Unit-norm orthogonal solution from two distinct Riccati solutions.

    ``alpha = (1 - u v)/(u - v)``, ``beta = i (1 + u v)/(u - v)``,
    ``gamma = (u + v)/(u - v)``; alpha^2 + beta^2 + gamma^2 == 1 is a
    polynomial identity.
    """
    denom = u - v
    alpha = normalize((1 - u * v) / denom)
    beta = normalize(I * (1 + u * v) / denom)
    gamma = normalize((u + v) / denom)
    return alpha, beta, gamma


def riccati_invert(alpha: Expr, beta: Expr, gamma: Expr) -> tuple[Expr, Expr]:
    """Recover (u, v) from a unit-norm orthogonal solution.

    Requires alpha^2 + beta^2 + gamma^2 == 1 exactly; behavior for
    non-unit solutions is undefined, so they are rejected.
    """
    if not equal(alpha * alpha + beta * beta + gamma * gamma, ONE):
        raise NotUnitNorm("inversion requires the unit quadratic invariant")
    u = normalize((alpha + I * beta) / (1 - gamma))
    v = normalize(-(1 - gamma) / (alpha - I * beta))
    return u, v
