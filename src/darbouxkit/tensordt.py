"""Lifted Darboux transformations for second-symmetric-power and
orthogonal (so(3)) systems: the constant Q/S gauges, the diagonal
Delta-gauge, the orthogonal lift with its fundamental matrix, first
integrals, and the Riccati parametrization of orthogonal flows.

Two independent routes lift a second-order family to a 3x3 orthogonal
system.  The first conjugates the symmetric square of the companion
system by the constant matrix Q (solutions pick up a factor w, the
antiderivative datum of p); the second first rebalances the companion
state by Delta = diag(1, w) into a traceless system and conjugates its
symmetric square by the constant matrix S.  The routes are not
equivalent unless w = 1.  ``ROUTES`` defines each route once, in both
directions: ``system`` maps a family to the flow vector of its
orthogonal system, and ``family`` maps a flow vector that satisfies the
route's constraint back to a family with that system at m = 0 (the
frame and rigid-solid applications are such vectors).  Its one lifting
rule, :meth:`Route.lift`, builds every lifted matrix, factor
pair and orthogonal fundamental matrix, at the ``sym2`` level (P1, P2)
or the ``so3`` level (T1, T2).  A lifted matrix G is certified as a
transformation by :func:`~darbouxkit.linsys.gauge_residual`, with no
lift of its inverse.

Every lifted transformation matrix here is *constructed* from the
functorial definitions (symmetric powers of the 2x2 gauge), and the
closed-form entry matrices are provided separately; tests pin their
agreement.  Orientation conventions are fixed by re-deriving each
conjugation identity symbolically, never by trusting a remembered
sign.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from .expr import (
    DerivationTable,
    Expr,
    I,
    KitError,
    ONE,
    Sym,
    ZERO,
    as_expr,
    const,
    differentiate,
    equal,
    is_zero,
    normalize,
    param_coefficients,
    rat,
)
from .linsys import ExprMatrix, LinearSystem, SecondOrderFamily
from .darboux import DarbouxSeed, darboux_gauge
from .sympow import sym_group


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


@dataclass(frozen=True)
class OrthogonalSystem:
    """A 3x3 system with skew coefficient matrix, ``Z' = Z x Omega``.

    ``omega = (f, g, h)`` is the vector of the flow form
    ``Z' = skew(f, g, h) Z``; :meth:`system` converts to the internal
    ``X' = -A X`` convention by negating the flow matrix.
    The quadratic form alpha^2 + beta^2 + gamma^2 is a first integral
    of any such flow (checked symbolically at construction).
    """

    f: Expr
    g: Expr
    h: Expr
    table: DerivationTable = field(default_factory=DerivationTable)

    def __post_init__(self):
        object.__setattr__(self, "f", normalize(self.f))
        object.__setattr__(self, "g", normalize(self.g))
        object.__setattr__(self, "h", normalize(self.h))
        # d/dx (a^2+b^2+c^2) along the flow vanishes identically
        drift = flow_derivative(self.system(), first_integral_orthogonal(),
                                ("alpha", "beta", "gamma"))
        if not is_zero(drift):
            raise KitError("quadratic invariant is not conserved; flow is not skew")

    @property
    def omega(self) -> tuple[Expr, Expr, Expr]:
        return (self.f, self.g, self.h)

    def skew(self) -> ExprMatrix:
        return skew_matrix(self.f, self.g, self.h)

    def system(self) -> LinearSystem:
        return LinearSystem(self.skew().scale(const(-1)), self.table)

    def m_split(self, m_name: str) -> tuple[ExprMatrix, ExprMatrix]:
        """Split the internal coefficient matrix as base + m * perturbation."""
        base_rows, pert_rows = [], []
        for row in self.system().a.rows:
            base_row, pert_row = [], []
            for e in row:
                coeffs = param_coefficients(e, m_name)
                base_row.append(coeffs.get(0, ZERO))
                pert_row.append(coeffs.get(1, ZERO))
                if any(k > 1 for k in coeffs):
                    raise KitError("coefficient matrix is not affine in the parameter")
            base_rows.append(base_row)
            pert_rows.append(pert_row)
        return ExprMatrix(base_rows), ExprMatrix(pert_rows)


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


def so3_family_first(f: Expr, g: Expr, h: Expr, table: DerivationTable) -> SecondOrderFamily:
    """Q-route family ``y'' + i h y' + (g - 1) y = 0`` (r = 1) of the flow
    vector ``(f, g, h)``, which needs ``f == i (g - 2)``; inverse of
    :func:`so3_system_first` at m = 0.  Its datum w is 1 when h vanishes,
    else the registered :data:`FRAME_DATUM` with ``w' = i h w``.
    """
    if not is_zero(f - I * (g - 2)):
        raise RouteConstraintViolated("Q route requires f == i*(g - 2)")
    w = ONE
    if not is_zero(h):
        w = Sym(FRAME_DATUM)
        table = table.extended({FRAME_DATUM: I * h * w})
    return SecondOrderFamily(p=normalize(I * h), q=normalize(g - 1), r=ONE, w=w, table=table)


def so3_first_complete(f: Expr | None, g: Expr | None) -> tuple[Expr, Expr]:
    """The pair ``(f, g)`` of a Q-route flow vector, the missing one
    completed by the route's constraint ``f == i (g - 2)``: ``f = -i (2 - g)``
    or ``g = 2 - i f``.  Two given values are returned as they are, for
    :func:`so3_family_first` to check; at least one is needed."""
    if f is None and g is None:
        raise ValueError("the Q route needs f or g to complete the other")
    if f is None:
        return normalize(-I * (2 - g)), g
    if g is None:
        return f, normalize(2 - I * f)
    return f, g


def so3_family_second(f: Expr, g: Expr, h: Expr, table: DerivationTable) -> SecondOrderFamily:
    """S-route family ``y'' - (eta'/eta) y' + (f^2 + h^2)/4 y = 0`` (r = 1,
    ``w = 2/eta``, ``eta = i h - f``) of the flow vector ``(f, g, h)``,
    which needs ``g == 0`` and ``eta != 0``; inverse of
    :func:`so3_system_second` at m = 0.
    """
    if not is_zero(g):
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


def delta_gauge(family: SecondOrderFamily) -> ExprMatrix:
    return ExprMatrix.diagonal([ONE, family.w])


LEVELS = ("sym2", "so3")


@dataclass(frozen=True)
class Route:
    """One orthogonal lift of a second-order family.

    ``conj`` (with its exact inverse) carries symmetric squares to the
    orthogonal system.  A ``balanced`` route first conjugates all 2x2
    data by Delta = diag(1, w), making the companion system traceless;
    the other route scales its solutions by w instead.  ``system`` is
    the closed-form lift, the reference for what :meth:`lift` constructs.
    ``family`` is its inverse: ``system(family(f, g, h, table))`` has the
    flow vector ``(f, g, h)`` at m = 0, and a vector outside the route's
    constraint raises :class:`RouteConstraintViolated`.
    """

    conj: ExprMatrix
    conj_inv: ExprMatrix
    balanced: bool
    system: Callable[[SecondOrderFamily], OrthogonalSystem]
    family: Callable[[Expr, Expr, Expr, DerivationTable], SecondOrderFamily]

    def lift(self, family: SecondOrderFamily, mat: ExprMatrix, level: str = "so3",
             left: bool = True, right: bool = True) -> ExprMatrix:
        """The lifting rule ``M -> C Sym2(D M D^-1) C^-1``.

        D is Delta on a balanced route and C the route's conjugator at the
        ``so3`` level; either is the identity otherwise.  ``left``/``right``
        keep only one side, so a factor pair (L, R) lifts to
        ``(C Sym2(D L), Sym2(R D^-1) C^-1)``.  Each stage is normalized
        before the next.
        """
        if level not in LEVELS:
            raise ValueError(f"unknown lift level {level!r}")

        def conjugate(m: ExprMatrix, c: ExprMatrix, c_inv: ExprMatrix) -> ExprMatrix:
            if left:
                m = c @ m
            if right:
                m = m @ c_inv
            return m.normalized()

        if self.balanced:
            d_inv = ExprMatrix.diagonal([ONE, normalize(1 / family.w)])
            mat = conjugate(mat, delta_gauge(family), d_inv)
        mat = sym_group(mat, 2)
        if level == "so3":
            mat = conjugate(mat, self.conj, self.conj_inv)
        return mat


ROUTES = {
    "Q": Route(Q_GAUGE, Q_GAUGE_INV, False, so3_system_first, so3_family_first),
    "S": Route(S_GAUGE, S_GAUGE_INV, True, so3_system_second, so3_family_second),
}


def lifted_matrix(family: SecondOrderFamily, seed: DarbouxSeed, route: str,
                  level: str = "so3") -> ExprMatrix:
    """Lift of the 2x2 Darboux gauge along ``route``.

    At the ``sym2`` level this is P1 = Sym2(P) (route Q) or
    P2 = Sym2(Delta P Delta^-1) (route S); at the ``so3`` level the
    orthogonal transformation T1 = Q P1 Q^-1 or T2 = S P2 S^-1.
    """
    return ROUTES[route].lift(family, darboux_gauge(family, seed).p_m, level)


def lifted_factors(family: SecondOrderFamily, seed: DarbouxSeed, route: str,
                   level: str = "so3") -> tuple[ExprMatrix, ExprMatrix]:
    """The lift of the factorization ``P = L R``; its product is :func:`lifted_matrix`."""
    r, g = ROUTES[route], darboux_gauge(family, seed)
    return (r.lift(family, g.l_m, level, right=False),
            r.lift(family, g.r_factor, level, left=False))


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


@dataclass(frozen=True)
class FundamentalPair:
    matrix: ExprMatrix
    system: LinearSystem


def orthogonal_lift(family: SecondOrderFamily,
                    route: str) -> tuple[OrthogonalSystem, FundamentalPair]:
    """The route's orthogonal system with a fundamental matrix of it.

    The matrix is the left side of the lifting rule, ``C Sym2(D X)`` for
    X the companion fundamental matrix, times w on the unbalanced route;
    it satisfies ``matrix' + A matrix == 0`` exactly.
    """
    r = ROUTES[route]
    x_mat, table = family.fundamental_matrix()
    z_mat = r.lift(family, x_mat, right=False)
    if not r.balanced:
        z_mat = z_mat.scale(family.w).normalized()
    ortho = r.system(family)
    return ortho, FundamentalPair(z_mat, LinearSystem(ortho.system().a, table))


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


@dataclass(frozen=True)
class RiccatiData:
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
