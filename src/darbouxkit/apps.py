"""Frame and rigid-solid applications of the orthogonal lifts.

An application is a second-order family on an orthogonal route.
``FrenetData.family`` maps curvature/torsion data (moving frames) and
``RigidData.family`` maps planar angular-velocity data (the Poisson
kinematic equation) to that family; neither builds anything else.  What
a route lifts to is defined in ``tensordt.ROUTES``; a caller that reads
the lift builds it with ``tensordt.orthogonal_lift(family, route)``.
``application_chain`` lifts ``darboux_chain`` along a route.

Both applications restrict to r = 1.  The frame antiderivative datum
``exp(i * integral of kappa)`` is a registered symbol with derivative
``i kappa w``; no symbolic integration is attempted because only the
logarithmic derivative ever enters a formula.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .expr import (
    DerivationTable,
    Expr,
    I,
    KitError,
    ONE,
    Sym,
    ZERO,
    as_expr,
    differentiate,
    is_zero,
    normalize,
)
from .linsys import ExprMatrix, SecondOrderFamily
from .darboux import DarbouxSeed, darboux_chain
from .tensordt import ROUTES, OrthogonalSystem, lifted_matrix


class RouteConstraintViolated(KitError):
    """The data does not satisfy the route's defining identity."""


FRAME_DATUM = "w_frame"


@dataclass(frozen=True)
class FrenetData:
    """Curvature and torsion of a space curve with a route choice.

    The Q route only represents frames with ``tau == -2i`` (the
    degenerate coupled case); the S route handles any frame with
    ``i kappa - tau`` nonzero.
    """

    kappa: Expr
    tau: Expr
    route: str
    table: DerivationTable = field(default_factory=DerivationTable)

    def __post_init__(self):
        if self.route not in ROUTES:
            raise ValueError(f"unknown route {self.route!r}")
        if self.route == "Q" and not is_zero(self.tau + 2 * I):
            raise RouteConstraintViolated("Q route requires tau == -2i")
        if self.route == "S" and is_zero(I * self.kappa - self.tau):
            raise RouteConstraintViolated("S route requires i*kappa - tau != 0")

    def family(self) -> SecondOrderFamily:
        """Second-order family behind the frame equations, on either route.

        Q route: ``y'' + i kappa y' - y = 0`` with the registered frame
        datum; S route: ``y'' - (eta'/eta) y' + (kappa^2 + tau^2)/4 y = 0``
        with ``eta = i kappa - tau`` and ``w = 2/eta``.  The orthogonal
        system's flow vector reproduces ``(tau, 0, kappa)`` at m = 0.
        """
        if self.route == "Q":
            w = Sym(FRAME_DATUM)
            table = self.table.extended({FRAME_DATUM: I * self.kappa * w})
            return SecondOrderFamily(
                p=normalize(I * self.kappa), q=normalize(as_expr(-1)), r=ONE,
                w=w, table=table,
            )
        eta = normalize(I * self.kappa - self.tau)
        w = normalize(2 / eta)
        return SecondOrderFamily(
            p=normalize(-_log_derivative(eta, self.table)),
            q=normalize((self.kappa ** 2 + self.tau ** 2) / 4),
            r=ONE, w=w, table=self.table,
        )


@dataclass(frozen=True)
class RigidData:
    """Planar angular-velocity components with a route choice.

    The Q route represents the coupled case ``i omega1 + omega2 == 2``;
    the S route represents motion on a line (``omega2 == 0``) with
    ``omega1`` nonzero.
    """

    omega1: Expr
    omega2: Expr
    route: str
    table: DerivationTable = field(default_factory=DerivationTable)

    def __post_init__(self):
        if self.route not in ROUTES:
            raise ValueError(f"unknown route {self.route!r}")
        if self.route == "Q" and not is_zero(I * self.omega1 + self.omega2 - 2):
            raise RouteConstraintViolated("Q route requires i*omega1 + omega2 == 2")
        if self.route == "S":
            if not is_zero(self.omega2):
                raise RouteConstraintViolated("S route requires omega2 == 0")
            if is_zero(self.omega1):
                raise RouteConstraintViolated("S route requires omega1 != 0")

    def family(self) -> SecondOrderFamily:
        """Second-order family behind the Poisson kinematic equation.

        Q route: ``y'' + (omega2 - 1) y = 0`` with w = 1; S route:
        ``y'' - (omega1'/omega1) y' + omega1^2/4 y = 0`` with
        ``w = -2/omega1``.  The orthogonal flow vector reproduces
        ``(omega1, omega2, 0)`` at m = 0.
        """
        if self.route == "Q":
            return SecondOrderFamily(
                p=ZERO, q=normalize(self.omega2 - 1), r=ONE, w=ONE, table=self.table
            )
        return SecondOrderFamily(
            p=normalize(-_log_derivative(self.omega1, self.table)),
            q=normalize(self.omega1 ** 2 / 4),
            r=ONE, w=normalize(-2 / self.omega1), table=self.table,
        )


def _log_derivative(e: Expr, table: DerivationTable) -> Expr:
    return normalize(differentiate(e, table) / e)


@dataclass(frozen=True)
class ChainLink:
    family: SecondOrderFamily
    orthogonal: OrthogonalSystem
    seed: DarbouxSeed | None
    transform: ExprMatrix | None


def application_chain(
    family: SecondOrderFamily,
    route: str,
    seed_rule: Callable[[SecondOrderFamily, int], tuple[SecondOrderFamily, DarbouxSeed]],
    k: int,
) -> list[ChainLink]:
    """Iterate the orthogonal transformation ``k`` times along a route.

    The scalar chain is ``darboux_chain(family, seed_rule, k)``, with its
    seed-rule contract (``darboux.generic_seed`` adjoins ``theta0_i`` at
    step i).  Each of its steps is mapped to a link carrying the route's
    orthogonal system of the family and the transformation matrix that
    leaves it (``lifted_matrix``).  No fundamental matrix is built.
    """
    lift = ROUTES[route].system
    return [
        ChainLink(
            step.family,
            lift(step.family),
            step.seed,
            None if step.seed is None else lifted_matrix(step.family, step.seed, route),
        )
        for step in darboux_chain(family, seed_rule, k)
    ]
