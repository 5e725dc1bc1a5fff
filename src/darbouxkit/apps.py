"""Frame and rigid-solid applications of the orthogonal lifts.

Maps curvature/torsion data (moving frames) and planar angular-velocity
data (the Poisson kinematic equation) onto the two orthogonal routes,
producing the second-order family, the parametric orthogonal system,
and the fundamental matrix for each; builds their transformation
chains.  What a route lifts to is defined in ``tensordt.ROUTES``; this
module only maps each application's data to a family on its route
(``FrenetData.family``/``RigidData.family``, which build nothing else).

Both applications restrict to r = 1.  The frame antiderivative datum
``exp(i * integral of kappa)`` is a registered symbol with derivative
``i kappa w``; no symbolic integration is attempted because only the
logarithmic derivative ever enters a formula.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

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
from .darboux import DarbouxSeed, attach_generic_seed, auto_level_seed, darboux_chain
from .tensordt import ROUTES, FundamentalPair, OrthogonalSystem, lifted_matrix, orthogonal_lift


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


@dataclass(frozen=True)
class FrameApplication:
    """One application instance: family, orthogonal system, fundamental pair."""

    route: str
    family: SecondOrderFamily
    orthogonal: OrthogonalSystem
    fundamental: FundamentalPair


def frenet_family(data: FrenetData) -> FrameApplication:
    """``data.family()`` with its route's orthogonal system and fundamental pair."""
    family = data.family()
    return FrameApplication(data.route, family, *orthogonal_lift(family, data.route))


def rigid_family(data: RigidData) -> FrameApplication:
    """``data.family()`` with its route's orthogonal system and fundamental pair."""
    family = data.family()
    return FrameApplication(data.route, family, *orthogonal_lift(family, data.route))


def _log_derivative(e: Expr, table: DerivationTable) -> Expr:
    return normalize(differentiate(e, table) / e)


@dataclass(frozen=True)
class ChainLink:
    family: SecondOrderFamily
    orthogonal: OrthogonalSystem
    seed: DarbouxSeed | None
    transform: ExprMatrix | None


def application_chain(
    app: FrameApplication,
    seeds: Sequence[Expr] | str,
    k: int,
) -> list[ChainLink]:
    """Iterate the orthogonal transformation ``k`` times along a route.

    The scalar chain is ``darboux_chain``; each of its steps is mapped
    to a link carrying the route's orthogonal lift of the family and the
    transformation matrix that leaves it (``lifted_matrix``).  ``seeds`` is one
    log-derivative expression per step, certified by ``auto_level_seed``
    at whatever parameter value it solves the current step's scalar
    equation for (levels shift along a chain), or the string "generic"
    to adjoin a Riccati-certified seed symbol ``theta0_i`` at step i.
    """
    generic = isinstance(seeds, str)
    if generic and seeds != "generic":
        raise ValueError("string seed spec must be 'generic'")
    if not generic and k > len(seeds):
        raise ValueError("not enough seeds for the requested chain length")

    def seed_rule(family, idx):
        if generic:
            return attach_generic_seed(family, name=f"theta0_{idx}")
        return family, auto_level_seed(family, seeds[idx])

    lift = ROUTES[app.route].system
    return [
        ChainLink(
            step.family,
            lift(step.family),
            step.seed,
            None if step.seed is None else lifted_matrix(step.family, step.seed, app.route),
        )
        for step in darboux_chain(app.family, seed_rule, k)
    ]
