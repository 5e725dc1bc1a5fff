"""Frame and rigid-solid applications of the orthogonal lifts.

An application is a flow vector ``(f, g, h)`` on an orthogonal route:
moving frames give ``(tau, 0, kappa)`` from curvature and torsion, and
the planar rigid solid (the Poisson kinematic equation) gives
``(omega1, omega2, 0)`` from its angular velocity.  ``FrenetData.family``
and ``RigidData.family`` return the route's family of that vector,
``tensordt.ROUTES[route].family``, which owns the route's formulas and
constraints (a vector off the route raises ``RouteConstraintViolated``
there); neither builds anything else.  A caller that reads the lift
builds it with ``tensordt.orthogonal_lift(family, route)``.
``application_chain`` lifts ``darboux_chain`` along a route.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .expr import DerivationTable, Expr, ZERO
from .linsys import ExprMatrix, SecondOrderFamily
from .darboux import DarbouxSeed, darboux_chain
from .tensordt import ROUTES, OrthogonalSystem, lifted_matrix


@dataclass(frozen=True)
class FrenetData:
    """Curvature and torsion of a space curve with a route choice: the
    flow vector ``(tau, 0, kappa)``.

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

    def family(self) -> SecondOrderFamily:
        """The route's family of ``(tau, 0, kappa)``; its orthogonal
        system's flow vector reproduces that vector at m = 0."""
        return ROUTES[self.route].family(self.tau, ZERO, self.kappa, self.table)


@dataclass(frozen=True)
class RigidData:
    """Planar angular-velocity components with a route choice: the flow
    vector ``(omega1, omega2, 0)``.

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

    def family(self) -> SecondOrderFamily:
        """The route's family of ``(omega1, omega2, 0)``; its orthogonal
        system's flow vector reproduces that vector at m = 0."""
        return ROUTES[self.route].family(self.omega1, self.omega2, ZERO, self.table)


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
