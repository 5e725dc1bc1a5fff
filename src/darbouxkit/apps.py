"""Frame and rigid-solid applications of the orthogonal lifts.

An application is a flow vector ``(f, g, h)`` on an orthogonal route:
moving frames give ``(tau, 0, kappa)`` from curvature and torsion, and
the planar rigid solid (the Poisson kinematic equation) gives
``(omega1, omega2, 0)`` from its angular velocity.  ``frenet_family``
and ``rigid_family`` return the route's family of that vector,
``tensordt.ROUTES[route].family``, which owns the route's formulas and
constraints (a ``None`` component is completed or rejected there, a
vector off the route raises ``RouteConstraintViolated``, an unknown
route ``KeyError``); neither builds anything else.  A caller that reads
the lift builds it with ``tensordt.orthogonal_lift(family, route)``.
``application_chain`` lifts ``darboux_chain`` along a route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .expr import EMPTY_TABLE, DerivationTable, Expr, ZERO
from .linsys import ExprMatrix, SecondOrderFamily
from .darboux import DarbouxSeed, darboux_chain
from .tensordt import ROUTES, OrthogonalSystem, lifted_matrix


def frenet_family(kappa: Expr | None, tau: Expr | None, route: str,
                  table: DerivationTable = EMPTY_TABLE) -> SecondOrderFamily:
    """The route's family of the Frenet flow vector ``(tau, 0, kappa)``
    of a space curve with curvature ``kappa`` and torsion ``tau``.

    The Q route only represents frames with ``tau == -2i`` (the
    degenerate coupled case), the value of a ``None`` tau; the S route
    handles any frame with ``i kappa - tau`` nonzero, and needs tau.
    """
    return ROUTES[route].family(tau, ZERO, kappa, table)


def rigid_family(omega1: Expr | None, omega2: Expr | None, route: str,
                 table: DerivationTable = EMPTY_TABLE) -> SecondOrderFamily:
    """The route's family of the planar rigid-solid flow vector
    ``(omega1, omega2, 0)``.

    The Q route represents the coupled case ``i omega1 + omega2 == 2``,
    so a ``None`` velocity follows from the other; the S route represents
    motion on a line (``omega2 == 0``, the value of a ``None`` omega2)
    with ``omega1`` nonzero.
    """
    return ROUTES[route].family(omega1, omega2, ZERO, table)


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
    leaves it, ``K Sym2(P) K^-1`` for P the step's 2x2 gauge and K the
    route's frame (``lifted_matrix``).  No fundamental matrix is built.
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
