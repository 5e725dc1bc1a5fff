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
``application_chain`` lifts ``darboux_chain`` along a route; each link
carries the lifted transformation that leaves it as a
``darboux.Transformation`` record, which certifies itself.
"""

from __future__ import annotations

from typing import Callable

from .expr import EMPTY_TABLE, DerivationTable, Expr, Record, ZERO, normalize
from .linsys import SecondOrderFamily
from .darboux import DarbouxSeed, Transformation, darboux_chain, darboux_gauge
from .tensordt import ROUTES, OrthogonalSystem


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


class ChainLink(Record):
    family: SecondOrderFamily
    orthogonal: OrthogonalSystem
    seed: DarbouxSeed | None
    transform: Transformation | None


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
    orthogonal system of the family and the :class:`Transformation` that
    leaves it: the gauge ``Route.lift(family, P)`` for P the step's 2x2
    Darboux gauge, from this link's orthogonal system to the next one's,
    with determinant ``(level - m)^3``, whose ``residuals()`` certify it.
    Consecutive records share the system between them, and the last
    link's ``transform`` is None.  No fundamental matrix is built.
    """
    r = ROUTES[route]
    steps = darboux_chain(family, seed_rule, k)
    orthogonals = [r.system(step.family) for step in steps]
    systems = [ortho.system() for ortho in orthogonals]
    transforms = [
        Transformation(
            source,
            r.lift(step.family, darboux_gauge(step.family, step.seed).p_m),
            target,
            normalize((step.seed.level - step.family.m) ** 3),
        )
        for step, source, target in zip(steps, systems, systems[1:])
    ]
    return [
        ChainLink(step.family, ortho, step.seed, transform)
        for step, ortho, transform in zip(steps, orthogonals, [*transforms, None])
    ]
