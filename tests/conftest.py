"""Shared builders used across the suite."""

from __future__ import annotations

from fractions import Fraction
from random import Random

import pytest
from hypothesis import settings

from darbouxkit.expr import (
    Const,
    DerivationTable,
    GaussRat,
    ONE,
    Sym,
    X,
    is_zero,
    normalize,
    sym,
    symbol_tower,
)
from darbouxkit.darboux import Transformation
from darbouxkit.linsys import (
    ExprMatrix,
    LinearSystem,
    SecondOrderFamily,
    companion,
    gauge_residual,
)

# a longer property run: pytest --hypothesis-profile=ci
settings.register_profile("ci", max_examples=1000, deadline=None)


def generic_table(depth: int = 6) -> DerivationTable:
    """Derivative towers for the generic coefficient symbols.

    p is tied to w via w' = p w; q, r, and theta0 get free towers deep
    enough for every double residual computed in the suite.  theta0 is
    NOT constrained here; Darboux seeds add the Riccati rewrite on top.
    """
    entries: dict = {}
    for base in ("p", "q", "r"):
        entries.update(symbol_tower(base, depth))
    entries["w"] = sym("p") * sym("w")
    return DerivationTable(entries)


def generic_family(m_name: str = "m") -> SecondOrderFamily:
    """Fully symbolic family with p = w'/w and generic q, r."""
    table = generic_table()
    return SecondOrderFamily(
        p=sym("p"), q=sym("q"), r=sym("r"), w=sym("w"), table=table, m_name=m_name
    )


def schrodinger_family(q, table: DerivationTable | None = None,
                       m_name: str = "m") -> SecondOrderFamily:
    """Family with p = 0, r = 1, w = 1 (the quantum-mechanics shape)."""
    return SecondOrderFamily(
        p=Const(0),
        q=normalize(q),
        r=ONE,
        w=ONE,
        table=table if table is not None else DerivationTable(),
        m_name=m_name,
    )


def oscillator_family() -> SecondOrderFamily:
    """q = -x^2 + 1, the harmonic-oscillator family."""
    return schrodinger_family(-(X ** 2) + 1)


def balanced_companion(family: SecondOrderFamily) -> LinearSystem:
    """The Delta-balanced companion system in closed form,
    ``[[0, -1/w], [w (q - m r), 0]]``, certified as the image of the
    companion system under ``X -> diag(1, w) X``."""
    w = family.w
    system = LinearSystem(
        ExprMatrix([[0, -1 / w], [w * family.q_effective(), 0]]), family.table
    )
    delta = ExprMatrix.diagonal([ONE, w])
    assert gauge_residual(companion(family), delta, system).is_zero_matrix()
    return system


def transported(system: LinearSystem, g: ExprMatrix) -> LinearSystem:
    """The system ``G A G^-1 - G' G^-1`` to which ``X -> G X`` carries
    ``system``, formed with the inverse of ``G``."""
    g_inv = g.inverse()
    a = g @ system.a @ g_inv - g.diff(system.table) @ g_inv
    return LinearSystem(a.normalized(), system.table)


def failed_part(t: Transformation) -> str | None:
    """The first part of the record's certificate whose residual does not
    normalize to zero (``"det"`` or ``"gauge"``), or None when it holds."""
    for part, residual in t.residuals():
        entries = residual.rows if isinstance(residual, ExprMatrix) else [[residual]]
        if not all(is_zero(e) for row in entries for e in row):
            return part
    return None


def riccati_table(table: DerivationTable, theta_name: str, p, q) -> DerivationTable:
    """Constrain a seed symbol by theta' = -q - p theta - theta^2."""
    theta = Sym(theta_name)
    return table.extended({theta_name: -q - p * theta - theta * theta})


def random_rational_matrix(rng: Random, n: int, *, invertible: bool = False,
                           span: int = 3) -> ExprMatrix:
    """Small exact matrix with entries a/b, |a| <= span, b in {1, 2}."""
    while True:
        rows = [
            [
                Const(GaussRat(Fraction(rng.randint(-span, span), rng.choice((1, 2)))))
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        mat = ExprMatrix(rows)
        if not invertible:
            return mat
        if not is_zero(mat.det()):
            return mat


@pytest.fixture
def rng() -> Random:
    return Random(20260810)
