"""Linear differential systems, companion forms, and gauge certificates.

Every system is stored under the single sign convention ``X' = -A X``.
Constructors that ingest other presentations (flow forms ``Z' = M Z``,
cross-product forms) convert explicitly, negating the flow matrix, so
no sign ever changes silently.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .expr import (
    DerivationTable,
    EMPTY_TABLE,
    Expr,
    KitError,
    Param,
    Radical,
    Sym,
    ZERO,
    ONE,
    as_expr,
    const,
    differentiate,
    equal,
    free_names,
    is_zero,
    normalize,
    parse_sexpr,
    sym,
    to_sexpr,
)

# Default RK4 step and interval for integrating a system numerically
# (``numverify``) and for ``verify``; numpy-free, so the exact half can
# name them without loading the numeric one
DEFAULT_STEP = 1e-3
DEFAULT_INTERVAL = (0.0, 1.0)


class SingularGauge(KitError):
    """Gauge matrix with determinant normalizing to zero."""


class ExprMatrix:
    """Dense matrix of expressions with exact arithmetic.

    Sizes stay small (the lifts are 3x3; ``sym_system`` at power m
    builds (m+1)x(m+1)), so determinants and inverses use cofactor
    expansion / adjugates rather than elimination; their cost grows as
    n!, which is why certificates use :func:`gauge_residual`, which
    needs no inverse.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable]):
        self.rows = tuple(tuple(as_expr(e) for e in row) for row in rows)
        width = {len(r) for r in self.rows}
        if len(width) > 1:
            raise ValueError("ragged matrix rows")

    @staticmethod
    def identity(n: int) -> "ExprMatrix":
        return ExprMatrix(
            [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def zeros(n: int) -> "ExprMatrix":
        return ExprMatrix([[ZERO] * n for _ in range(n)])

    @staticmethod
    def diagonal(entries: Sequence) -> "ExprMatrix":
        n = len(entries)
        return ExprMatrix(
            [[as_expr(entries[i]) if i == j else ZERO for j in range(n)] for i in range(n)]
        )

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, idx):
        i, j = idx
        return self.rows[i][j]

    def __iter__(self):
        return iter(self.rows)

    def _entrywise(self, other: "ExprMatrix", op) -> "ExprMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("matrix size mismatch")
        return ExprMatrix([map(op, ra, rb) for ra, rb in zip(self.rows, other.rows)])

    def __add__(self, other: "ExprMatrix") -> "ExprMatrix":
        return self._entrywise(other, operator.add)

    def __sub__(self, other: "ExprMatrix") -> "ExprMatrix":
        return self._entrywise(other, operator.sub)

    def __matmul__(self, other: "ExprMatrix") -> "ExprMatrix":
        if self.ncols != other.nrows:
            raise ValueError("matrix size mismatch")
        cols = other.ncols
        out = []
        for row in self.rows:
            new_row = []
            for j in range(cols):
                acc = ZERO
                for k, a in enumerate(row):
                    acc = acc + a * other.rows[k][j]
                new_row.append(acc)
            out.append(new_row)
        return ExprMatrix(out)

    def scale(self, c) -> "ExprMatrix":
        c = as_expr(c)
        return ExprMatrix([[c * e for e in row] for row in self.rows])

    def transpose(self) -> "ExprMatrix":
        return ExprMatrix(list(zip(*self.rows)))

    def map(self, fn: Callable[[Expr], Expr]) -> "ExprMatrix":
        return ExprMatrix([[fn(e) for e in row] for row in self.rows])

    def normalized(self) -> "ExprMatrix":
        return self.map(normalize)

    def diff(self, table: DerivationTable) -> "ExprMatrix":
        return self.map(lambda e: differentiate(e, table))

    def apply(self, vector: Sequence[Expr]) -> list[Expr]:
        return [
            normalize(sum((a * v for a, v in zip(row, vector)), ZERO))
            for row in self.rows
        ]

    def trace(self) -> Expr:
        return normalize(sum((self.rows[i][i] for i in range(self.nrows)), ZERO))

    def det(self) -> Expr:
        n = self.nrows
        if n != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        return normalize(self._det_raw())

    def _det_raw(self) -> Expr:
        n = self.nrows
        if n == 1:
            return self.rows[0][0]
        if n == 2:
            a, b = self.rows[0]
            c, d = self.rows[1]
            return a * d - b * c
        acc = ZERO
        for j in range(n):
            term = self.rows[0][j] * self._minor(0, j)._det_raw()
            acc = acc + (term if j % 2 == 0 else -term)
        return acc

    def _minor(self, i: int, j: int) -> "ExprMatrix":
        """The matrix without row i and column j."""
        return ExprMatrix(
            [[e for b, e in enumerate(row) if b != j]
             for a, row in enumerate(self.rows) if a != i]
        )

    def inverse(self) -> "ExprMatrix":
        """Exact inverse via adjugate over determinant."""
        n = self.nrows
        d = self.det()
        if is_zero(d):
            raise SingularGauge("matrix determinant normalizes to zero")
        if n == 1:
            return ExprMatrix([[normalize(1 / self.rows[0][0])]])
        cof = []
        for i in range(n):
            row = []
            for j in range(n):
                m = self._minor(i, j)._det_raw()
                row.append(m if (i + j) % 2 == 0 else -m)
            cof.append(row)
        adj = ExprMatrix(cof).transpose()
        return adj.map(lambda e: normalize(e / d))

    def is_zero_matrix(self) -> bool:
        return all(is_zero(e) for row in self.rows for e in row)

    def equals(self, other: "ExprMatrix") -> bool:
        if self.nrows != other.nrows or self.ncols != other.ncols:
            return False
        return (self - other).is_zero_matrix()

    def __repr__(self):
        body = "; ".join(
            ", ".join(to_sexpr(normalize(e)) for e in row) for row in self.rows
        )
        return f"ExprMatrix[{body}]"


CONVENTION = "Xp=-AX"


@dataclass(frozen=True)
class LinearSystem:
    """First-order linear system ``X' = -A X`` with exact coefficients."""

    a: ExprMatrix
    table: DerivationTable = EMPTY_TABLE

    def __post_init__(self):
        if self.a.nrows != self.a.ncols:
            raise ValueError("system matrix must be square")
        object.__setattr__(self, "a", self.a.normalized())

    @property
    def n(self) -> int:
        return self.a.nrows

    def rhs_matrix(self) -> ExprMatrix:
        """Matrix M of the flow form X' = M X (that is, -A)."""
        return self.a.scale(const(-1)).normalized()

    def flow_table(self, names: Sequence[str]) -> DerivationTable:
        """Extend the table with component symbols driven by the flow.

        Registering ``names[i]' = (-A z)_i`` lets first integrals and
        residuals be checked by plain differentiation.
        """
        if len(names) != self.n:
            raise ValueError("one name per component required")
        vec = [sym(name) for name in names]
        rhs = self.rhs_matrix().apply(vec)
        return self.table.extended({name: r for name, r in zip(names, rhs)})


def gauge_residual(source: LinearSystem, g: ExprMatrix, target: LinearSystem) -> ExprMatrix:
    """Normalized ``B G - G A + G'`` for ``source`` A and ``target`` B.

    All zeros certifies that ``X -> G X`` carries solutions of ``source``
    to solutions of ``target``: ``(G X)' = (G' - G A) X = -B G X``.
    ``G`` is assumed invertible (callers prove it by a closed-form
    determinant); then the identity says ``B = G A G^-1 - G' G^-1``
    without forming ``G^-1``.
    """
    return (target.a @ g - g @ source.a + g.diff(source.table)).normalized()


def residual(system: LinearSystem, candidate: ExprMatrix) -> ExprMatrix:
    """Normalized ``candidate' + A . candidate``; all-zero certifies a solution."""
    return (candidate.diff(system.table) + (system.a @ candidate)).normalized()


# ---------------------------------------------------------------------------
# Second-order operator families  y'' + p y' + (q - m r) y = 0
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SecondOrderFamily:
    """Operator family ``d2 + p d + (q - m r)`` with Wronskian datum w.

    ``w`` satisfies ``w' = p w`` (so ``p = w'/w``); the constructor
    checks this against the derivation table.  ``sqrt_r`` realizes the
    square root of r, defaulting to 1 when r is 1 and to a radical
    symbol otherwise.
    """

    p: Expr
    q: Expr
    r: Expr
    w: Expr
    table: DerivationTable
    m_name: str = "m"
    sqrt_r: Expr | None = None

    def __post_init__(self):
        if is_zero(self.r):
            raise ValueError("r must be nonzero")
        wp = differentiate(self.w, self.table)
        if not is_zero(self.p - wp / self.w):
            raise ValueError("p must equal w'/w under the derivation table")
        if self.sqrt_r is None:
            if equal(self.r, ONE):
                root: Expr = ONE
            else:
                root = Radical("sqrt_r", normalize(self.r))
            object.__setattr__(self, "sqrt_r", root)
        else:
            if not is_zero(self.sqrt_r * self.sqrt_r - self.r):
                raise ValueError("sqrt_r squared must equal r")

    @property
    def m(self) -> Param:
        return Param(self.m_name)

    def q_effective(self) -> Expr:
        """The zeroth-order coefficient ``q - m r`` with symbolic m."""
        return normalize(self.q - self.m * self.r)

    def solution_symbols(self, *names: str) -> tuple[list[tuple[Sym, Sym]], DerivationTable]:
        """Register abstract solutions with the companion rewrite.

        For each name ``y`` adds ``y' = y_p`` and
        ``y_p' = -p y_p - (q - m r) y``; returns the (y, y') node pairs
        and the extended table.  A name that the table already holds, that
        occurs in p, q, r or w, or that this call has already added (as in
        ``("u", "u_p")`` or ``("u", "u")``) is rejected: replacing its
        entry would change the family or the other solution.
        """
        taken = set().union(*(free_names(e) for e in (self.p, self.q, self.r, self.w)))
        entries = {}
        pairs = []
        for name in names:
            y, yp = Sym(name), Sym(name + "_p")
            for added in (name, name + "_p"):
                if added in self.table or added in taken:
                    raise ValueError(f"solution symbol {added!r} is already a symbol of the family")
                if added in entries:
                    raise ValueError(f"solution symbol {added!r} is added twice")
            entries[name] = yp
            entries[name + "_p"] = -self.p * yp - self.q_effective() * y
            pairs.append((y, yp))
        return pairs, self.table.extended(entries)

    def fundamental_matrix(self) -> tuple[ExprMatrix, DerivationTable]:
        """The companion fundamental matrix ``[[y1, y2], [y1_p, y2_p]]`` over
        abstract solution symbols, with the table that registers their
        companion rewrite."""
        pairs, table = self.solution_symbols("y1", "y2")
        return ExprMatrix(zip(*pairs)), table


def companion(family: SecondOrderFamily) -> LinearSystem:
    """Companion system for the family: ``A = A0 + m N``.

    ``A0 = [[0, -1], [q, p]]`` and ``N = [[0, 0], [-r, 0]]``; note that
    ``N @ N`` is the zero matrix.
    """
    m = family.m
    a = ExprMatrix(
        [
            [ZERO, const(-1)],
            [family.q - m * family.r, family.p],
        ]
    )
    return LinearSystem(a, family.table)


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def system_to_json(system: LinearSystem) -> dict:
    return {
        "n": system.n,
        "convention": CONVENTION,
        "matrix": [[to_sexpr(e) for e in row] for row in system.a.rows],
        "table": {name: to_sexpr(e) for name, e in sorted(system.table.items())},
    }


def system_from_json(data: Mapping) -> LinearSystem:
    if data.get("convention") != CONVENTION:
        raise KitError(f"unsupported convention {data.get('convention')!r}")
    a = ExprMatrix([[parse_sexpr(s) for s in row] for row in data["matrix"]])
    table = DerivationTable({k: parse_sexpr(v) for k, v in data.get("table", {}).items()})
    return LinearSystem(a, table)


def family_to_json(family: SecondOrderFamily) -> dict:
    return {
        "p": to_sexpr(normalize(family.p)),
        "q": to_sexpr(normalize(family.q)),
        "r": to_sexpr(normalize(family.r)),
        "w": to_sexpr(normalize(family.w)),
        "sqrt_r": to_sexpr(normalize(family.sqrt_r)),
        "m": family.m_name,
        "table": {name: to_sexpr(e) for name, e in sorted(family.table.items())},
    }


def family_from_json(data: Mapping) -> SecondOrderFamily:
    table = DerivationTable({k: parse_sexpr(v) for k, v in data.get("table", {}).items()})
    return SecondOrderFamily(
        p=parse_sexpr(data["p"]),
        q=parse_sexpr(data["q"]),
        r=parse_sexpr(data["r"]),
        w=parse_sexpr(data["w"]),
        table=table,
        m_name=data.get("m", "m"),
        sqrt_r=parse_sexpr(data["sqrt_r"]) if "sqrt_r" in data else None,
    )
