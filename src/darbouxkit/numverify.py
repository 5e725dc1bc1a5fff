"""Independent numerical oracle.

Classical fixed-step RK4 over complex state vectors or matrices (a
fundamental matrix is one matrix state), plus residual and
first-integral drift measurements of symbolic predictions along
integrated trajectories.  Each expression is evaluated for many points
at once with array bindings: the coefficient matrix per block of steps
at the block's grid nodes and midpoints, a residual's candidate and
coefficient matrix around its samples (differenced for the derivative),
a first integral along the whole trajectory.  From a block's
coefficient values every step's RK4 increment matrix ``D_k`` (with
``X_{k+1} = X_k + D_k X_k``) is built in batch.  The block's L steps
are then stepped in about sqrt(L) runs: one prefix scan over all runs
at once turns each run's increments into the products of its leading
steps, and each run then maps the state to all of its steps' states in
one stacked product, so a block takes O(sqrt L) Python iterations, not
L.  Independent problems of one size are stacked and share that
stepping (:func:`integrate_many`), and :func:`integrate` is the
one-problem case.  Solution grids are built from second-order families:
two companion solutions back the entries of the family's abstract
fundamental matrix, and a symbolic Wronskian datum ``w`` is integrated
alongside from ``w' = p w``.
Defaults: step 1e-3 on [0, 1] (global RK4 error ~ h^4 leaves three
orders of margin for roundoff under the 1e-8 pass tolerance of the
verify checks).  No adaptivity and no stiffness handling; coefficient
poles are avoided by shifting the interval, never by special-casing.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .expr import EvalSingularity, Expr, Sym, evaluate, normalize
from .linsys import (
    DEFAULT_INTERVAL,
    DEFAULT_STEP,
    ExprMatrix,
    LinearSystem,
    SecondOrderFamily,
    companion,
)

_BLOCK = 256  # RK4 steps per coefficient evaluation; bounds the arrays of one block
# Sixth-order central first difference in units of 1/h: at step 5e-3 a
# fourth-order one errs by ~5e-8, above both RK4's ~8e-10 and the 1e-8 bound
_CENTRAL = np.array([-1, 9, -45, 0, 45, -9, 1]) / 60


@dataclass(frozen=True)
class Trajectory:
    """Grid values of one integrated initial-value problem."""

    xs: np.ndarray
    states: np.ndarray  # shape (len(xs), n) or (len(xs), n, m), complex128

    def __post_init__(self):
        if len(self.xs) != len(self.states):
            raise ValueError("grid and states disagree in length")
        if len(self.xs) > 1 and not np.all(np.diff(self.xs) > 0):
            raise ValueError("grid must be strictly increasing")

    @property
    def n(self) -> int:
        return self.states.shape[1]

    def endpoint(self) -> np.ndarray:
        return self.states[-1]


def _grid_values(exprs: Sequence[Expr], env: Mapping, xs: np.ndarray, what: str) -> list:
    """Values of ``exprs`` at the points ``xs``; ``env`` may bind names to
    arrays aligned with ``xs``.  On a singularity the points are retried
    one by one so that the error names the first singular ``x``."""
    try:
        return [evaluate(e, {**env, "x": xs.astype(np.complex128)}) for e in exprs]
    except EvalSingularity as exc:
        for i, x in enumerate(xs.tolist()):
            point = {k: v[i] if isinstance(v, np.ndarray) else v for k, v in env.items()}
            point["x"] = x
            try:
                for e in exprs:
                    evaluate(e, point)
            except EvalSingularity as at_x:
                raise EvalSingularity(f"{what} singular at x = {x}: {at_x}") from exc
        raise


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products of small matrices stacked along trailing axes: ``a`` has
    axes ``(row, inner, ...)`` and ``b`` ``(inner, column, ...)``, the
    rest broadcast.  An explicit sum over the inner index runs each numpy
    operation over the whole stack, where ``np.matmul`` would make one
    BLAS call per matrix."""
    out = a[:, :1] * b[None, 0]
    for j in range(1, a.shape[1]):
        out += a[:, j:j + 1] * b[None, j]
    return out


def _increments(f0: np.ndarray, fm: np.ndarray, f1: np.ndarray, h: float) -> np.ndarray:
    """RK4 increments ``d`` of ``y' = f y`` over steps of length ``h``, from
    ``f`` at each step's start ``f0``, midpoint ``fm`` and end ``f1``."""
    # RK4 is y + d y with d = h/6 (k1 + 2 k2 + 2 k3 + k4) and k1 = f0,
    # k2 = fm (I + h/2 k1), k3 = fm (I + h/2 k2), k4 = f1 (I + h k3);
    # stepping by y + d y rather than (I + d) y keeps the rounding of
    # I + d from accumulating over the steps
    k2 = fm + (h / 2) * _matmul(fm, f0)
    k3 = fm + (h / 2) * _matmul(fm, k2)
    k4 = f1 + h * _matmul(f1, k3)
    return (h / 6) * (f0 + 2 * k2 + 2 * k3 + k4)


def _rk4(problems, interval: tuple[float, float], h: float) -> list[Trajectory]:
    """The one stepping routine, behind :func:`integrate_many` and
    :func:`integrate`.  Both call it directly, so that a traced
    :func:`integrate` call is one span that holds its own stepping.

    A block of L steps is cut into runs of ``isqrt(L - 1) + 1`` steps.
    A scan within all runs at once replaces each increment by ``T - I``
    for the product ``T`` of the run's steps up to it, using ``(I + a)(I
    + b) = I + a + b + a b``; then the runs are walked in order, each
    giving its states as ``y + (T - I) y`` from the state ``y`` before
    it.  ``I + D`` is never formed, so its rounding never accumulates.
    Increments and states are stored with the matrix axes first and the
    batch axes (problem, step) last, so that each numpy operation runs
    over long contiguous axes."""
    if not 0 < h < math.inf:
        raise ValueError(f"step must be finite and positive, got {h}")
    x_start, x_end = interval
    if not -math.inf < x_start < x_end < math.inf:
        raise ValueError(f"interval must be finite and increasing, got {x_start},{x_end}")
    if not problems:
        raise ValueError("the problem list is empty: nothing to integrate")
    n = problems[0][0].n
    starts = [np.asarray(state, dtype=np.complex128) for _, state, _ in problems]
    shape = starts[0].shape
    if (any(system.n != n for system, _, _ in problems)
            or any(start.shape != shape for start in starts)
            or len(shape) not in (1, 2) or shape[0] != n):
        raise ValueError("problems must share n and a state of shape (n,) or (n, m)")
    entries = [[normalize(e) for row in system.a.rows for e in row]
               for system, _, _ in problems]
    steps = max(1, round((x_end - x_start) / h))
    h = (x_end - x_start) / steps
    xs = x_start + np.arange(steps + 1) * h
    # axes (row, column, problem); a vector state is one column
    y = np.moveaxis(np.stack(starts).reshape(len(problems), n, -1), 0, -1)
    states = np.empty((len(problems), steps + 1) + y.shape[:2], dtype=np.complex128)
    states[:, 0] = np.moveaxis(y, -1, 0)
    for first in range(0, steps, _BLOCK):
        last = min(first + _BLOCK, steps)
        nodes = np.empty(2 * (last - first) + 1)
        nodes[0::2] = xs[first:last + 1]
        nodes[1::2] = xs[first:last] + h / 2
        # the block's increments in `chunks` runs of `run` steps, axes (row,
        # column, problem, step); zero increments pad the last run
        run = math.isqrt(last - first - 1) + 1
        chunks = -(-(last - first) // run)
        d = np.zeros((n, n, len(problems), chunks * run), dtype=np.complex128)
        for p, (exprs, (_, _, bindings)) in enumerate(zip(entries, problems)):
            values = _grid_values(exprs, bindings or {}, nodes, "coefficient")
            # -A at the nodes, axes (row, column, node); step k uses nodes
            # 2j, 2j + 1 and 2j + 2 with j = k - first
            f = -np.stack([np.broadcast_to(v, nodes.shape) for v in values]).reshape(n, n, -1)
            d[:, :, p, :last - first] = _increments(f[..., 0:-1:2], f[..., 1::2], f[..., 2::2], h)
        d = d.reshape(n, n, len(problems), chunks, run)
        for j in range(1, run):
            d[..., j] += d[..., j - 1] + _matmul(d[..., j], d[..., j - 1])
        for c, at in enumerate(range(first, last, run)):
            count = min(run, last - at)
            ys = y[..., None] + _matmul(d[..., c, :count], y[..., None])
            states[:, at + 1:at + 1 + count] = ys.transpose(2, 3, 0, 1)
            y = ys[..., -1]
    return [Trajectory(xs, s.reshape((steps + 1,) + shape)) for s in states]


def integrate_many(
    problems: Sequence[tuple[LinearSystem, Sequence[complex], Mapping[str, complex] | None]],
    interval: tuple[float, float] = DEFAULT_INTERVAL,
    h: float = DEFAULT_STEP,
) -> list[Trajectory]:
    """RK4 integration of independent problems ``X' = -A(x) X`` in one
    stepping loop.

    Each of one or more problems is a ``(system, x0_state, bindings)``
    triple as taken by :func:`integrate`; all share ``n`` and the state
    shape (a vector of length n or an n x m matrix), and an empty list
    raises ``ValueError``.  The states are stacked and stepped together:
    per block of steps every problem's coefficient matrix is evaluated at
    the block's grid nodes and midpoints and its RK4 increments ``D_k``
    are built in batch (with ``X_{k+1} = X_k + D_k X_k``, the exact RK4
    map of a linear system) into one array for the stack; the block is
    then stepped in about sqrt(L) runs of its L steps, each one stacked
    product for every problem and every step of the run.  Returns one
    trajectory per problem, in order; each problem gets the arithmetic
    that :func:`integrate` does for it alone.
    """
    return _rk4(problems, interval, h)


def integrate(
    system: LinearSystem,
    x0_state: Sequence[complex],
    interval: tuple[float, float] = DEFAULT_INTERVAL,
    h: float = DEFAULT_STEP,
    bindings: Mapping[str, complex] | None = None,
) -> Trajectory:
    """RK4 integration of ``X' = -A(x) X`` from the given state.

    The state is a vector of length n or an n x m matrix whose columns
    are integrated together.  ``bindings`` fixes numeric values for every
    parameter and symbol appearing in the coefficient matrix.  This is
    the one-problem call of :func:`integrate_many`, which has the only
    stepping routine: per block of steps the RK4 increments ``D_k`` (with
    ``X_{k+1} = X_k + D_k X_k``) are built in batch, and the block is
    stepped in about sqrt(L) runs of its L steps, one stacked product
    per run.
    """
    (trajectory,) = _rk4([(system, x0_state, bindings)], interval, h)
    return trajectory


def residual_sweep(
    candidate: ExprMatrix,
    system: LinearSystem,
    grid: SolutionGrid,
    sample_indices: Sequence[int],
    bindings: Mapping[str, complex] | None = None,
) -> float:
    """Max magnitude of ``candidate' + A candidate`` over sample points.

    ``grid`` supplies numeric values of the abstract solution symbols at
    evenly spaced points, ``bindings`` the constant parameter values.  The
    candidate is only evaluated, never differentiated: ``candidate'`` is
    the sixth-order central difference of its grid values around each
    sample index (moved inward to have three points on either side), so
    the grid needs at least 7 points.  At least one index is needed, and
    each must be an integer (not a bool) that lies on the grid.
    """
    count = len(grid.xs)
    if count < len(_CENTRAL):
        raise ValueError(f"residual sweep needs at least 7 grid points, got {count}")
    for i in sample_indices:
        if isinstance(i, bool) or not isinstance(i, numbers.Integral):
            raise ValueError(f"sample indices must be integers, got {i!r}")
    samples = np.asarray(sample_indices, dtype=int)
    if samples.size == 0:
        raise ValueError("residual sweep needs at least one sample index")
    if samples.min() < 0 or samples.max() >= count:
        raise ValueError(f"sample indices must lie in [0, {count}), got {samples.min()}"
                         f" to {samples.max()}")
    reach = len(_CENTRAL) // 2
    centres = np.clip(samples, reach, count - 1 - reach)
    points = (centres[:, None] + np.arange(-reach, reach + 1)).ravel()
    env = {**(bindings or {}), **{name: vals[points] for name, vals in grid.values.items()}}
    entries = [e for m in (candidate, system.a) for row in m.rows for e in row]
    values = _grid_values(entries, env, grid.xs[points], "residual")
    # axes (sample, stencil point, entry)
    values = np.stack([np.broadcast_to(v, points.shape) for v in values], axis=-1)
    values = values.reshape(len(centres), len(_CENTRAL), -1)
    split = candidate.nrows * candidate.ncols
    z = values[..., :split].reshape(values.shape[:2] + (candidate.nrows, candidate.ncols))
    a = values[:, reach, split:].reshape(len(centres), system.n, system.n)
    dz = np.tensordot(_CENTRAL, z, axes=(0, 1)) / (grid.xs[1] - grid.xs[0])
    return float(np.max(np.abs(dz + a @ z[:, reach])))


def drift(
    integral: Expr,
    trajectory: Trajectory,
    names: Sequence[str],
    bindings: Mapping[str, complex] | None = None,
) -> float:
    """Max deviation of a first integral from its initial value."""
    xs = trajectory.xs
    env = dict(bindings or {})
    env.update({name: trajectory.states[:, i] for i, name in enumerate(names)})
    (values,) = _grid_values([normalize(integral)], env, xs, "first integral")
    values = np.broadcast_to(values, xs.shape)
    return float(np.max(np.abs(values[1:] - values[0]), initial=0.0))


@dataclass(frozen=True)
class SolutionGrid:
    """Numeric values of abstract solution symbols along one grid.

    ``values`` maps each symbol name to its values at the grid points
    ``xs``, including derived symbols such as an integrated Wronskian
    datum; :func:`companion_solution_grid` builds one.  The points must
    be strictly increasing and evenly spaced (to within a millionth of
    the step), as :func:`residual_sweep`'s difference stencil assumes.
    """

    xs: np.ndarray
    values: dict[str, np.ndarray]

    def __post_init__(self):
        count = len(self.xs)
        if count > 1:
            step = (self.xs[-1] - self.xs[0]) / (count - 1)
            even = np.linspace(self.xs[0], self.xs[-1], count)
            if not (step > 0 and np.all(np.abs(self.xs - even) <= 1e-6 * step)):
                raise ValueError("grid points must be strictly increasing and evenly spaced")

    def sample_indices(self, count: int) -> list[int]:
        """``count + 1`` grid indices splitting the grid into ``count``
        near-equal parts, both endpoints included (fewer when the grid
        has fewer points)."""
        if count < 1:
            raise ValueError(f"sample count must be at least 1, got {count}")
        last = len(self.xs) - 1
        return sorted({i * last // count for i in range(count + 1)})


def companion_solution_grids(
    problems: Sequence[tuple[SecondOrderFamily, Mapping[str, complex] | None]],
    interval: tuple[float, float] = DEFAULT_INTERVAL,
    h: float = DEFAULT_STEP,
) -> list[SolutionGrid]:
    """Back the abstract symbols of each ``(family, bindings)`` pair with
    two integrated solutions of its companion system; the pairs share one
    stepping loop (:func:`integrate_many`).

    The columns of the family's abstract fundamental matrix
    (:meth:`SecondOrderFamily.fundamental_matrix`) start at (1, 0) and
    (0, 1).  A family whose Wronskian datum ``w`` is a symbol
    also gets ``w' = p w`` integrated alongside from 1 (any nonzero
    scaling is equally valid) and stored under the symbol's name; any
    other ``w`` evaluates directly.
    """
    companions = []
    for family, bindings in problems:
        system = companion(family)
        if isinstance(family.w, Sym):
            system = LinearSystem(
                ExprMatrix([list(row) + [0] for row in system.a.rows] + [[0, 0, -family.p]]),
                system.table,
            )
        start = np.eye(system.n, 2)
        start[2:] = 1.0
        companions.append((system, start, bindings))
    trajectories = integrate_many(companions, interval, h)
    grids = []
    for (family, _), traj in zip(problems, trajectories):
        fundamental, _ = family.fundamental_matrix()
        values = {fundamental[i, j].name: traj.states[:, i, j]
                  for j in range(2) for i in range(2)}
        if isinstance(family.w, Sym):
            values[family.w.name] = traj.states[:, 2, 0]
        grids.append(SolutionGrid(traj.xs, values))
    return grids


def companion_solution_grid(
    family: SecondOrderFamily,
    interval: tuple[float, float] = DEFAULT_INTERVAL,
    h: float = DEFAULT_STEP,
    bindings: Mapping[str, complex] | None = None,
) -> SolutionGrid:
    """The one-problem call of :func:`companion_solution_grids`."""
    (grid,) = companion_solution_grids([(family, bindings)], interval, h)
    return grid


def convergence_ratio(
    system: LinearSystem,
    x0_state: Sequence[complex],
    exact_endpoint: Sequence[complex],
    interval: tuple[float, float] = DEFAULT_INTERVAL,
    h: float = 1e-2,
    bindings: Mapping[str, complex] | None = None,
) -> float:
    """Endpoint-error ratio when halving the step; ~16 for order 4."""
    exact = np.asarray(exact_endpoint, dtype=np.complex128)
    err_coarse = np.max(
        np.abs(integrate(system, x0_state, interval, h, bindings).endpoint() - exact)
    )
    err_fine = np.max(
        np.abs(integrate(system, x0_state, interval, h / 2, bindings).endpoint() - exact)
    )
    if err_fine == 0:
        return float("inf")
    return float(err_coarse / err_fine)
