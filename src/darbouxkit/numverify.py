"""Independent numerical oracle.

Classical fixed-step RK4 over complex state vectors or matrices (a
fundamental matrix is one matrix state), plus residual and
first-integral drift measurements of symbolic predictions along
integrated trajectories.  Each expression is evaluated for many points
at once with array bindings: a coefficient matrix once per 256-step
segment at the segment's grid nodes and midpoints, a residual's
candidate and coefficient matrix around the samples of every case of a
sweep (differenced for the derivative), a first integral along the
whole trajectory.  Independent problems of one size are stacked and
share the stepping (:func:`integrate_many`), and :func:`integrate` is
the one-problem case.  The problems of a stack that share a coefficient
matrix (in normal form) and a set of bound names form a group, and a
group's matrix is evaluated once for all its members: each bound name
is a column of one value per member against the row of a segment's
nodes, so the x-only work is shared, and the x-free parts of an entry
are evaluated by numpy on that column.  For a product or quotient of
non-real values numpy can round the last bit differently from Python's
complex scalars, but a problem gets the same bits alone and in any
stack.  From a group's coefficient values every step's RK4 increment
matrix ``D_k`` (with ``X_{k+1} = X_k + D_k X_k``) is built in batch, one
segment at a time.  A block takes as many whole segments as keep its
increment entries ``n * n * P * L`` (P stacked n x n problems, L steps)
within ten 3 x 3 problems over one segment, and at least one; a partial
last segment is a block of its own.  A segment is stepped in 16 runs of
16 steps (a partial one of L steps in about sqrt(L) runs): one prefix
scan over all of a block's runs at once turns each run's increments
into the products of its leading steps, and each run then maps the
state to all of its steps' states in one stacked product, so a block of
L steps takes about L/16 + 16 Python iterations, not L.  Solution grids
are built from second-order families: two companion solutions back the
entries of the family's abstract fundamental matrix, and a symbolic
Wronskian datum ``w`` is integrated alongside from ``w' = p w``.
Defaults: step 1e-3 on [0, 1] (global RK4 error ~ h^4 leaves three
orders of margin for roundoff under the 1e-8 pass tolerance of the
verify checks).  No adaptivity and no stiffness handling; coefficient
poles are avoided by shifting the interval, never by special-casing.
"""

from __future__ import annotations

import math
import numbers
from typing import Mapping, Sequence

import numpy as np

from .expr import EvalSingularity, Expr, Record, Sym, evaluate, normalize
from .linsys import (
    DEFAULT_INTERVAL,
    DEFAULT_STEP,
    ExprMatrix,
    LinearSystem,
    SecondOrderFamily,
    companion,
)

# Steps of a segment: 16 runs of 16 steps
_SEGMENT = 256
# Bound on the increment entries n*n*P*L of one block of L RK4 steps for P
# stacked n x n problems: ten 3 x 3 problems over one 256-step segment.  It
# bounds the increment array only; the coefficient buffer holds one segment
# of one group of problems, whatever the block size
_BLOCK_ENTRIES = 10 * 3 * 3 * 256
# Sixth-order central first difference in units of 1/h: at step 5e-3 a
# fourth-order one errs by ~5e-8, above both RK4's ~8e-10 and the 1e-8 bound
_CENTRAL = np.array([-1, 9, -45, 0, 45, -9, 1]) / 60


class Trajectory(Record):
    """Grid values of one integrated initial-value problem."""

    xs: np.ndarray
    states: np.ndarray  # shape (len(xs), n) or (len(xs), n, m), complex128, often a view

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
    arrays aligned with ``xs``, or, for a row ``xs`` of shape ``(1, N)``,
    to columns ``(members, 1)`` of one value per member of a stack.  On a
    singularity the members are retried one by one, each with its scalar
    values, and then the points, so that the error names the first
    singular ``x`` of the first member that has one."""
    try:
        return [evaluate(e, {**env, "x": xs.astype(np.complex128)}) for e in exprs]
    except EvalSingularity as exc:
        if xs.ndim == 2:
            for k in range(max((len(v) for v in env.values() if isinstance(v, np.ndarray)),
                               default=1)):
                member = {name: v[k, 0] if isinstance(v, np.ndarray) else v
                          for name, v in env.items()}
                _grid_values(exprs, member, xs[0], what)
            raise
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


def _blocks(steps: int, entries: int) -> list[tuple[int, int, int]]:
    """The blocks ``(first, last, run)`` of ``steps`` RK4 steps for a stack
    of ``entries`` increment entries a step: whole segments first, as many
    to a block as ``_BLOCK_ENTRIES`` allows but at least one, in runs of
    16 steps; then a partial last segment of L steps as a block of its
    own, in runs of ``isqrt(L - 1) + 1`` steps."""
    whole = steps - steps % _SEGMENT
    per_block = max(1, _BLOCK_ENTRIES // (entries * _SEGMENT)) * _SEGMENT
    blocks = [(first, min(first + per_block, whole), 16) for first in range(0, whole, per_block)]
    if whole < steps:
        blocks.append((whole, steps, math.isqrt(steps - whole - 1) + 1))
    return blocks


def _rk4(problems, interval: tuple[float, float], h: float) -> list[Trajectory]:
    """The one stepping routine, behind :func:`integrate_many` and
    :func:`integrate`.  Both call it directly, so that a traced
    :func:`integrate` call is one span that holds its own stepping.

    The problems are grouped by their normalized coefficient entries and
    the set of names they bind (not by the identity of their matrices),
    and each group is a contiguous part of the stack, in the order of its
    first problem.  For each 256-step segment a group's matrix is
    evaluated once through :func:`_grid_values`, each bound name a
    ``(members, 1)`` column against the ``(1, N)`` row of the segment's
    nodes; -A is written into one coefficient buffer, which holds one
    segment of one group and serves every group and block, and one
    :func:`_increments` call builds the group's increments for the
    segment.  Within a block the groups are evaluated in turn, each over
    all its segments, so a singularity names the first singular ``x`` of
    the first member of a group that has one.  Blocks are sized by
    ``_BLOCK_ENTRIES`` in whole segments (:func:`_blocks`), and a block's
    runs are 16 steps (``isqrt(L - 1) + 1`` steps in a partial last
    segment of L steps), so that no run straddles two segments.  A scan
    within all of a block's runs at once replaces each increment by ``T -
    I`` for the product ``T`` of the run's steps up to it, using ``(I +
    a)(I + b) = I + a + b + a b``; then the runs are walked in order, each
    giving its states as ``y + (T - I) y`` from the state ``y`` before it.
    ``I + D`` is never formed, so its rounding never accumulates.  Every
    step gets the same arithmetic at any block size and in any group, so a
    trajectory does not depend on which problems share its stack.
    Increments, in one buffer that serves every block, and states are
    stored with the matrix axes first and the batch axes (problem, step)
    last, so that each numpy operation runs over long contiguous axes and
    each run writes one slice of the states; a trajectory's states are a
    view of them."""
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
    grouped: dict[tuple, list[int]] = {}
    for p, (system, _, bindings) in enumerate(problems):
        key = (tuple(normalize(e) for row in system.a.rows for e in row), frozenset(bindings or ()))
        grouped.setdefault(key, []).append(p)
    # (entries, env, first member, end) of each group; position[p] is the
    # place of problem p in the stack
    groups, order = [], []
    for (entries, names), members in grouped.items():
        env = {name: np.array([[complex(problems[p][2][name])] for p in members])
               for name in names}
        groups.append((entries, env, len(order), len(order) + len(members)))
        order += members
    position = np.argsort(order)
    steps = max(1, round((x_end - x_start) / h))
    h = (x_end - x_start) / steps
    xs = x_start + np.arange(steps + 1) * h
    # axes (row, column, problem) and (row, column, problem, step); a vector
    # state is one column
    y = np.moveaxis(np.stack(starts).reshape(len(problems), n, -1)[order], 0, -1)
    states = np.empty(y.shape + (steps + 1,), dtype=np.complex128)
    states[..., 0] = y
    blocks = _blocks(steps, n * n * len(problems))
    span = max(-(-(last - first) // run) * run for first, last, run in blocks)
    increments = np.empty(n * n * len(problems) * span, dtype=np.complex128)
    largest = max(end - lo for _, _, lo, end in groups)
    coefficients = np.empty(n * n * largest * (2 * min(steps, _SEGMENT) + 1), dtype=np.complex128)
    for first, last, run in blocks:
        size = last - first
        chunks = -(-size // run)
        # the block's increments in `chunks` runs of `run` steps, axes (row,
        # column, problem, step); zero increments pad the last run
        d = increments[:n * n * len(problems) * chunks * run].reshape(n, n, len(problems), -1)
        d[..., size:] = 0
        for entries, env, lo, end in groups:
            for a in range(0, size, _SEGMENT):
                b = min(a + _SEGMENT, size)
                nodes = np.empty((1, 2 * (b - a) + 1))
                nodes[0, 0::2] = xs[first + a:first + b + 1]
                nodes[0, 1::2] = xs[first + a:first + b] + h / 2
                values = _grid_values(entries, env, nodes, "coefficient")
                # -A at the nodes, axes (row, column, member, node); step k
                # uses nodes 2j, 2j + 1 and 2j + 2 with j = k - first - a
                f = coefficients[:n * n * (end - lo) * nodes.size].reshape(n * n, end - lo, -1)
                for v, out in zip(values, f):
                    np.negative(v, out=out)
                f = f.reshape(n, n, end - lo, -1)
                d[:, :, lo:end, a:b] = _increments(f[..., 0:-1:2], f[..., 1::2], f[..., 2::2], h)
        d = d.reshape(n, n, len(problems), chunks, run)
        for j in range(1, run):
            d[..., j] += d[..., j - 1] + _matmul(d[..., j], d[..., j - 1])
        for c, at in enumerate(range(first, last, run)):
            count = min(run, last - at)
            ys = y[..., None] + _matmul(d[..., c, :count], y[..., None])
            states[..., at + 1:at + 1 + count] = ys
            y = ys[..., -1]
    return [Trajectory(xs, np.moveaxis(states[:, :, q], -1, 0).reshape((steps + 1,) + shape))
            for q in position]


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
    raises ``ValueError``.  The states are stacked and stepped together.
    The problems that share a coefficient matrix (in normal form) and a
    set of bound names share its evaluation: once per 256-step segment at
    the segment's grid nodes and midpoints, with a column of the members'
    values for each bound name, so x-free parts of an entry are evaluated
    by numpy.  From these values the RK4 increments ``D_k`` (with
    ``X_{k+1} = X_k + D_k X_k``, the exact RK4 map of a linear system) are
    built in batch, one group and segment at a time, into one array per
    block of whole segments (as many as keep the stack's increments within
    ``_BLOCK_ENTRIES``); the block is then stepped in runs of 16 steps,
    each one stacked product for every problem and every step of the run.
    Returns one trajectory per problem, in order, whose ``states`` are a
    view into the stack's states; each problem gets the arithmetic that
    :func:`integrate` does for it alone, bit for bit.
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
    parameter and symbol appearing in the coefficient matrix; they are
    evaluated as one-value numpy columns, as in a stack, so a non-real
    product or quotient of them can differ from Python's complex
    arithmetic in the last bit.  This is the one-problem call of
    :func:`integrate_many`, which has the only stepping routine: once per
    256-step segment the coefficient matrix is evaluated and the RK4
    increments ``D_k`` (with ``X_{k+1} = X_k + D_k X_k``) are built in
    batch, and each block of segments is stepped in runs of 16 steps, one
    stacked product per run.  ``states`` is a view of shape ``(steps + 1,
    n)`` or ``(steps + 1, n, m)``, not contiguous.
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
    each must be an integer (not a bool) that lies on the grid.  This is
    the one-case call of :func:`_residual_sweeps`.
    """
    (value,) = _residual_sweeps(candidate, system, [(grid, bindings)], sample_indices)
    return value


def _residual_sweeps(
    candidate: ExprMatrix,
    system: LinearSystem,
    cases: Sequence[tuple[SolutionGrid, Mapping[str, complex] | None]],
    sample_indices: Sequence[int],
) -> list[float]:
    """:func:`residual_sweep` of one candidate and one system for each
    ``(grid, bindings)`` case, one maximum per case, in order.

    The entries are evaluated once, over the stencil points of every case
    together.  A name bound to one scalar in every case stays a scalar;
    any other binding becomes one array over all the points, so a single
    case is evaluated just as :func:`residual_sweep` always did.  In a
    batch, a subexpression free of ``x`` and of the grid's symbols is
    then evaluated on arrays, where numpy rounds a complex quotient, and a
    product of two non-real numbers, differently from Python's scalars;
    where the entries hold neither, as the application routes' do, each
    case gets the maximum it gets alone.  Every case must bind the same
    names, and the sample indices must lie on every grid.  A singularity
    names the first singular ``x`` of the first case that has one.
    """
    for i in sample_indices:
        if isinstance(i, bool) or not isinstance(i, numbers.Integral):
            raise ValueError(f"sample indices must be integers, got {i!r}")
    samples = np.asarray(sample_indices, dtype=int)
    if samples.size == 0:
        raise ValueError("residual sweep needs at least one sample index")
    if not cases:
        raise ValueError("the case list is empty: nothing to sweep")
    reach = len(_CENTRAL) // 2
    points, envs = [], []
    for grid, bindings in cases:
        count = len(grid.xs)
        if count < len(_CENTRAL):
            raise ValueError(f"residual sweep needs at least 7 grid points, got {count}")
        if samples.min() < 0 or samples.max() >= count:
            raise ValueError(f"sample indices must lie in [0, {count}), got {samples.min()}"
                             f" to {samples.max()}")
        centres = np.clip(samples, reach, count - 1 - reach)
        at = (centres[:, None] + np.arange(-reach, reach + 1)).ravel()
        points.append(at)
        envs.append({**(bindings or {}), **{name: vals[at] for name, vals in grid.values.items()}})
    if any(env.keys() != envs[0].keys() for env in envs):
        raise ValueError(f"cases must bind the same names, got {[sorted(e) for e in envs]}")
    env = {}
    for name in envs[0]:
        bound = [e[name] for e in envs]
        if not any(isinstance(v, np.ndarray) or v != bound[0] for v in bound):
            env[name] = bound[0]
        else:
            env[name] = np.concatenate([
                v if isinstance(v, np.ndarray) else np.full(at.shape, complex(v))
                for v, at in zip(bound, points)
            ])
    entries = [e for m in (candidate, system.a) for row in m.rows for e in row]
    xs = np.concatenate([grid.xs[at] for (grid, _), at in zip(cases, points)])
    values = _grid_values(entries, env, xs, "residual")
    # axes (case, sample, stencil point, entry)
    values = np.stack([np.broadcast_to(v, xs.shape) for v in values], axis=-1)
    values = values.reshape(len(cases), len(samples), len(_CENTRAL), -1)
    split = candidate.nrows * candidate.ncols
    sweeps = []
    for (grid, _), part in zip(cases, values):
        z = part[..., :split].reshape(part.shape[:2] + (candidate.nrows, candidate.ncols))
        a = part[:, reach, split:].reshape(len(samples), system.n, system.n)
        dz = np.tensordot(_CENTRAL, z, axes=(0, 1)) / (grid.xs[1] - grid.xs[0])
        sweeps.append(float(np.max(np.abs(dz + a @ z[:, reach]))))
    return sweeps


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


class SolutionGrid(Record):
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
    # each distinct family's companion system, with its w row, and its
    # fundamental matrix, built once
    built = {}
    for family, _ in problems:
        if family not in built:
            system = companion(family)
            if isinstance(family.w, Sym):
                system = LinearSystem(
                    ExprMatrix([list(row) + [0] for row in system.a.rows] + [[0, 0, -family.p]]),
                    system.table,
                )
            built[family] = system, family.fundamental_matrix()[0]
    companions = []
    for family, bindings in problems:
        system = built[family][0]
        start = np.eye(system.n, 2)
        start[2:] = 1.0
        companions.append((system, start, bindings))
    trajectories = integrate_many(companions, interval, h)
    grids = []
    for (family, _), traj in zip(problems, trajectories):
        fundamental = built[family][1]
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
