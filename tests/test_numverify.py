import math

import numpy as np
import pytest

from darbouxkit.expr import (
    DerivationTable,
    EvalSingularity,
    I,
    ONE,
    X,
    ZERO,
    const,
    normalize,
    param,
    rat,
    sym,
)
from darbouxkit.apps import FrenetData
from darbouxkit.linsys import ExprMatrix, LinearSystem, SecondOrderFamily, companion
from darbouxkit.numverify import (
    _BLOCK,
    SolutionGrid,
    companion_solution_grid,
    companion_solution_grids,
    convergence_ratio,
    Trajectory,
    drift,
    integrate,
    integrate_many,
    residual_sweep,
)
from darbouxkit.tensordt import (
    FRAME_DATUM,
    first_integral_orthogonal,
    first_integral_sym2,
    orthogonal_lift,
    so3_system_first,
)
from darbouxkit.sympow import sym_group, sym_system
from conftest import oscillator_family, schrodinger_family


def _circle_family():
    # y'' = -y at m = 0
    return schrodinger_family(ONE)


def _circle_system():
    return companion(_circle_family())


def test_rk4_against_closed_form_circle():
    traj = integrate(_circle_system(), [1.0, 0.0], (0.0, 1.0), 1e-3, {"m": 0})
    end = traj.endpoint()
    assert abs(end[0] - math.cos(1.0)) < 1e-10
    assert abs(end[1] + math.sin(1.0)) < 1e-10


def _variable_system():
    # A(x) with x-dependent, complex and rational entries, and the same
    # matrix as a plain numpy function for the reference loop
    a = ExprMatrix(
        [
            [X, const(-1), ZERO],
            [X * X + 1, ZERO, I * X],
            [ZERO, 1 / (X + 2), -X],
        ]
    )

    def a_at(x):
        return np.array(
            [[x, -1, 0], [x * x + 1, 0, 1j * x], [0, 1 / (x + 2), -x]],
            dtype=np.complex128,
        )

    return LinearSystem(a, DerivationTable()), a_at


def _textbook_rk4(a_at, y0, steps):
    # four-stage RK4 of y' = -A(x) y on [0, 1], one stage at a time
    h = 1.0 / steps
    y = np.asarray(y0, dtype=np.complex128)
    states = [y]
    for k in range(steps):
        x = k * h
        k1 = -a_at(x) @ y
        k2 = -a_at(x + h / 2) @ (y + (h / 2) * k1)
        k3 = -a_at(x + h / 2) @ (y + (h / 2) * k2)
        k4 = -a_at(x + h) @ (y + h * k3)
        y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        states.append(y)
    return np.array(states)


@pytest.mark.parametrize(
    "y0", [[1.0, 0.5j, -2.0], np.arange(6).reshape(3, 2) + 1j * np.eye(3, 2)]
)
def test_integrate_matches_textbook_rk4(y0):
    steps = 600  # not a multiple of the block size: crosses block boundaries
    assert steps % _BLOCK != 0 and steps > 2 * _BLOCK
    system, a_at = _variable_system()
    traj = integrate(system, y0, (0.0, 1.0), 1.0 / steps)
    reference = _textbook_rk4(a_at, y0, steps)
    assert traj.states.shape == reference.shape
    assert np.max(np.abs(traj.states - reference)) <= 1e-12 * np.max(np.abs(reference))


# step counts around the block and run sizes: one-step blocks, primes, a
# perfect square (a full block of 16 runs of 16), a padded last run
_RUN_LAYOUTS = [1, 2, 3, 255, 256, 257]


@pytest.mark.parametrize("steps", _RUN_LAYOUTS)
@pytest.mark.parametrize(
    "y0", [[1.0, 0.5j, -2.0], np.arange(6).reshape(3, 2) + 1j * np.eye(3, 2)]
)
def test_integrate_matches_textbook_rk4_at_every_run_layout(y0, steps):
    system, a_at = _variable_system()
    traj = integrate(system, y0, (0.0, 1.0), 1.0 / steps)
    reference = _textbook_rk4(a_at, y0, steps)
    assert traj.states.shape == reference.shape
    assert np.max(np.abs(traj.states - reference)) <= 1e-12 * np.max(np.abs(reference))


def test_rk4_rounding_does_not_accumulate():
    # on y'' = -y the RK4 truncation error at h = 5e-4 is below 1e-15;
    # stepping with a rounded propagator I + D instead of the increment
    # D y lifts the endpoint error to about 7e-14
    traj = integrate(_circle_system(), [1.0, 0.0], (0.0, 1.0), 5e-4, {"m": 0})
    end = traj.endpoint()
    assert max(abs(end[0] - math.cos(1.0)), abs(end[1] + math.sin(1.0))) <= 1e-14


def test_rk4_oscillator_state_propagation():
    # first excited state at energy 2: q - m r with m = -2 makes
    # psi = H1 exp(-x^2/2) an exact solution
    fam = oscillator_family()
    sys = companion(fam)

    def psi(x):
        return 2 * x * math.exp(-(x ** 2) / 2)

    def psi_prime(x):
        return (2 - 2 * x ** 2) * math.exp(-(x ** 2) / 2)

    traj = integrate(sys, [psi(0.0), psi_prime(0.0)], (0.0, 1.0), 1e-3, {"m": -2})
    end = traj.endpoint()
    assert abs(end[0] - psi(1.0)) < 1e-8
    assert abs(end[1] - psi_prime(1.0)) < 1e-8


def fundamental_trajectories(system, interval, h, bindings):
    """One trajectory per canonical basis initial state."""
    whole = integrate(system, np.eye(system.n), interval, h, bindings)
    return [Trajectory(whole.xs, whole.states[:, :, k]) for k in range(system.n)]


def test_rk4_orthogonal_norm_preservation():
    # the rigid coupled case with omega2 = 2, omega1 = 0 gives q = 1
    fam = schrodinger_family(ONE)
    sys = so3_system_first(fam).system()
    for traj in fundamental_trajectories(sys, (0.0, 1.0), 1e-3, {"m": 0}):
        norms = np.abs(np.einsum("ij,ij->i", traj.states, traj.states))
        assert np.max(np.abs(norms - norms[0])) < 1e-9


def test_rk4_order_four_convergence():
    ratio = convergence_ratio(
        _circle_system(),
        [1.0, 0.0],
        [math.cos(1.0), -math.sin(1.0)],
        (0.0, 1.0),
        1e-2,
        {"m": 0},
    )
    assert 12.0 <= ratio <= 20.0


def test_integrate_reports_singularities():
    table = DerivationTable()
    sys = LinearSystem(ExprMatrix([[1 / X, ZERO], [ZERO, ZERO]]), table)
    with pytest.raises(EvalSingularity, match=r"coefficient singular at x = 0\.0:"):
        integrate(sys, [1.0, 0.0], (0.0, 1.0), 0.5)


@pytest.mark.parametrize("h", [-1e-3, 0.0, math.inf, math.nan])
def test_integrate_rejects_bad_steps(h):
    with pytest.raises(ValueError, match="step must be finite and positive"):
        integrate(_circle_system(), [1.0, 0.0], (0.0, 1.0), h, {"m": 0})


@pytest.mark.parametrize("run", [
    lambda interval: integrate(_circle_system(), [1.0, 0.0], interval, 1e-3, {"m": 0}),
    lambda interval: integrate_many([(_circle_system(), [1.0, 0.0], {"m": 0})], interval),
    lambda interval: companion_solution_grid(_circle_family(), interval, bindings={"m": 0}),
], ids=["integrate", "integrate_many", "companion_solution_grid"])
@pytest.mark.parametrize("interval", [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0),
                                      (0.0, math.nan), (1.0, 0.0), (0.5, 0.5)])
def test_integration_rejects_bad_intervals(run, interval):
    lo, hi = interval
    with pytest.raises(ValueError, match=f"interval must be finite and increasing, got {lo},{hi}"):
        run(interval)


def _matrix_problems():
    # 2 x 2 fundamental matrices of companion systems, as in the
    # applications sweeps
    osc = companion(oscillator_family())
    return [(osc, np.eye(2), {"m": 0.25}), (_circle_system(), np.eye(2), {"m": 0}),
            (osc, np.eye(2), {"m": -0.75})]


def _vector_problems():
    # 3-vectors of 3 x 3 systems, as in the first-integrals check
    return [
        (sym_system(companion(oscillator_family()), 2), [1.0, 0.25, 2.0], {"m": 1}),
        (so3_system_first(oscillator_family()).system(), [1.0, 0.5j, -0.25], {"m": -2}),
        (_variable_system()[0], [1.0, 0.5j, -2.0], None),
    ]


@pytest.mark.parametrize("problems", [_matrix_problems, _vector_problems])
def test_integrate_many_matches_one_problem_at_a_time(problems):
    steps = 600  # crosses block boundaries
    together = integrate_many(problems(), (0.0, 1.0), 1.0 / steps)
    for (system, state, bindings), traj in zip(problems(), together, strict=True):
        alone = integrate(system, state, (0.0, 1.0), 1.0 / steps, bindings)
        assert np.array_equal(traj.xs, alone.xs)
        assert traj.states.shape == alone.states.shape
        assert np.array_equal(traj.states, alone.states)


@pytest.mark.parametrize("steps", _RUN_LAYOUTS)
@pytest.mark.parametrize("problems", [_matrix_problems, _vector_problems])
def test_integrate_many_matches_one_problem_at_every_run_layout(problems, steps):
    together = integrate_many(problems(), (0.0, 1.0), 1.0 / steps)
    for (system, state, bindings), traj in zip(problems(), together, strict=True):
        alone = integrate(system, state, (0.0, 1.0), 1.0 / steps, bindings)
        assert np.array_equal(traj.xs, alone.xs)
        assert np.array_equal(traj.states, alone.states)


@pytest.mark.parametrize("run", [integrate_many, companion_solution_grids],
                         ids=["integrate_many", "companion_solution_grids"])
def test_integration_rejects_an_empty_problem_list(run):
    with pytest.raises(ValueError, match="the problem list is empty"):
        run([])


def test_integrate_many_reports_singularity_in_a_later_problem():
    singular = LinearSystem(ExprMatrix([[1 / (X - rat(1, 2)), ZERO], [ZERO, ZERO]]),
                            DerivationTable())
    with pytest.raises(EvalSingularity, match=r"coefficient singular at x = 0\.5:"):
        integrate_many([(_circle_system(), [1.0, 0.0], {"m": 0}),
                        (singular, [1.0, 0.0], None)], (0.0, 1.0), 0.25)


@pytest.mark.parametrize("second", [
    (_variable_system()[0], [1.0, 0.0, 0.0], None),  # n = 3 against n = 2
    (_circle_system(), np.eye(2), {"m": 0}),  # a matrix against a vector state
    (_circle_system(), [1.0, 0.0, 0.0], {"m": 0}),  # a state of the wrong length
])
def test_integrate_many_rejects_mismatched_problems(second):
    with pytest.raises(ValueError, match="problems must share n"):
        integrate_many([(_circle_system(), [1.0, 0.0], {"m": 0}), second])


def test_sweep_and_drift_report_singular_sample():
    sys = _circle_system()
    grid = companion_solution_grid(_circle_family(), bindings={"m": 0})
    with pytest.raises(EvalSingularity, match=r"residual singular at x = 0\.4:"):
        residual_sweep(
            ExprMatrix([[1 / (X - rat(2, 5)), ZERO], [ZERO, ZERO]]),
            LinearSystem(sys.a, sys.table),
            grid,
            grid.sample_indices(5),
            bindings={"m": 0},
        )
    traj = integrate(sys, [1.0, 0.0], (0.0, 1.0), 0.25, {"m": 0})
    with pytest.raises(EvalSingularity, match=r"first integral singular at x = 0\.5:"):
        drift(1 / (sym("y") - param("c")), traj, ("y", "y_p"), {"c": traj.states[2][0]})


def test_residual_sweep_zero_candidate():
    sys = _circle_system()
    grid = companion_solution_grid(_circle_family(), bindings={"m": 0})
    value = residual_sweep(
        ExprMatrix.zeros(2),
        LinearSystem(sys.a, sys.table),
        grid,
        grid.sample_indices(5),
        bindings={"m": 0},
    )
    assert value == 0.0


def test_residual_sweep_orthogonal_fundamental():
    # the lifted fundamental matrix solves the orthogonal system along
    # numerically integrated trajectories
    fam = schrodinger_family(ONE)
    grid = companion_solution_grid(fam, bindings={"m": 0})
    _, pair = orthogonal_lift(fam, "Q")
    value = residual_sweep(
        pair.matrix,
        pair.system,
        grid,
        grid.sample_indices(5),
        bindings={"m": 0},
    )
    assert value <= 1e-8


def test_residual_sweep_detects_wrong_flow_orientation():
    # the orthogonal flow orientation cannot be flipped silently: the
    # correctly built fundamental matrix has a large residual against
    # the sign-mutated system
    fam = schrodinger_family(ONE)
    _, pair = orthogonal_lift(fam, "Q")
    orthosys = so3_system_first(fam)
    flipped = LinearSystem(orthosys.skew(), pair.system.table)  # A = +skew, not -skew
    grid = companion_solution_grid(fam, bindings={"m": 0})
    value = residual_sweep(
        pair.matrix,
        flipped,
        grid,
        grid.sample_indices(5),
        bindings={"m": 0},
    )
    assert value >= 1e-2


def _sweep_orthogonal_fundamental(grid, m):
    _, pair = orthogonal_lift(schrodinger_family(ONE), "Q")
    return residual_sweep(pair.matrix, pair.system, grid, grid.sample_indices(5), {"m": m})


def test_residual_sweep_fails_on_a_grid_integrated_at_another_m():
    grid = companion_solution_grid(schrodinger_family(ONE), bindings={"m": 0.3})
    assert _sweep_orthogonal_fundamental(grid, 0.3) <= 1e-8
    assert _sweep_orthogonal_fundamental(grid, -0.7) > 1e-2


def test_residual_sweep_fails_on_a_grid_of_noise():
    # the sweep reads the candidate's derivative off the grid, so values
    # that solve nothing cannot pass it
    grid = companion_solution_grid(schrodinger_family(ONE), bindings={"m": 0.3})
    rng = np.random.default_rng(7)
    shape = grid.xs.shape
    noise = SolutionGrid(grid.xs, {
        name: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for name in grid.values
    })
    assert _sweep_orthogonal_fundamental(noise, 0.3) > 1e-2


def test_residual_sweep_needs_seven_grid_points():
    family = schrodinger_family(ONE)
    six = companion_solution_grid(family, (0.0, 1.0), 0.2, {"m": 0})
    assert len(six.xs) == 6
    with pytest.raises(ValueError, match="at least 7 grid points"):
        _sweep_orthogonal_fundamental(six, 0)
    seven = companion_solution_grid(family, (0.0, 1.0), 1 / 6, {"m": 0})
    assert len(seven.xs) == 7
    assert np.isfinite(_sweep_orthogonal_fundamental(seven, 0))


@pytest.mark.parametrize("indices", [[5000], [-7], [0, 50, 101]])
def test_residual_sweep_rejects_indices_off_the_grid(indices):
    # clipped, these would sweep an edge sample and read like a certificate
    grid = companion_solution_grid(schrodinger_family(ONE), (0.0, 1.0), 1e-2, {"m": 0})
    assert len(grid.xs) == 101
    _, pair = orthogonal_lift(schrodinger_family(ONE), "Q")
    with pytest.raises(ValueError, match=r"sample indices must lie in \[0, 101\)"):
        residual_sweep(pair.matrix, pair.system, grid, indices, {"m": 0})
    # in-range edge indices still move inward onto a full stencil
    assert residual_sweep(pair.matrix, pair.system, grid, [0, 1, 99, 100], {"m": 0}) <= 1e-8


def test_residual_sweep_rejects_an_empty_sample_list():
    grid = companion_solution_grid(schrodinger_family(ONE), bindings={"m": 0})
    _, pair = orthogonal_lift(schrodinger_family(ONE), "Q")
    with pytest.raises(ValueError, match="at least one sample index"):
        residual_sweep(pair.matrix, pair.system, grid, [], {"m": 0})


@pytest.mark.parametrize("indices, bad", [
    ([2.7, 50.5], "2.7"),
    ([True, False], "True"),
    ([0, 50.0], "50.0"),
    (np.array([1.0, 2.0]), "1.0"),
    ([np.bool_(True)], "True"),
])
def test_residual_sweep_rejects_indices_that_are_not_integers(indices, bad):
    # np.asarray(..., dtype=int) would truncate these to other samples
    grid = companion_solution_grid(schrodinger_family(ONE), (0.0, 1.0), 1e-2, {"m": 0})
    _, pair = orthogonal_lift(schrodinger_family(ONE), "Q")
    with pytest.raises(ValueError, match=f"sample indices must be integers, got .*{bad}"):
        residual_sweep(pair.matrix, pair.system, grid, indices, {"m": 0})
    # numpy integers are integers
    assert residual_sweep(pair.matrix, pair.system, grid, np.array([2, 50]), {"m": 0}) <= 1e-8


def _exact_circle_grid(xs):
    # cos x and sin x solve y'' = -y exactly
    return SolutionGrid(xs, {"y1": np.cos(xs), "y1_p": -np.sin(xs),
                             "y2": np.sin(xs), "y2_p": np.cos(xs)})


def test_solution_grid_rejects_uneven_points():
    # the sweep's difference stencil assumes an even grid: on the squared
    # points below, the exact solutions would sweep at about 156
    family = _circle_family()
    (y1, y2), _ = family.solution_symbols("y1", "y2")
    fundamental = ExprMatrix([[y1[0], y2[0]], [y1[1], y2[1]]])
    even = np.linspace(0.0, 1.0, 101)
    grid = _exact_circle_grid(even)
    value = residual_sweep(fundamental, companion(family), grid, grid.sample_indices(5),
                           {"m": 0})
    assert value <= 1e-10
    for xs in (even ** 2, even[::-1], np.r_[0.0, 0.0, 1.0]):
        with pytest.raises(ValueError, match="evenly spaced"):
            _exact_circle_grid(xs)


def test_lifted_fundamental_tracks_lifted_flow_numerically():
    # the symmetric square of an integrated fundamental matrix solves
    # the lifted system: d/dx Sym2(Phi) = sym_lie(Phi' Phi^{-1}) Sym2(Phi)
    fam = oscillator_family()
    fundamental, table = fam.fundamental_matrix()
    grid = companion_solution_grid(fam, bindings={"m": -2})
    value = residual_sweep(
        sym_group(fundamental, 2),
        sym_system(LinearSystem(companion(fam).a, table), 2),
        grid,
        grid.sample_indices(5),
        bindings={"m": -2},
    )
    assert value <= 1e-8


def test_drift_constant_expression():
    traj = integrate(_circle_system(), [1.0, 0.0], (0.0, 1.0), 1e-2, {"m": 0})
    assert drift(const(7), traj, ("y", "y_p")) == 0.0


def test_drift_orthogonal_first_integral():
    fam = schrodinger_family(ONE)
    sys = so3_system_first(fam).system()
    traj = integrate(sys, [1.0, 1j, 0.5], (0.0, 1.0), 1e-3, {"m": 0})
    value = drift(
        first_integral_orthogonal(), traj, ("alpha", "beta", "gamma")
    )
    assert value <= 1e-8


def test_drift_sym2_first_integral():
    fam = oscillator_family()
    lifted = sym_system(companion(fam), 2)
    traj = integrate(lifted, [1.0, 0.25, 2.0], (0.0, 1.0), 1e-3, {"m": 1})
    value = drift(
        first_integral_sym2(fam.w),
        traj,
        ("z1", "z2", "z3"),
        bindings={"w": 1.0},
    )
    assert value <= 1e-8


def _companion_case():
    return companion(oscillator_family()), {"m": -2}


def _sym2_case():
    return sym_system(companion(oscillator_family()), 2), {"m": 1}


def _so3_case():
    return so3_system_first(oscillator_family()).system(), {"m": -2}


@pytest.mark.parametrize("case", [_companion_case, _sym2_case, _so3_case])
def test_matrix_state_matches_per_column_integration(case):
    system, bindings = case()
    columns = fundamental_trajectories(system, (0.0, 1.0), 1e-3, bindings)
    for k, column in enumerate(columns):
        alone = integrate(system, np.eye(system.n)[k], (0.0, 1.0), 1e-3, bindings)
        assert np.array_equal(column.xs, alone.xs)
        assert np.max(np.abs(column.states - alone.states)) <= 1e-13


def _growing_datum_family(q):
    # p = x + 1 with the symbolic Wronskian datum w' = (x + 1) w
    w = sym("w")
    return SecondOrderFamily(p=normalize(X + 1), q=normalize(q), r=ONE, w=w,
                             table=DerivationTable({"w": (X + 1) * w}))


def test_companion_grid_matches_per_column_path():
    family = _growing_datum_family(-(X ** 2) + 1)
    grid = companion_solution_grid(family, bindings={"m": 0.5})
    system = companion(family)
    aug = LinearSystem(
        ExprMatrix([list(row) + [0] for row in system.a.rows] + [[0, 0, -(X + 1)]]),
        system.table,
    )
    for k, name in enumerate(("y1", "y2")):
        state = [0.0, 0.0, 1.0]
        state[k] = 1.0
        alone = integrate(aug, state, bindings={"m": 0.5})
        assert np.array_equal(grid.xs, alone.xs)
        assert np.max(np.abs(grid.values[name] - alone.states[:, 0])) <= 1e-13
        assert np.max(np.abs(grid.values[name + "_p"] - alone.states[:, 1])) <= 1e-13
        assert np.max(np.abs(grid.values["w"] - alone.states[:, 2])) <= 1e-13


def test_companion_grids_match_one_system_at_a_time():
    pairs = [(_growing_datum_family(-(X ** 2) + 1), {"m": 0.5}),
             (_growing_datum_family(ONE), {"m": 0})]
    grids = companion_solution_grids(pairs)
    for (family, bindings), grid in zip(pairs, grids, strict=True):
        alone = companion_solution_grid(family, bindings=bindings)
        assert np.array_equal(grid.xs, alone.xs)
        assert grid.values.keys() == alone.values.keys() == {"y1", "y1_p", "y2", "y2_p", "w"}
        for name, values in alone.values.items():
            assert np.array_equal(grid.values[name], values)


def test_companion_grid_backs_the_frame_datum():
    # the Frenet Q family's datum w_frame' = i kappa w_frame is integrated
    # under its own name; kappa = 2 + x/2 gives exp(i (2x + x^2/4))
    family = FrenetData(normalize(2 + X / 2), -2 * I, "Q").family()
    grid = companion_solution_grid(family, bindings={"m": 0.7})
    assert grid.values.keys() == {"y1", "y1_p", "y2", "y2_p", FRAME_DATUM}
    exact = np.exp(1j * (2 * grid.xs + grid.xs ** 2 / 4))
    assert np.max(np.abs(grid.values[FRAME_DATUM] - exact)) <= 1e-10


@pytest.mark.parametrize("family", [
    schrodinger_family(ONE),  # w = 1
    SecondOrderFamily(p=1 / (X + 1), q=ONE, r=ONE, w=X + 1, table=DerivationTable()),
])
def test_companion_grid_without_a_datum_symbol(family):
    grid = companion_solution_grid(family, bindings={"m": 0})
    assert grid.values.keys() == {"y1", "y1_p", "y2", "y2_p"}


def test_companion_grids_reject_mixed_datum_kinds():
    with pytest.raises(ValueError, match="problems must share n"):
        companion_solution_grids([(_circle_family(), {"m": 0}),
                                  (_growing_datum_family(ONE), {"m": 0})])


def test_sample_indices_include_both_endpoints():
    for points in (1001, 2001, 1003, 4):
        grid = SolutionGrid(np.linspace(0.0, 1.0, points), {})
        indices = grid.sample_indices(5)
        assert indices[0] == 0 and indices[-1] == points - 1
        assert len(indices) == min(6, points)


@pytest.mark.parametrize("count", [0, -1])
def test_sample_indices_reject_counts_below_one(count):
    grid = SolutionGrid(np.linspace(0.0, 1.0, 11), {})
    with pytest.raises(ValueError, match=f"sample count must be at least 1, got {count}"):
        grid.sample_indices(count)
