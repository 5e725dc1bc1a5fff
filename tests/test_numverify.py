import cmath
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
from darbouxkit.linsys import ExprMatrix, LinearSystem, companion, residual
from darbouxkit.numverify import (
    _BLOCK,
    SolutionGrid,
    companion_solution_grid,
    companion_solution_grids,
    convergence_ratio,
    drift,
    fundamental_trajectories,
    integrate,
    integrate_many,
    residual_sweep,
)
from darbouxkit.susyqm import hermite
from darbouxkit.tensordt import (
    first_integral_orthogonal,
    first_integral_sym2,
    fundamental_matrices,
    so3_system_first,
)
from darbouxkit.sympow import sym_group, sym_lie, sym_system
from conftest import oscillator_family, schrodinger_family


def _circle_system():
    # y'' = -y as a companion system
    fam = schrodinger_family(ONE)
    return companion(fam)


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
    grid = companion_solution_grid(sys, bindings={"m": 0})
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
    grid = companion_solution_grid(sys, bindings={"m": 0})
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
    fset = fundamental_matrices(fam)
    sys = companion(fam)
    grid = companion_solution_grid(sys, bindings={"m": 0}, w_rate=fam.p)
    pair = fset.orthogonal
    value = residual_sweep(
        pair.matrix,
        LinearSystem(pair.system.a, fset.table),
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
    fset = fundamental_matrices(fam)
    orthosys = so3_system_first(fam)
    flipped = LinearSystem(orthosys.skew(), fset.table)  # A = +skew, not -skew
    grid = companion_solution_grid(companion(fam), bindings={"m": 0}, w_rate=fam.p)
    value = residual_sweep(
        fset.orthogonal.matrix,
        flipped,
        grid,
        grid.sample_indices(5),
        bindings={"m": 0},
    )
    assert value >= 1e-2


def test_lifted_fundamental_tracks_lifted_flow_numerically():
    # the symmetric square of an integrated fundamental matrix solves
    # the lifted system: d/dx Sym2(Phi) = sym_lie(Phi' Phi^{-1}) Sym2(Phi)
    fam = oscillator_family()
    fset = fundamental_matrices(fam)
    grid = companion_solution_grid(companion(fam), bindings={"m": -2})
    value = residual_sweep(
        fset.sym2.matrix,
        LinearSystem(fset.sym2.system.a, fset.table),
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


def test_companion_grid_matches_per_column_path():
    system = companion(oscillator_family())
    rate = normalize(X + 1)
    grid = companion_solution_grid(system, bindings={"m": 0.5}, w_rate=rate)
    aug = LinearSystem(
        ExprMatrix([list(row) + [0] for row in system.a.rows] + [[0, 0, -rate]]),
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
    system = companion(oscillator_family())
    rate = normalize(X + 1)
    pairs = [(system, {"m": 0.5}), (_circle_system(), {"m": 0})]
    grids = companion_solution_grids(pairs, w_rate=rate)
    for (one, bindings), grid in zip(pairs, grids, strict=True):
        alone = companion_solution_grid(one, bindings=bindings, w_rate=rate)
        assert np.array_equal(grid.xs, alone.xs)
        assert grid.values.keys() == alone.values.keys() == {"y1", "y1_p", "y2", "y2_p", "w"}
        for name, values in alone.values.items():
            assert np.array_equal(grid.values[name], values)


def test_sample_indices_include_both_endpoints():
    for points in (1001, 2001, 1003, 4):
        grid = SolutionGrid(np.linspace(0.0, 1.0, points), {})
        indices = grid.sample_indices(5)
        assert indices[0] == 0 and indices[-1] == points - 1
        assert len(indices) == min(6, points)
