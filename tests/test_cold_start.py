"""numpy is a dependency of the numeric half only.

Importing the package, building the CLI parser, the exact verify checks
and every exact CLI command leave numpy unloaded; the RK4 oracle and
``evaluate`` load it on first use.  Nor does a cold CLI call import
dataclasses, and a construction command loads neither the verify suite
(``golden``) nor ``logging``.  pytest has numpy loaded already, so each
of these runs in a fresh interpreter, with DARBOUXKIT_LOG unset.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import darbouxkit
from darbouxkit import numverify

ROOT = Path(__file__).resolve().parents[1]
OSCILLATOR = str(ROOT / "perfbench" / "oscillator.json")

EXACT_CHECKS = ["darboux-covariance", "darboux-gauge", "sym-power", "lifted-transforms",
                "riccati-parametrization", "susy-oscillator"]
EXACT_COMMANDS = [
    ["darboux", "apply", "--family", OSCILLATOR, "--theta0", "-x"],
    ["darboux", "chain", "--family", OSCILLATOR, "--theta0", "-x", "--k", "2"],
    ["sympow", "operator", "--family", OSCILLATOR],
    ["sympow", "system", "--family", OSCILLATOR],
    ["so3", "lift", "--route", "Q", "--rigid", "--omega2", "2-i*w1"],
    ["so3", "darboux", "--route", "S", "--rigid", "--omega1", "w1"],
    ["so3", "riccati", "--route", "Q", "--f", "f", "--g", "g", "--h", "h"],
    ["susy", "partners", "--w", "x"],
    ["susy", "spectrum", "--n", "3"],
    ["susy", "states", "--n", "3", "--order", "3"],
    ["susy", "states", "--n", "3", "--order", "4"],
    ["frenet", "build", "--route", "S", "--kappa", "kappa", "--tau", "tau"],
    ["frenet", "chain", "--route", "S", "--kappa", "kappa", "--tau", "tau", "--k", "1"],
    ["rigid", "build", "--route", "Q", "--omega2", "2-i*w1"],
    ["rigid", "chain", "--route", "S", "--omega1", "w1", "--k", "1"],
]
NUMERIC_NAMES = {"Trajectory", "companion_solution_grid", "companion_solution_grids",
                 "convergence_ratio", "drift", "integrate", "integrate_many",
                 "residual_sweep"}


def _fresh(code: str):
    """Run ``code`` in a new interpreter that has not loaded numpy; the
    last line it prints is JSON."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    prelude = "import json, sys\nassert 'numpy' not in sys.modules\n"
    env = {k: v for k, v in os.environ.items() if k != "DARBOUXKIT_LOG"}
    proc = subprocess.run(
        [sys.executable, "-c", prelude + textwrap.dedent(code)],
        capture_output=True, text=True, env={**env, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_and_parser_leave_numpy_unloaded():
    loaded = _fresh("""
        import darbouxkit
        after_package = 'numpy' in sys.modules
        import darbouxkit.cli
        darbouxkit.cli.build_parser()
        print(json.dumps([after_package, 'numpy' in sys.modules]))
    """)
    assert loaded == [False, False]


def test_import_parser_and_exact_command_leave_dataclasses_unloaded():
    # records subclass expr.Record, which generates no code per class, so a
    # cold CLI call never imports dataclasses (or inspect behind it)
    loaded = _fresh(f"""
        import contextlib, io
        before = 'dataclasses' in sys.modules
        import darbouxkit.cli
        darbouxkit.cli.build_parser()
        after_parser = 'dataclasses' in sys.modules
        with contextlib.redirect_stdout(io.StringIO()):
            code = darbouxkit.cli.main({EXACT_COMMANDS[1]!r})
        print(json.dumps([before, after_parser, code, 'dataclasses' in sys.modules]))
    """)
    assert loaded == [False, False, 0, False]


def test_construction_commands_leave_the_verify_suite_and_logging_unloaded():
    # golden loads for verify and run_checks only, logging for DARBOUXKIT_LOG
    # only; the first command that loads either is named
    result = _fresh(f"""
        import contextlib, io
        import darbouxkit, darbouxkit.cli
        loaded = lambda: [m for m in ('darbouxkit.golden', 'logging') if m in sys.modules]
        darbouxkit.cli.build_parser()
        after_parser, listed = loaded(), 'run_checks' in dir(darbouxkit)
        codes = []
        for argv in {EXACT_COMMANDS!r}:
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(darbouxkit.cli.main(argv))
            if loaded():
                break
        print(json.dumps([after_parser, listed, codes, loaded(), argv]))
    """)
    assert result == [[], True, [0] * len(EXACT_COMMANDS), [], EXACT_COMMANDS[-1]]


def test_verify_and_run_checks_load_the_verify_suite():
    # positive controls: the suite still arrives when it is asked for
    result = _fresh("""
        import contextlib, io
        from darbouxkit import cli
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(["verify", "--check", "darboux-gauge"])
        report = json.loads(out.getvalue())
        print(json.dumps([code, report["pass"], 'darbouxkit.golden' in sys.modules]))
    """)
    assert result == [0, True, True]
    result = _fresh("""
        import darbouxkit
        before = 'darbouxkit.golden' in sys.modules
        from darbouxkit import run_checks
        report = run_checks(["darboux-gauge"])
        print(json.dumps([before, report["pass"], 'darbouxkit.golden' in sys.modules]))
    """)
    assert result == [False, True, True]


def test_exact_checks_leave_numpy_unloaded():
    result = _fresh(f"""
        from darbouxkit import run_checks
        report = run_checks({EXACT_CHECKS!r})
        print(json.dumps([report["pass"], 'numpy' in sys.modules]))
    """)
    assert result == [True, False]


def test_exact_commands_leave_numpy_unloaded():
    # every command must succeed; the first that loads numpy is named
    result = _fresh(f"""
        import contextlib, io
        from darbouxkit.cli import main
        codes = []
        for argv in {EXACT_COMMANDS!r}:
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(main(argv))
            if 'numpy' in sys.modules:
                print(json.dumps([codes, argv]))
                break
        else:
            print(json.dumps([codes, None]))
    """)
    assert result == [[0] * len(EXACT_COMMANDS), None]


def test_numeric_half_loads_numpy():
    # positive controls: the oracle still arrives when it is asked for
    loaded = _fresh("""
        from darbouxkit import golden
        report = golden.run_checks(["rk4-closed-form"])
        after_check = 'numpy' in sys.modules
        print(json.dumps([report["pass"], after_check]))
    """)
    assert loaded == [True, True]
    loaded = _fresh("""
        import darbouxkit
        before = 'numpy' in sys.modules
        darbouxkit.integrate
        print(json.dumps([before, 'numpy' in sys.modules]))
    """)
    assert loaded == [False, True]


def test_first_evaluate_binds_numpy_exp():
    # the first evaluate in a process binds numpy.exp: bit-identical to it
    # on a complex128 array, and the singular division still raises
    result = _fresh("""
        from darbouxkit.expr import Div, EvalSingularity, ONE, X, evaluate, exp
        import numpy as np
        xs = np.linspace(-2, 3, 101).astype(np.complex128) * (1 + 0.5j)
        same = evaluate(exp(X), {"x": xs}).tobytes() == np.exp(xs).tobytes()
        scalar = evaluate(exp(X), {"x": 0.25j}) == np.exp(0.25j)
        try:
            evaluate(Div(ONE, X), {"x": np.array([1.0, 0.0], dtype=np.complex128)})
            singular = False
        except EvalSingularity:
            singular = True
        print(json.dumps([same, bool(scalar), singular]))
    """)
    assert result == [True, True, True]


@pytest.mark.parametrize("name", sorted(NUMERIC_NAMES))
def test_package_serves_numeric_names(name):
    assert getattr(darbouxkit, name) is getattr(numverify, name)
    assert name in dir(darbouxkit)


def test_package_names_resolve():
    from darbouxkit import Trajectory, integrate, run_checks

    assert integrate is numverify.integrate
    assert Trajectory is numverify.Trajectory
    assert run_checks is darbouxkit.golden.run_checks
    assert {"run_checks", "evaluate", "orthogonal_lift"} <= set(dir(darbouxkit))
    with pytest.raises(AttributeError, match="no_such_name"):
        darbouxkit.no_such_name
    with pytest.raises(ImportError):
        from darbouxkit import no_such_name  # noqa: F401

