"""Workload definitions and correctness gates of the darbouxkit benchmark.

Three workloads run through the public entry points ``golden.run_checks``
and ``cli.main``.  Every timed result is checked here, independently of
the verdicts the program reports about itself:

* verify reports must pass *and* meet bounds pinned in this file;
* every expression a CLI artifact emits is parsed back and evaluated at
  Gaussian-rational points, and compared with values recorded once
  (``reference.json``, written by ``record_reference.py``).  Values do
  not depend on how an expression is represented, so a change of normal
  form passes and wrong mathematics fails.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from random import Random

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
OSCILLATOR_PATH = HERE / "oscillator.json"

EXACT_CHECKS = (
    "darboux-covariance", "darboux-gauge", "sym-power",
    "lifted-transforms", "riccati-parametrization", "susy-oscillator",
)
NUMERIC_CHECKS = (
    "rk4-closed-form", "rk4-order", "first-integrals",
    "applications", "orientation-mutation",
)
ALL_CHECKS = EXACT_CHECKS + NUMERIC_CHECKS
# Finer than the default 1e-3 so that the RK4 oracle dominates the pass;
# every numeric check still passes at this step.
NUMERIC_STEP = 5e-4

# Chain constructions: artifact id -> CLI arguments.
CHAIN_COMMANDS = {
    "frenet-chain": ["frenet", "chain", "--route", "S", "--kappa", "kappa",
                     "--tau", "tau", "--k", "2"],
    "rigid-chain": ["rigid", "chain", "--route", "S", "--omega1", "w1", "--k", "2"],
    "so3-darboux": ["so3", "darboux", "--route", "Q", "--rigid", "--omega2", "2-i*w1"],
    "susy-states": ["susy", "states", "--n", "5", "--order", "3"],
    "darboux-chain": ["darboux", "chain", "--family", str(OSCILLATOR_PATH),
                      "--theta0", "-x", "--k", "4"],
}

WORKLOADS = {
    "verify-exact": (
        "The six exact verify checks: many small, heavily shared expressions "
        "in expr, linsys, sympow, darboux and tensordt, with a warm pass about "
        "60x faster than the cold one."
    ),
    "verify-numeric": (
        "The five numeric verify checks at step 5e-4, where the RK4 loop and "
        "tree-walking evaluate take most of the cold time."
    ),
    "chain-growth": (
        "Five CLI constructions with large, growing rational functions and "
        "little reuse; the only workload that parses, prints and emits JSON."
    ),
}

# Layer metric -> end-to-end metric it should move -> workloads where it shows.
PREDICTIONS = (
    ("expr.normalize.self_s, expr.normalize.calls", "wall_s", "verify-exact, chain-growth"),
    ("expr.normalize.repeat_ratio", "warm_wall_s vs wall_s",
     "high on verify-exact, low on chain-growth"),
    ("expr.differentiate.self_s, expr.substitute.self_s", "wall_s", "verify-exact"),
    ("expr.max_num_terms, expr.max_den_terms", "wall_s, peak_rss_mb", "chain-growth"),
    ("expr.parse.self_s, expr.print.self_s", "wall_s", "chain-growth only"),
    ("linsys.det/inverse/gauge.self_s, linsys.matmul.calls", "wall_s", "verify-exact"),
    ("sympow.sym_system.self_s, sympow.sym_group.self_s", "wall_s", "verify-exact"),
    ("darboux.make_seed/darboux_potential/darboux_gauge.self_s", "wall_s",
     "verify-exact, chain-growth"),
    ("tensordt.lift/fundamental_matrices/flow_derivative.self_s", "wall_s",
     "verify-exact, chain-growth"),
    ("susyqm.self_s", "wall_s", "verify-exact"),
    ("apps.build.self_s, apps.application_chain.self_s", "wall_s",
     "chain-growth, verify-numeric"),
    ("numverify.*", "wall_s", "verify-numeric only; about 0 elsewhere"),
    ("golden.<check>.s", "wall_s", "the workload holding the check"),
    ("cli.main.s, cli.artifact_bytes", "wall_s", "chain-growth"),
)

# Pass bounds pinned here, so that a report cannot pass by loosening its
# own tolerance: check -> ("max" | "min", bound on max_residual).
REPORT_BOUNDS = {
    **{check: ("max", 0.0) for check in EXACT_CHECKS},
    "rk4-closed-form": ("max", 1e-10),
    "rk4-order": ("max", 4.0),
    "first-integrals": ("max", 1e-8),
    "applications": ("max", 1e-8),
    "orientation-mutation": ("min", 1e-2),
}

# Artifact keys whose string values are not expressions; keys containing
# "pretty" hold display text and are skipped as well.
NOT_EXPRESSIONS = {"command", "route", "convention", "m", "ground_state_symbol"}
POINT_POOL = 16        # points recorded in reference.json
POINTS_PER_RUN = 4     # of which the workload seed picks this many
REL_TOL = 1e-9
# A pool point is kept only where floating-point evaluation of every
# reference expression is this close to its exact value, which leaves
# points near a pole, where cancellation eats the digits, out of the pool.
CONDITION_TOL = REL_TOL / 1000


def report_failure(report: dict) -> str | None:
    """Why a verify report fails the gate, or None if it passes."""
    mode, bound = REPORT_BOUNDS[report["check"]]
    value = report["max_residual"]
    if not report["pass"]:
        return f"{report['check']}: verdict false (measured {value})"
    ok = value >= bound if mode == "min" else value <= bound
    if not ok:
        return f"{report['check']}: measured {value}, {mode} bound {bound}"
    return None


def expression_leaves(document, path: str = "") -> dict[str, str]:
    """Every expression string in a CLI artifact, keyed by its JSON path."""
    out: dict[str, str] = {}
    if isinstance(document, dict):
        for key, value in document.items():
            if key in NOT_EXPRESSIONS or "pretty" in key:
                continue
            out.update(expression_leaves(value, f"{path}/{key}"))
    elif isinstance(document, list):
        for index, value in enumerate(document):
            out.update(expression_leaves(value, f"{path}/{index}"))
    elif isinstance(document, str):
        out[path] = document
    return out


def point_value(name: str, index: int) -> tuple[Fraction, Fraction]:
    """Gaussian-rational value bound to ``name`` at pool point ``index``."""
    rng = Random(f"{name}@{index}")
    return (Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)))


def sample_points(seed: int) -> list[int]:
    """Positions in the point pool that the seed selects for the gate."""
    return sorted(Random(seed).sample(range(POINT_POOL), POINTS_PER_RUN))


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def artifact_failures(artifact_id: str, text: str, reference: dict,
                      positions: list[int]) -> list[str]:
    """Compare an emitted artifact with the recorded reference values at
    the given positions of the reference's point pool."""
    from darbouxkit.expr import evaluate, free_names, parse_sexpr

    expected = reference["artifacts"][artifact_id]
    leaves = expression_leaves(json.loads(text))
    if set(leaves) != set(expected):
        diff = sorted(set(leaves) ^ set(expected))
        return [f"{artifact_id}: expression paths differ: {diff[:5]}"]
    failures = []
    for path, sexpr in leaves.items():
        expr = parse_sexpr(sexpr)
        names = free_names(expr) | {"x"}
        for pos in positions:
            index = reference["points"][pos]
            env = {n: complex(*map(float, point_value(n, index))) for n in names}
            value = evaluate(expr, env)
            ref = complex(*expected[path][pos])
            if not abs(value - ref) <= REL_TOL * abs(ref):
                failures.append(f"{artifact_id}{path} at point {index}: {value} != {ref}")
    return failures
