"""darbouxkit benchmark driver.

    python3 perfbench/run.py --workload verify-exact --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  A closed loop with one client: the
driver starts one child interpreter at a time (``child.py``) and waits
for it, so every timed repetition pays darbouxkit's cold cost, as each
CLI call does.  The child imports the package from the checkout's
``src``; nothing is installed.

With ``--trace 0`` the run first times set-up in a few import-only
children, then repeats cold passes of the workload (each followed by a
warm pass in the same child) for ``--seconds``, and reports the
end-to-end metrics.  With ``--trace 1`` it alternates untraced and
traced children and reports the per-layer metrics of the traced ones.

Standard error gets a table of every metric with its unit and sample
count; standard output gets a JSON record of the run (environment,
metrics, per-check times, failures, workload reason and predictions) and,
as its last line, the summary ``{"correct", "attempted", "failed",
"metrics"}``.  The exit status is 0 whenever a result is printed; it is 2
if the checkout holds no darbouxkit source.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
from tracing import LAYERS, SELF_GROUPS, CALL_COUNTS  # noqa: E402
from workloads import (  # noqa: E402
    ALL_CHECKS,
    CHAIN_COMMANDS,
    EXACT_CHECKS,
    NUMERIC_CHECKS,
    PREDICTIONS,
    WORKLOADS,
)

SETUP_PROBES = 3      # import-only children before the timed repetitions
# Timed repetitions even when they outlast --seconds; verify-exact always
# gets the 11 that wall_tail_s needs.
MIN_REPS = {"verify-exact": 11, "verify-numeric": 3, "chain-growth": 3}
MIN_TRACE_PAIRS = 2
# Warm passes per child: several where a warm pass takes well under a tenth
# of a second, so that warm_wall_s is a median over enough passes.
WARM_PASSES = {"verify-exact": 4, "verify-numeric": 1, "chain-growth": 4}
HARD_LIMIT_S = 170.0  # no child may run past this point of the run

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "warm_wall_s": "s",
    "peak_rss_mb": "MB",
}

ITEMS = {
    "verify-exact": EXACT_CHECKS,
    "verify-numeric": NUMERIC_CHECKS,
    "chain-growth": tuple(CHAIN_COMMANDS),
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric of a traced run, with its unit."""
    units = {f"{layer}.module_self_s": "s" for layer in LAYERS}
    units.update({name: "s" for name in SELF_GROUPS})
    units.update({name: "count" for name in CALL_COUNTS})
    units.update({
        "expr.normalize.repeat_ratio": "ratio",
        "expr.max_num_terms": "count",
        "expr.max_den_terms": "count",
        "expr.share": "ratio",
        "numverify.rk4_steps": "count",
        "numverify.steps_per_s": "1/s",
        "numverify.share": "ratio",
    })
    units.update({f"golden.{check}.s": "s" for check in ALL_CHECKS})
    units.update({
        "cli.main.s": "s",
        "cli.artifact_bytes": "bytes",
        "trace.unwrapped_s": "s",
        "trace.traced_wall_s": "s",
        "trace.untraced_wall_s": "s",
        "trace.overhead_s": "s",
    })
    return units


def tail(samples: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples above it, and its value.

    None when there are fewer than eleven samples.
    """
    n = len(samples)
    if n < 11:
        return None
    rank = n - 10  # nearest rank: ten samples lie above this one
    return 100.0 * rank / n, sorted(samples)[rank - 1]


def git_sha(root: Path) -> str | None:
    """Commit of the checkout, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


class Runner:
    """Starts child interpreters one at a time, within the run's time limit."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.start = time.perf_counter()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        # Every child compiles darbouxkit from source and writes no bytecode,
        # so set-up means the same whatever the checkout already holds.
        self.env["PYTHONDONTWRITEBYTECODE"] = "1"
        self.crashes: list[str] = []
        self.versions: dict = {}

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def child(self, *extra: str) -> tuple[dict | None, float]:
        """Run one child; returns its JSON record (None if it failed) and
        the wall time the child took."""
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", self.workload,
               "--seed", str(self.seed), *extra]
        began = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=max(1.0, HARD_LIMIT_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            self.crashes.append(f"child {' '.join(extra)} timed out")
            return None, time.perf_counter() - began
        took = time.perf_counter() - began
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self.crashes.append(f"child {' '.join(extra)} exited {proc.returncode}: "
                                f"{proc.stderr.strip()[-2000:]}")
            return None, took
        record = json.loads(lines[-1])
        self.versions = record["versions"]
        return record, took

    def keep_going(self, done: int, minimum: int, durations: list[float],
                   seconds: float) -> bool:
        """Start another repetition if it is expected to end within the run."""
        if self.elapsed() >= HARD_LIMIT_S - 2 * max(durations, default=0.0):
            return False
        if done < minimum:
            return True
        return self.elapsed() + statistics.median(durations) <= seconds


def _count(records: list[dict | None], items: int, passes: int) -> tuple[int, int, list[str]]:
    """Items attempted and failed over the cold and warm passes of children."""
    attempted = failed = 0
    reasons: list[str] = []
    for record in records:
        if record is None:
            attempted += items * passes
            failed += items * passes
            continue
        for result in [record["cold"], *record.get("warm", [])]:
            attempted += len(result["failures"])
            bad = [f for f in result["failures"] if f]
            failed += len(bad)
            reasons.extend(bad)
    return attempted, failed, reasons


def normalized(probes: list[dict], good: list[dict]) -> dict[str, list[float]]:
    """Time samples rescaled to the reference speed (``speed.py``) by the
    children: ``probes`` are the set-up-only children, ``good`` the work
    children that ran."""
    return {
        "setup_s": [r["norm_setup_s"] for r in probes + good],
        "wall_s": [r["cold"]["norm_wall_s"] for r in good],
        "cpu_s": [r["cold"]["norm_cpu_s"] for r in good],
        "warm_wall_s": [w["norm_wall_s"] for r in good for w in r["warm"]],
    }


def timed_run(runner: Runner, seconds: float) -> tuple[dict, dict]:
    probes = [runner.child("--setup-only")[0] for _ in range(SETUP_PROBES)]
    probes = [r for r in probes if r is not None]
    records, durations = [], []
    minimum = MIN_REPS[runner.workload]
    while runner.keep_going(len(records), minimum, durations, seconds):
        record, took = runner.child("--warm", str(WARM_PASSES[runner.workload]))
        records.append(record)
        durations.append(took)
    good = [r for r in records if r is not None]
    samples = {
        "setup_s": [r["setup_s"] for r in probes + good],
        "wall_s": [r["cold"]["wall_s"] for r in good],
        "cpu_s": [r["cold"]["cpu_s"] for r in good],
        "warm_wall_s": [w["wall_s"] for r in good for w in r["warm"]],
        "peak_rss_mb": [r["peak_rss_mb"] for r in good],
    }
    raw = {name: statistics.median(values) for name, values in samples.items() if values}
    samples.update(normalized(probes, good))
    items = ITEMS[runner.workload]
    attempted, failed, reasons = _count(records, len(items), 1 + WARM_PASSES[runner.workload])
    metrics = {
        name: {"value": statistics.median(values), "unit": END_TO_END[name],
               "samples": len(values)}
        for name, values in samples.items() if values
    }
    tail_of_wall = tail(samples["wall_s"])
    details = {
        "raw_medians": raw,
        "reference_iteration_s": statistics.median(
            r["reference_iteration_s"] for r in good) if good else None,
        "wall_tail_s": None if tail_of_wall is None else {
            "percentile": tail_of_wall[0], "value": tail_of_wall[1], "unit": "s",
        },
        "fail_ratio": failed / attempted if attempted else 1.0,
        "per_item_cold_s": {
            name: statistics.median(r["cold"]["seconds"][i] for r in good)
            for i, name in enumerate(items)
        } if good else {},
        "failures": reasons[:20] + runner.crashes,
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics}, details


def traced_run(runner: Runner, seconds: float) -> tuple[dict, dict]:
    plain, traced, durations = [], [], []
    while runner.keep_going(len(traced), MIN_TRACE_PAIRS, durations, seconds):
        began = runner.elapsed()
        plain.append(runner.child("--warm", "0")[0])
        traced.append(runner.child("--trace", "1")[0])
        durations.append(runner.elapsed() - began)
    attempted, failed, reasons = _count(plain + traced, len(ITEMS[runner.workload]), 1)
    good = [r for r in traced if r is not None]
    walls = [r["cold"]["wall_s"] for r in good]
    plain_walls = [r["cold"]["wall_s"] for r in plain if r is not None]
    metrics = {}
    units = per_layer_units()
    for name in good[0]["layers"] if good else ():
        values = [r["layers"][name] for r in good]
        metrics[name] = {"value": statistics.median(values), "unit": units[name],
                         "samples": len(values)}
    if walls and plain_walls:
        for name, values in (("trace.traced_wall_s", walls),
                             ("trace.untraced_wall_s", plain_walls)):
            metrics[name] = {"value": statistics.median(values), "unit": "s",
                             "samples": len(values)}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(walls) - statistics.median(plain_walls),
            "unit": "s", "samples": min(len(walls), len(plain_walls)),
        }
    details = {
        "spans_per_pass": [r["spans"] for r in good],
        "fail_ratio": failed / attempted if attempted else 1.0,
        "failures": reasons[:20] + runner.crashes,
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics}, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "darbouxkit" / "__init__.py").is_file():
        print(f"no darbouxkit source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed)
    run = traced_run if args.trace else timed_run
    summary, details = run(runner, args.seconds)
    expected = set(per_layer_units()) if args.trace else set(END_TO_END)
    if set(summary["metrics"]) != expected:
        print("the run produced no complete metric set:\n" + "\n".join(details["failures"]),
              file=sys.stderr)
        return 1

    record = {
        "workload": args.workload,
        "why": WORKLOADS[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "git_sha": git_sha(ROOT),
            **runner.versions,
        },
        "metrics": summary["metrics"],
        **details,
        "predictions": [
            {"layer_metrics": layer, "moves": e2e, "where": where}
            for layer, e2e, where in PREDICTIONS
        ],
    }
    for name, m in summary["metrics"].items():
        print(f"{args.workload:15} {name:40} {m['value']:>14.6g} {m['unit']:6} "
              f"n={m['samples']}", file=sys.stderr)
    print(f"{args.workload:15} {'fail_ratio':40} {record['fail_ratio']:>14.6g} "
          f"{'ratio':6} n={summary['attempted']}", file=sys.stderr)
    if "wall_tail_s" in record:
        t = record["wall_tail_s"]
        n = summary["metrics"]["wall_s"]["samples"]
        if t is None:
            print(f"{args.workload:15} {'wall_tail_s':40} {'n/a':>14} {'s':6} n={n} "
                  "(needs 11 samples)", file=sys.stderr)
        else:
            print(f"{args.workload:15} {'wall_tail_s (p%.1f)' % t['percentile']:40} "
                  f"{t['value']:>14.6g} {'s':6} n={n}", file=sys.stderr)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": summary["failed"] == 0 and not runner.crashes,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in summary["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
