"""Check the predicted per-layer split against traced runs of all workloads.

    python3 perfbench/predictions.py [--seed 1] [--seconds 10]

Runs the traced run of every workload and prints, for each prediction the
benchmark was designed around, the measured values and whether they
confirm or refute it.  Exits 1 if any prediction is refuted.
"""

from __future__ import annotations

import argparse
import sys

from run import Runner, traced_run
from workloads import WORKLOADS


def verdicts(layers: dict[str, dict[str, float]]) -> list[tuple[str, bool, str]]:
    """(prediction, holds, measured values) from per-workload layer metrics."""
    exact, numeric, chain = (layers[w] for w in ("verify-exact", "verify-numeric", "chain-growth"))
    out = []
    out.append((
        "numverify.share is about 0 (< 0.01) on verify-exact and chain-growth",
        exact["numverify.share"] < 0.01 and chain["numverify.share"] < 0.01,
        f"{exact['numverify.share']:.3g}, {chain['numverify.share']:.3g} "
        f"(verify-numeric {numeric['numverify.share']:.3g})",
    ))
    for metric in ("expr.parse.self_s", "expr.print.self_s"):
        out.append((
            f"{metric} is non-zero only on chain-growth",
            chain[metric] > 0 and exact[metric] == 0 and numeric[metric] == 0,
            ", ".join(f"{w} {layers[w][metric]:.3g}" for w in WORKLOADS),
        ))
    out.append((
        "expr.normalize.repeat_ratio is higher on verify-exact than on chain-growth",
        exact["expr.normalize.repeat_ratio"] > chain["expr.normalize.repeat_ratio"],
        f"{exact['expr.normalize.repeat_ratio']:.3f} vs {chain['expr.normalize.repeat_ratio']:.3f}",
    ))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args(argv)
    layers = {}
    for workload in WORKLOADS:
        summary, details = traced_run(Runner(workload, args.seed), args.seconds)
        if summary["failed"] or details["failures"]:
            print(f"{workload}: failed items:\n" + "\n".join(details["failures"]),
                  file=sys.stderr)
            return 2
        layers[workload] = {k: m["value"] for k, m in summary["metrics"].items()}
    results = verdicts(layers)
    for prediction, holds, measured in results:
        print(f"[{'confirmed' if holds else 'REFUTED'}] {prediction}: {measured}")
    return 0 if all(holds for _, holds, _ in results) else 1


if __name__ == "__main__":
    sys.exit(main())
