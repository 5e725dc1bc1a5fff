"""One repetition of a benchmark workload, in a fresh interpreter.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  It times the import of darbouxkit and the CLI parser (set-up),
then one cold pass of the workload, checks every result, and optionally
runs warm passes of the same work in the same process.  The host-speed
reference loop (``speed.py``) is timed before and after set-up, during
every untraced pass and after every pass, and each time is also
reported rescaled to the reference speed.  With ``--trace 1`` the cold pass runs
under the span tracer instead.  The last line of standard output is one
JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import speed
from tracing import Tracer, layer_metrics
from workloads import (
    ALL_CHECKS,
    CHAIN_COMMANDS,
    EXACT_CHECKS,
    NUMERIC_CHECKS,
    NUMERIC_STEP,
    artifact_failures,
    load_reference,
    report_failure,
    sample_points,
)

ROOT = Path(__file__).resolve().parent.parent


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _verify_items(golden, checks, seed: int, config) -> list:
    def run(name):
        report = golden.run_checks([name], seed=seed, config=config)["checks"][0]
        return report, 0
    return [(name, lambda name=name: run(name)) for name in checks]


def _chain_items(cli) -> list:
    def run(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        text = buf.getvalue()
        return (code, text), len(text.encode("utf-8"))
    return [(artifact_id, lambda argv=argv: run(argv))
            for artifact_id, argv in CHAIN_COMMANDS.items()]


def make_items(workload: str, seed: int) -> list:
    """(name, thunk) pairs; a thunk returns (output, artifact bytes)."""
    from darbouxkit import cli, golden

    if workload == "verify-exact":
        return _verify_items(golden, EXACT_CHECKS, seed, golden.VerifyConfig())
    if workload == "verify-numeric":
        return _verify_items(golden, NUMERIC_CHECKS, seed,
                             golden.VerifyConfig(step=NUMERIC_STEP))
    if workload == "chain-growth":
        return _chain_items(cli)
    raise ValueError(f"unknown workload {workload!r}")


def run_pass(items, sampler: speed.Sampler, sample: bool = True) -> dict:
    """Run every item once; timings cover only the program's work.

    With ``sample``, ``sampler`` times the reference loop while the pass
    runs, and its handler's time is taken out of every item's wall and
    CPU time.
    """
    outputs, seconds, cpus = [], [], []
    artifact_bytes = 0
    taken, spent = len(sampler.samples), sampler.spent_wall
    with sampler if sample else contextlib.nullcontext():
        for _name, thunk in items:
            spent_wall, spent_cpu = sampler.spent_wall, sampler.spent_cpu
            cpu0, start = _cpu_seconds(), time.perf_counter()
            try:
                output, size = thunk()
                artifact_bytes += size
            except Exception:  # an item that raises is a failed item, not a crash
                output = traceback.format_exc(limit=3)
            seconds.append(time.perf_counter() - start - (sampler.spent_wall - spent_wall))
            cpus.append(_cpu_seconds() - cpu0 - (sampler.spent_cpu - spent_cpu))
            outputs.append(output)
    return {"wall_s": sum(seconds), "cpu_s": sum(cpus), "seconds": seconds,
            "outputs": outputs, "artifact_bytes": artifact_bytes,
            "speed_samples": len(sampler.samples) - taken,
            "speed_spent_s": sampler.spent_wall - spent}


class Gate:
    """Correctness check of item outputs, caching verdicts per artifact."""

    def __init__(self, workload: str, seed: int):
        self.chain = workload == "chain-growth"
        self.reference = load_reference() if self.chain else None
        self.positions = sample_points(seed)
        self._verdicts: dict = {}

    def failure(self, name: str, output) -> str | None:
        if isinstance(output, str):
            return f"{name}: raised\n{output}"
        if not self.chain:
            return report_failure(output)
        code, text = output
        if code != 0:
            return f"{name}: exit status {code}"
        if text not in self._verdicts:
            try:
                failures = artifact_failures(name, text, self.reference, self.positions)
            except Exception:  # unparsable or singular output fails the gate
                failures = [f"{name}: gate raised\n{traceback.format_exc(limit=3)}"]
            self._verdicts[text] = "; ".join(failures[:3]) or None
        return self._verdicts[text]

    def check(self, items, result: dict) -> list[str | None]:
        return [self.failure(name, out) for (name, _), out in zip(items, result.pop("outputs"))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--warm", type=int, default=0, help="warm passes after the cold one")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    before_setup = speed.measure()
    start = time.perf_counter()
    import darbouxkit
    from darbouxkit import cli

    cli.build_parser()
    setup_s = time.perf_counter() - start
    if ROOT / "src" not in Path(darbouxkit.__file__).resolve().parents:
        print(f"darbouxkit imported from {darbouxkit.__file__}, not from this checkout",
              file=sys.stderr)
        return 3
    import numpy

    after_setup = speed.measure()
    out: dict = {
        "setup_s": setup_s,
        "norm_setup_s": setup_s * speed.factor([before_setup, after_setup], "wall"),
        "versions": {"darbouxkit": darbouxkit.__version__, "numpy": numpy.__version__},
    }
    if args.setup_only:
        print(json.dumps(out))
        return 0

    items = make_items(args.workload, args.seed)
    gate = Gate(args.workload, args.seed)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    sampler = speed.Sampler()
    try:
        cold = run_pass(items, sampler, sample=tracer is None)
    finally:
        if tracer is not None:
            tracer.uninstall()
    after_cold = speed.measure()
    speed.rescale([cold], [after_setup, *sampler.take(), after_cold])
    cold["failures"] = gate.check(items, cold)
    out["cold"] = cold
    if tracer is not None:
        counters = {
            "normalize_repeats": tracer.normalize_repeats,
            "max_num_terms": tracer.max_num_terms,
            "max_den_terms": tracer.max_den_terms,
            "rk4_steps": tracer.rk4_steps,
            "artifact_bytes": cold["artifact_bytes"],
        }
        out["layers"] = layer_metrics(tracer.spans, cold["wall_s"], counters, ALL_CHECKS)
        out["spans"] = len(tracer.spans)
    warm = []
    before = after_cold
    for _ in range(args.warm):
        result = run_pass(items, sampler)
        after = speed.measure()
        speed.rescale([result], [before, *sampler.take(), after])
        before = after
        result["failures"] = gate.check(items, result)
        warm.append(result)
    out["warm"] = warm
    out["reference_iteration_s"] = after_cold["wall"]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
