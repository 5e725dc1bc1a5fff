"""Record the chain-growth reference values (``reference.json``).

Run once, from the repository root, at the commit whose artifacts are
trusted:

    PYTHONPATH=src python3 perfbench/record_reference.py

Each expression of each chain-growth artifact is evaluated exactly, in
Gaussian-rational arithmetic independent of darbouxkit's kernel, at
candidate points, and stored rounded to complex doubles.  A candidate
joins the pool only if darbouxkit's floating-point ``evaluate`` matches
every exact value there to ``CONDITION_TOL``; the script prints the
candidates it rejected.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from fractions import Fraction

from workloads import (
    CHAIN_COMMANDS,
    CONDITION_TOL,
    POINT_POOL,
    REFERENCE_PATH,
    expression_leaves,
    point_value,
)


def _mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _inv(a):
    norm = a[0] * a[0] + a[1] * a[1]
    if norm == 0:
        raise ZeroDivisionError("expression is singular at a pool point")
    return (a[0] / norm, -a[1] / norm)


def exact_value(e, env: dict):
    """Exact Gaussian-rational value of ``e``; ``env`` maps names to pairs."""
    from darbouxkit.expr import Add, Const, Div, Mul, Param, Pow, Radical, Sym, Var

    if isinstance(e, Const):
        return (e.value.re, e.value.im)
    if isinstance(e, Var):
        return env["x"]
    if isinstance(e, (Param, Sym, Radical)):
        return env[e.name]
    if isinstance(e, Add):
        parts = [exact_value(t, env) for t in e.terms]
        return (sum(p[0] for p in parts), sum(p[1] for p in parts))
    if isinstance(e, Mul):
        out = (Fraction(1), Fraction(0))
        for f in e.factors:
            out = _mul(out, exact_value(f, env))
        return out
    if isinstance(e, Pow):
        base = exact_value(e.base, env)
        if e.exponent < 0:
            base = _inv(base)
        out = (Fraction(1), Fraction(0))
        for _ in range(abs(e.exponent)):
            out = _mul(out, base)
        return out
    if isinstance(e, Div):
        return _mul(exact_value(e.num, env), _inv(exact_value(e.den, env)))
    raise TypeError(f"no exact evaluation for {type(e).__name__}")


def _artifact_expressions() -> dict[str, dict[str, str]]:
    from darbouxkit import cli

    out = {}
    for artifact_id, argv in CHAIN_COMMANDS.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            if cli.main(argv) != 0:
                raise SystemExit(f"{artifact_id} failed")
        out[artifact_id] = expression_leaves(json.loads(buf.getvalue()))
    return out


def main() -> int:
    from darbouxkit.expr import evaluate, free_names, parse_sexpr

    exprs = {
        (artifact_id, path): parse_sexpr(sexpr)
        for artifact_id, leaves in _artifact_expressions().items()
        for path, sexpr in leaves.items()
    }
    points, columns, rejected = [], [], []
    index = 0
    while len(points) < POINT_POOL:
        column, worst = {}, 0.0
        for key, expr in exprs.items():
            env = {n: point_value(n, index) for n in free_names(expr) | {"x"}}
            exact = complex(*map(float, exact_value(expr, env)))
            approx = evaluate(expr, {n: complex(*map(float, v)) for n, v in env.items()})
            if exact != 0:
                worst = max(worst, abs(approx - exact) / abs(exact))
            column[key] = [exact.real, exact.imag]
        if worst <= CONDITION_TOL:
            points.append(index)
            columns.append(column)
        else:
            rejected.append((index, worst))
        index += 1
    artifacts: dict[str, dict] = {}
    for artifact_id, path in exprs:
        artifacts.setdefault(artifact_id, {})[path] = [c[(artifact_id, path)] for c in columns]
    document = {"points": points, "artifacts": artifacts}
    REFERENCE_PATH.write_text(json.dumps(document, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE_PATH.name}: {len(exprs)} expressions at points {points}; "
          f"rejected (point, relative error of evaluate): {rejected}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
