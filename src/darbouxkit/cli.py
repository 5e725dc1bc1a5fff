"""Command-line front end.

Subcommands mirror the library layout: darboux, sympow, so3, susy,
frenet, rigid, verify.  Inputs are family JSON files (canonical
S-expression entries) or inline infix expressions ("-x", "2-i*w1");
every artifact is UTF-8 JSON with sorted keys, so runs are
reproducible byte for byte.  Exit status: 0 on success and for passing
verification, 1 when a requested verification or construction fails,
2 on malformed input.  Set DARBOUXKIT_LOG=debug for progress logging on
stderr: each verify check's verdict and seconds.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
from dataclasses import replace
from typing import Sequence

from .expr import (
    DerivationTable,
    Expr,
    I,
    KitError,
    ZERO,
    normalize,
    parse_infix,
    parse_sexpr,
    symbol_names,
    symbol_tower,
    to_pretty,
    to_sexpr,
)
from .linsys import (
    ExprMatrix,
    SecondOrderFamily,
    companion,
    family_from_json,
    family_to_json,
    system_to_json,
)
from .sympow import sym2_operator, sym_system
from .darboux import (
    attach_generic_seed,
    auto_level_seed,
    darboux_chain,
    darboux_gauge,
    darboux_potential,
    generic_seed,
    make_seed,
)
from .tensordt import (
    ROUTES,
    OmegaOneZero,
    OrthogonalSystem,
    orthogonal_lift,
    so3_first_complete,
    so3_to_riccati,
)
from .susyqm import (
    ParametricPotential,
    hermite,
    matrix_formalism,
    oscillator_states,
    partner_potentials,
    shape_invariance,
    spectrum_sum,
)
from .apps import FrenetData, RigidData, application_chain
from .golden import CHECKS, DEFAULT_CONFIG, DEFAULT_SEED, VerifyConfig, run_checks

log = logging.getLogger("darbouxkit")


class InputError(Exception):
    """Malformed user input (exit status 2)."""


def _matrix_json(mat: ExprMatrix) -> list[list[str]]:
    return [[to_sexpr(normalize(e)) for e in row] for row in mat.rows]


def _vector_json(ortho: OrthogonalSystem) -> dict[str, str]:
    return {"f": to_sexpr(ortho.f), "g": to_sexpr(ortho.g), "h": to_sexpr(ortho.h)}


def _expr_flag(text: str, params: Sequence[str] = ("m",)) -> Expr:
    try:
        if text.lstrip().startswith("("):
            return parse_sexpr(text)
        return parse_infix(text, params=params)
    except KitError as exc:
        raise InputError(f"cannot parse expression {text!r}: {exc}") from exc


def _tower_table_for(exprs: Sequence[Expr],
                     base: DerivationTable | None = None) -> DerivationTable:
    """Symbols appearing in CLI expressions get derivative towers of depth
    4; parameters are constant and radicals differentiate through their
    squares, so neither gets one."""
    table = base or DerivationTable()
    entries = {}
    for e in exprs:
        for name in sorted(symbol_names(normalize(e))):
            if name not in table and name not in entries:
                entries.update(symbol_tower(name, 4))
    return table.extended(entries)


def _load_family(path: str) -> SecondOrderFamily:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        return family_from_json(data)
    except (OSError, json.JSONDecodeError, KeyError, KitError, ValueError) as exc:
        raise InputError(f"cannot load family from {path!r}: {exc}") from exc


def _emit(document: dict, out: str | None) -> None:
    text = json.dumps(document, indent=2, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        log.info("wrote %s", out)
    else:
        print(text)


def _theta0_for(family: SecondOrderFamily, text: str) -> tuple[SecondOrderFamily, Expr]:
    """Parse a seed flag; its free symbols get towers in the family's table."""
    theta0 = _expr_flag(text, params=(family.m_name,))
    return replace(family, table=_tower_table_for([theta0], base=family.table)), theta0


def _fixed_seed(theta0: Expr):
    """Chain seed rule: certify ``theta0`` at every step, at whatever
    parameter value it solves there (``auto_level_seed``)."""
    return lambda family, _: (family, auto_level_seed(family, theta0))


def _seed_for(family: SecondOrderFamily, args) -> tuple[SecondOrderFamily, object]:
    if args.theta0 == "generic":
        return attach_generic_seed(family)
    family, theta0 = _theta0_for(family, args.theta0)
    if args.level == "auto":
        return family, auto_level_seed(family, theta0)
    level = _expr_flag(args.level, params=(family.m_name,))
    return family, make_seed(family, theta0, level)


# -- darboux -------------------------------------------------------------------


def cmd_darboux_apply(args) -> dict:
    family = _load_family(args.family)
    family, seed = _seed_for(family, args)
    new_family = darboux_potential(family, seed)
    g = darboux_gauge(family, seed)
    return {
        "command": "darboux apply",
        "input_family": family_to_json(family),
        "theta0": to_sexpr(seed.theta0),
        "level": to_sexpr(seed.level),
        "transformed_family": family_to_json(new_family),
        "transformed_q_pretty": to_pretty(new_family.q),
        "gauge": {
            "p_m": _matrix_json(g.p_m),
            "l_m": _matrix_json(g.l_m),
            "r_factor": _matrix_json(g.r_factor),
            "det": to_sexpr(g.p_m.det()),
        },
    }


def cmd_darboux_chain(args) -> dict:
    family, theta0 = _theta0_for(_load_family(args.family), args.theta0)
    steps = darboux_chain(family, _fixed_seed(theta0), args.k)
    return {
        "command": "darboux chain",
        "k": args.k,
        "theta0": to_sexpr(normalize(theta0)),
        "families": [family_to_json(step.family) for step in steps],
        "levels": [to_sexpr(step.seed.level) for step in steps[:-1]],
        "q_pretty": [to_pretty(step.family.q) for step in steps],
    }


# -- sympow --------------------------------------------------------------------


def cmd_sympow_operator(args) -> dict:
    family = _load_family(args.family)
    a2, a1, a0 = sym2_operator(family)
    return {
        "command": "sympow operator",
        "coefficients": {
            "d2": to_sexpr(a2),
            "d1": to_sexpr(a1),
            "d0": to_sexpr(a0),
        },
        "pretty": f"d3 + ({to_pretty(a2)}) d2 + ({to_pretty(a1)}) d + ({to_pretty(a0)})",
    }


def cmd_sympow_system(args) -> dict:
    family = _load_family(args.family)
    lifted = sym_system(companion(family), args.power)
    return {
        "command": "sympow system",
        "power": args.power,
        "system": system_to_json(lifted),
    }


# -- so3 -----------------------------------------------------------------------


def _so3_family_from_args(args) -> SecondOrderFamily:
    if args.family:
        _reject_application_flags(args)
        return _load_family(args.family)
    return _application_data_from_args(args).family()


def _reject_application_flags(args) -> None:
    """An so3 command without --rigid or --frenet reads none of the
    application flags, so it refuses them rather than ignore them."""
    given = [f"--{name}" for name in ("kappa", "tau", "omega1", "omega2")
             if getattr(args, name) is not None]
    if given:
        raise InputError(f"without --rigid or --frenet, nothing reads {', '.join(given)}")


def _application_data_from_args(args):
    route = args.route
    if args.rigid:
        omega1 = _expr_flag(args.omega1) if args.omega1 else None
        omega2 = _expr_flag(args.omega2) if args.omega2 else None
        if route == "Q":
            if omega1 is None and omega2 is None:
                raise InputError("rigid Q route needs --omega1 or --omega2")
            omega1, omega2 = so3_first_complete(omega1, omega2)
        else:
            if omega1 is None:
                raise InputError("rigid S route needs --omega1")
            omega2 = ZERO if omega2 is None else omega2
        table = _tower_table_for([omega1, omega2])
        return RigidData(omega1, omega2, route, table)
    if args.frenet:
        kappa = _expr_flag(args.kappa) if args.kappa else None
        if kappa is None:
            raise InputError("frenet routes need --kappa")
        tau = _expr_flag(args.tau) if args.tau else (
            normalize(-2 * I) if route == "Q" else None
        )
        if tau is None:
            raise InputError("frenet S route needs --tau")
        table = _tower_table_for([kappa, tau])
        return FrenetData(kappa, tau, route, table)
    raise InputError("need --family, --rigid, or --frenet")


def cmd_so3_lift(args) -> dict:
    ortho = ROUTES[args.route].system(_so3_family_from_args(args))
    return {
        "command": "so3 lift",
        "route": args.route,
        **_vector_json(ortho),
        "system": system_to_json(ortho.system()),
    }


def cmd_so3_darboux(args) -> dict:
    base, moved = application_chain(
        _so3_family_from_args(args), args.route, lambda fam, _: _seed_for(fam, args), 1
    )
    return {
        "command": "so3 darboux",
        "route": args.route,
        "theta0": to_sexpr(base.seed.theta0),
        "transform": _matrix_json(base.transform),
        "base_system": system_to_json(base.orthogonal.system()),
        "transformed_system": system_to_json(moved.orthogonal.system()),
    }


def cmd_so3_riccati(args) -> dict:
    if args.family or args.rigid or args.frenet:
        if any(t is not None for t in (args.f, args.g, args.h)):
            raise InputError("--f/--g/--h cannot be combined with --family, --rigid or --frenet")
        ortho = ROUTES[args.route].system(_so3_family_from_args(args))
    else:
        _reject_application_flags(args)
        f, g, h = (_expr_flag(t) if t else ZERO for t in (args.f, args.g, args.h))
        ortho = OrthogonalSystem(f, g, h, _tower_table_for([f, g, h]))
    data = so3_to_riccati(ortho)
    document = {
        "command": "so3 riccati",
        "omega0": to_sexpr(data.omega0),
        "omega1": to_sexpr(data.omega1),
        "mu": to_sexpr(data.mu),
    }
    try:
        b, c = data.linear_form()
        document["linear_form"] = {"d1": to_sexpr(b), "d0": to_sexpr(c)}
    except OmegaOneZero as exc:
        document["linear_form"] = None
        document["note"] = str(exc)
    return document


# -- susy ----------------------------------------------------------------------


def cmd_susy_partners(args) -> dict:
    w = _expr_flag(args.w)
    table = _tower_table_for([w])
    pair = partner_potentials(w, table)
    mf = matrix_formalism(pair, args.order, table)
    return {
        "command": "susy partners",
        "w": to_sexpr(pair.w),
        "v_minus": to_sexpr(pair.v_minus),
        "v_plus": to_sexpr(pair.v_plus),
        "v_minus_matrix": _matrix_json(mf.v_minus),
        "v_plus_matrix": _matrix_json(mf.v_plus),
        "pretty": {
            "v_minus": to_pretty(pair.v_minus),
            "v_plus": to_pretty(pair.v_plus),
        },
    }


def cmd_susy_spectrum(args) -> dict:
    if args.n < 0:
        raise InputError(f"number of ladder steps must be nonnegative, got {args.n}")
    w = _expr_flag(args.w, params=(args.a,))
    f = _expr_flag(args.f, params=(args.a,))
    remainder = _expr_flag(args.remainder, params=(args.a,)) if args.remainder else None
    pot = ParametricPotential(
        w=w, a_name=args.a, f=f, remainder=remainder,
        table=_tower_table_for([w]),
    )
    shift = shape_invariance(pot)
    energies = [spectrum_sum(pot, n) for n in range(args.n + 1)]
    return {
        "command": "susy spectrum",
        "a": args.a,
        "shift": to_sexpr(shift),
        "energies": [to_sexpr(e) for e in energies],
        "energies_pretty": [to_pretty(e) for e in energies],
    }


def cmd_susy_states(args) -> dict:
    states, _table = oscillator_states(args.n, order=args.order)
    return {
        "command": "susy states",
        "order": args.order,
        "ground_state_symbol": "psi0",
        "states": [[to_sexpr(c) for c in state] for state in states],
        "hermite_factors": [to_sexpr(hermite(n)) for n in range(args.n + 1)],
    }


# -- frenet / rigid --------------------------------------------------------------


def cmd_application_build(args) -> dict:
    family = _application_data_from_args(args).family()
    ortho, fundamental = orthogonal_lift(family, args.route)
    return {
        "command": f"{args.command} build",
        "route": args.route,
        "family": family_to_json(family),
        "orthogonal": {**_vector_json(ortho), "system": system_to_json(ortho.system())},
        "fundamental_matrix": _matrix_json(fundamental.matrix),
    }


def cmd_application_chain(args) -> dict:
    family = _application_data_from_args(args).family()
    rule = generic_seed
    if args.theta0 != "generic":
        family, theta0 = _theta0_for(family, args.theta0)
        rule = _fixed_seed(theta0)
    links = application_chain(family, args.route, rule, args.k)
    return {
        "command": f"{args.command} chain",
        "route": args.route,
        "k": args.k,
        "steps": [
            {
                "family": family_to_json(link.family),
                "orthogonal": _vector_json(link.orthogonal),
                "transform": _matrix_json(link.transform) if link.transform else None,
            }
            for link in links
        ],
    }


# -- verify ----------------------------------------------------------------------


def cmd_verify(args) -> dict:
    config = VerifyConfig(step=args.step, interval=args.interval, tolerance=args.tol)
    result = run_checks(None if args.all else args.check, seed=args.seed, config=config)
    result["command"] = "verify"
    return result


# -- parser -----------------------------------------------------------------------


def _interval(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(t) for t in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError("interval must be 'a,b'") from exc
    return lo, hi


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every :func:`main` call in this process, built on the
    first call and shared after it (parsing does not change it), so a
    process that only imports the package holds none.  Callers must not
    mutate it."""
    parser = argparse.ArgumentParser(
        prog="darbouxkit",
        description="Construct and verify Darboux/gauge transformations of "
        "second-order operator families and their orthogonal lifts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", help="write the JSON artifact here instead of stdout")

    # darboux
    p_darboux = sub.add_parser("darboux", help="classical transformation")
    sub_darboux = p_darboux.add_subparsers(dest="subcommand", required=True)
    p_apply = sub_darboux.add_parser("apply", help="one transformation step")
    p_apply.add_argument("--family", required=True, help="family JSON path")
    p_apply.add_argument("--theta0", required=True,
                         help="seed log-derivative (infix), or 'generic'")
    p_apply.add_argument("--level", default="auto",
                         help="parameter value the seed certifies (default: solve for it)")
    add_out(p_apply)
    p_apply.set_defaults(func=cmd_darboux_apply)
    p_chain = sub_darboux.add_parser("chain", help="iterate the transformation")
    p_chain.add_argument("--family", required=True)
    p_chain.add_argument("--theta0", required=True)
    p_chain.add_argument("--k", type=int, default=1)
    add_out(p_chain)
    p_chain.set_defaults(func=cmd_darboux_chain)

    # sympow
    p_sympow = sub.add_parser("sympow", help="symmetric-power constructions")
    sub_sympow = p_sympow.add_subparsers(dest="subcommand", required=True)
    p_op = sub_sympow.add_parser("operator", help="third-order lifted operator")
    p_op.add_argument("--family", required=True)
    add_out(p_op)
    p_op.set_defaults(func=cmd_sympow_operator)
    p_sys = sub_sympow.add_parser("system", help="lifted first-order system")
    p_sys.add_argument("--family", required=True)
    p_sys.add_argument("--power", type=int, default=2)
    add_out(p_sys)
    p_sys.set_defaults(func=cmd_sympow_system)

    # so3
    p_so3 = sub.add_parser("so3", help="orthogonal systems")
    sub_so3 = p_so3.add_subparsers(dest="subcommand", required=True)

    def add_route_data(p):
        p.add_argument("--route", choices=tuple(ROUTES), required=True)
        for flag in ("--kappa", "--tau", "--omega1", "--omega2"):
            p.add_argument(flag)

    def add_so3_source(p):
        source = p.add_mutually_exclusive_group()
        source.add_argument("--family", help="family JSON path")
        source.add_argument("--rigid", action="store_true")
        source.add_argument("--frenet", action="store_true")
        add_route_data(p)

    p_lift = sub_so3.add_parser("lift", help="orthogonal lift of a family")
    add_so3_source(p_lift)
    add_out(p_lift)
    p_lift.set_defaults(func=cmd_so3_lift)
    p_sdar = sub_so3.add_parser("darboux", help="lifted transformation matrix")
    add_so3_source(p_sdar)
    p_sdar.add_argument("--theta0", default="generic")
    p_sdar.add_argument("--level", default="auto")
    add_out(p_sdar)
    p_sdar.set_defaults(func=cmd_so3_darboux)
    p_ric = sub_so3.add_parser("riccati", help="Riccati reduction data")
    add_so3_source(p_ric)
    p_ric.add_argument("--f")
    p_ric.add_argument("--g")
    p_ric.add_argument("--h")
    add_out(p_ric)
    p_ric.set_defaults(func=cmd_so3_riccati)

    # susy
    p_susy = sub.add_parser("susy", help="supersymmetric partner machinery")
    sub_susy = p_susy.add_subparsers(dest="subcommand", required=True)
    p_part = sub_susy.add_parser("partners", help="partner potentials")
    p_part.add_argument("--w", required=True, help="superpotential (infix)")
    p_part.add_argument("--order", type=int, default=2, help="matrix order, at least 2")
    add_out(p_part)
    p_part.set_defaults(func=cmd_susy_partners)
    p_spec = sub_susy.add_parser("spectrum", help="shape-invariant spectrum")
    p_spec.add_argument("--n", type=int, required=True)
    p_spec.add_argument("--w", default="a*x")
    p_spec.add_argument("--a", default="a", help="parameter name")
    p_spec.add_argument("--f", default="a", help="reparametrization map")
    p_spec.add_argument("--remainder", default=None)
    add_out(p_spec)
    p_spec.set_defaults(func=cmd_susy_spectrum)
    p_states = sub_susy.add_parser("states", help="oscillator ladder states")
    p_states.add_argument("--n", type=int, required=True)
    p_states.add_argument("--order", type=int, default=2, help="matrix order, at least 2")
    add_out(p_states)
    p_states.set_defaults(func=cmd_susy_states)

    # frenet / rigid
    for name in ("frenet", "rigid"):
        p_app = sub.add_parser(name, help=f"{name} application")
        sub_app = p_app.add_subparsers(dest="subcommand", required=True)
        p_build = sub_app.add_parser("build", help="family + orthogonal system")
        p_build.set_defaults(func=cmd_application_build)
        p_ch = sub_app.add_parser("chain", help="iterated transformations")
        p_ch.add_argument("--k", type=int, default=1)
        p_ch.add_argument("--theta0", default="generic")
        p_ch.set_defaults(func=cmd_application_chain)
        for p in (p_build, p_ch):
            add_route_data(p)
            add_out(p)
            p.set_defaults(frenet=name == "frenet", rigid=name == "rigid")

    # verify
    p_verify = sub.add_parser("verify", help="run the shipped verification suite")
    p_verify.add_argument("--all", action="store_true", help="run every check")
    p_verify.add_argument("--check", action="append", choices=sorted(CHECKS),
                          help="run one named check (repeatable)")
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_verify.add_argument("--tol", type=float, default=DEFAULT_CONFIG.tolerance)
    p_verify.add_argument("--step", type=float, default=DEFAULT_CONFIG.step)
    p_verify.add_argument("--interval", type=_interval, default=DEFAULT_CONFIG.interval)
    add_out(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    return parser


_EXPRESSION_FLAGS = {
    "--theta0", "--level", "--w", "--f", "--g", "--h",
    "--kappa", "--tau", "--omega1", "--omega2", "--remainder",
}


def _join_expression_flags(argv: list[str]) -> list[str]:
    """Merge ``--theta0 -x`` into ``--theta0=-x``.

    Expression values routinely start with a minus sign, which argparse
    would otherwise read as an option.
    """
    out: list[str] = []
    for token in argv:
        if out and out[-1] in _EXPRESSION_FLAGS and token.startswith("-"):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv: Sequence[str] | None = None) -> int:
    level = os.environ.get("DARBOUXKIT_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        stream=sys.stderr, format="%(name)s: %(message)s")
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    args = parser.parse_args(_join_expression_flags(argv))
    try:
        document = args.func(args)
    except (InputError, ValueError) as exc:
        print(json.dumps({"error": "bad-input", "detail": str(exc)}), file=sys.stderr)
        return 2
    except KitError as exc:
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}), file=sys.stderr)
        return 1
    _emit(document, args.out)
    return 1 if document.get("pass") is False else 0


if __name__ == "__main__":
    sys.exit(main())
