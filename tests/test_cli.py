import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from darbouxkit import cli, darboux, golden, susyqm
from darbouxkit.cli import main
from darbouxkit.expr import I, KitError, Radical, X, equal, param, parse_sexpr
from darbouxkit.linsys import ExprMatrix, SecondOrderFamily, family_from_json, family_to_json
from conftest import oscillator_family


@pytest.fixture
def oscillator_json(tmp_path):
    path = tmp_path / "oscillator.json"
    path.write_text(json.dumps(family_to_json(oscillator_family())))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_darboux_apply_oscillator(capsys, oscillator_json):
    code, out, _ = _run(
        capsys, ["darboux", "apply", "--family", oscillator_json, "--theta0", "-x"]
    )
    assert code == 0
    doc = json.loads(out)
    q_new = parse_sexpr(doc["transformed_family"]["q"])
    assert equal(q_new, -(X ** 2) - 1)
    det = parse_sexpr(doc["gauge"]["det"])
    from darbouxkit.expr import param

    assert equal(det, -param("m"))


def test_darboux_chain_levels(capsys, oscillator_json):
    code, out, _ = _run(
        capsys,
        ["darboux", "chain", "--family", oscillator_json, "--theta0", "-x", "--k", "3"],
    )
    assert code == 0
    doc = json.loads(out)
    expected = [-(X ** 2) + 1, -(X ** 2) - 1, -(X ** 2) - 3, -(X ** 2) - 5]
    got = [parse_sexpr(blob["q"]) for blob in doc["families"]]
    assert all(equal(a, b) for a, b in zip(got, expected))
    assert doc["levels"] == ["0", "-2", "-4"]


def test_family_json_round_trip(capsys, oscillator_json, tmp_path):
    out_path = tmp_path / "new.json"
    code, _, _ = _run(
        capsys,
        [
            "darboux", "apply", "--family", oscillator_json,
            "--theta0", "-x", "--out", str(out_path),
        ],
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    fam = family_from_json(doc["transformed_family"])
    assert family_to_json(fam) == doc["transformed_family"]


def test_so3_darboux_rigid_inline(capsys):
    code, out, _ = _run(
        capsys,
        ["so3", "darboux", "--route", "Q", "--rigid", "--omega2", "2-i*w1"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["route"] == "Q"
    transform = doc["transform"]
    assert len(transform) == 3 and len(transform[0]) == 3
    # the m-free corner entry is 2*(nu + theta0^2)/2 evaluated at m = 0
    from darbouxkit.expr import Sym, normalize, substitute

    entry = parse_sexpr(transform[2][2])
    th = Sym("theta0")
    assert equal(
        substitute(entry, {"m": parse_sexpr("0")}), normalize(2 * th * th)
    )


def test_so3_riccati_from_vector(capsys):
    code, out, _ = _run(
        capsys, ["so3", "riccati", "--route", "Q", "--f", "f", "--g", "g", "--h", "h"]
    )
    assert code == 0
    doc = json.loads(out)
    from darbouxkit.expr import I, sym

    assert equal(parse_sexpr(doc["omega0"]), (sym("g") - I * sym("f")) / 2)
    assert equal(parse_sexpr(doc["mu"]), -I * sym("h"))
    assert doc["linear_form"] is not None


def test_so3_riccati_reduces_the_lift_of_its_source(capsys, oscillator_json):
    # rigid Q with omega2 = 2 - i w1: the Q lift has omega1 = (g + i f)/2 = 1
    code, out, err = _run(capsys, ["so3", "riccati", "--route", "Q", "--rigid",
                                   "--omega2", "2-i*w1"])
    assert code == 0, err
    doc = json.loads(out)
    assert doc["omega1"] == "1" and doc["linear_form"] is not None
    code, out, err = _run(capsys, ["so3", "riccati", "--route", "S", "--frenet",
                                   "--kappa", "kappa", "--tau", "tau"])
    assert code == 0, err
    assert json.loads(out)["linear_form"] is not None
    _, lift, _ = _run(capsys, ["so3", "lift", "--route", "Q", "--family", oscillator_json])
    code, out, _ = _run(capsys, ["so3", "riccati", "--route", "Q", "--family", oscillator_json])
    assert code == 0
    lifted = json.loads(lift)
    f, g = parse_sexpr(lifted["f"]), parse_sexpr(lifted["g"])
    assert equal(parse_sexpr(json.loads(out)["omega0"]), (g - I * f) / 2)


@pytest.mark.parametrize("command, argv", [
    ("lift", ["--family", "F", "--rigid", "--omega2", "2-i*w1"]),
    ("darboux", ["--family", "F", "--frenet", "--kappa", "k"]),
    ("riccati", ["--rigid", "--frenet", "--omega2", "2-i*w1", "--kappa", "k"]),
])
def test_so3_sources_are_mutually_exclusive(capsys, oscillator_json, command, argv):
    argv = [oscillator_json if a == "F" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(["so3", command, "--route", "Q", *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "not allowed with argument" in captured.err


@pytest.mark.parametrize("source", [["--family", "F"], ["--rigid", "--omega2", "2-i*w1"]])
def test_so3_riccati_rejects_a_vector_with_a_source(capsys, oscillator_json, source):
    source = [oscillator_json if a == "F" else a for a in source]
    for vector in (["--f", "f"], ["--h", "h"]):
        code, out, err = _run(capsys, ["so3", "riccati", "--route", "Q", *source, *vector])
        assert code == 2 and out == ""
        assert json.loads(err)["detail"].startswith("--f/--g/--h cannot be combined")


@pytest.mark.parametrize("command, argv", [
    ("lift", ["--family", "F", "--omega1", "x"]),
    ("darboux", ["--family", "F", "--kappa", "k", "--tau", "t"]),
    ("riccati", ["--family", "F", "--kappa", "3"]),
    ("riccati", ["--f", "f", "--omega2", "2-i*w1"]),
])
def test_so3_application_flags_need_an_application(capsys, oscillator_json, command, argv):
    # without --rigid or --frenet nothing reads --kappa/--tau/--omega1/--omega2
    argv = [oscillator_json if a == "F" else a for a in argv]
    code, out, err = _run(capsys, ["so3", command, "--route", "Q", *argv])
    assert code == 2 and out == ""
    assert json.loads(err)["detail"].startswith("without --rigid or --frenet, nothing reads --")


@pytest.mark.parametrize("argv, flags", [
    (["so3", "lift", "--route", "S", "--rigid", "--omega1", "w1", "--kappa", "k"], "--kappa"),
    (["so3", "darboux", "--route", "Q", "--frenet", "--kappa", "k", "--omega2", "2"],
     "--omega2"),
    (["frenet", "build", "--route", "S", "--kappa", "kappa", "--tau", "tau", "--omega1", "x"],
     "--omega1"),
    (["rigid", "build", "--route", "S", "--omega1", "w1", "--tau", "t"], "--tau"),
    (["rigid", "chain", "--route", "S", "--omega1", "w1", "--kappa", "k", "--tau", "t"],
     "--kappa, --tau"),
])
def test_an_application_refuses_the_other_applications_flags(capsys, argv, flags):
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert json.loads(err)["detail"].endswith(f"nothing reads {flags}")


@pytest.mark.parametrize("argv", [
    ["darboux", "apply", "--family", "F", "--theta0", "generic", "--level", "5"],
    ["so3", "darboux", "--route", "S", "--rigid", "--omega1", "w1", "--level", "0"],
])
def test_generic_seed_refuses_a_level(capsys, oscillator_json, argv):
    # the generic seed is certified at level 0 by construction; nothing reads --level
    argv = [oscillator_json if a == "F" else a for a in argv]
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert json.loads(err)["detail"] == "with --theta0 generic, nothing reads --level"


def test_darboux_chain_refuses_the_generic_seed(capsys, oscillator_json):
    # every step certifies the one given theta0; "generic" is no symbol to chain
    argv = ["darboux", "chain", "--family", oscillator_json, "--theta0", "generic"]
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert json.loads(err)["detail"] == (
        "darboux chain needs an explicit --theta0; it takes no generic seed")


@pytest.mark.parametrize("argv, text", [
    (["so3", "riccati", "--route", "Q", "--f", "1/0"], "1/0"),
    (["frenet", "build", "--route", "S", "--kappa", "1/0", "--tau", "t"], "1/0"),
    (["darboux", "apply", "--family", "F", "--theta0", "1/(x-x)"], "1/(x-x)"),
    (["susy", "partners", "--w", "1/0"], "1/0"),
], ids=["so3", "frenet", "darboux", "susy"])
def test_an_expression_dividing_by_zero_is_bad_input(capsys, oscillator_json, argv, text):
    argv = [oscillator_json if a == "F" else a for a in argv]
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "bad-input",
        "detail": f"cannot parse expression {text!r}: denominator normalized to zero",
    }


@pytest.mark.parametrize("text", ["(^ x)", "(/ x 1 2)"])
def test_a_malformed_sexpr_is_bad_input(capsys, tmp_path, text):
    # a missing or a surplus argument, in a flag and in a family file
    code, out, err = _run(capsys, ["so3", "riccati", "--route", "Q", "--f", text])
    assert code == 2 and out == "" and json.loads(err)["error"] == "bad-input"
    path = tmp_path / "family.json"
    path.write_text(json.dumps({**family_to_json(oscillator_family()), "q": text}))
    code, out, err = _run(capsys, ["darboux", "apply", "--family", str(path), "--theta0", "-x"])
    assert code == 2 and out == "" and json.loads(err)["error"] == "bad-input"


def test_an_operator_where_an_operand_belongs_is_bad_input(capsys):
    # "*" used to read as a symbol named *
    code, out, err = _run(capsys, ["susy", "partners", "--w", "*"])
    assert code == 2 and out == "" and json.loads(err)["error"] == "bad-input"


@pytest.mark.parametrize("command, flag, text, same", [
    (["susy", "partners"], "--w", "(1+x)/2", "1/2+x/2"),
    (["susy", "partners"], "--w", "(-x)", "-x"),
    (["so3", "riccati", "--route", "Q"], "--f", "(x)", "x"),
    (["susy", "partners"], "--w", "(c + 1)", "c + 1"),
], ids=["quotient", "negation", "parenthesized", "symbol-named-like-a-head"])
def test_infix_that_opens_with_a_parenthesis_reads_as_infix(capsys, command, flag, text, same):
    # only a list whose head the S-expression grammar knows goes to that
    # reader, as (rad s x) does; this text used to fail there
    code, out, _ = _run(capsys, command + [flag, text])
    assert code == 0
    assert out == _run(capsys, command + [flag, same])[1]


@pytest.mark.parametrize("text, detail", [
    ("(^ x)", "malformed (^ ...) in expression text: expected (^ expr INT)"),
    ("(c 1 x)", "Invalid literal for Fraction: 'x'"),
])
def test_a_flag_neither_reader_takes_reports_the_sexpr_error(capsys, text, detail):
    # (c + 1) reads as infix when the S-expression reader rejects it; text
    # that infix rejects as well names the S-expression fault
    code, out, err = _run(capsys, ["susy", "partners", "--w", text])
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "bad-input", "detail": f"cannot parse expression {text!r}: {detail}",
    }


def test_a_long_flag_is_read_as_its_normal_form(capsys):
    # the raw 3,000-term tree used to overflow the stack in the derivative
    code, out, _ = _run(capsys, ["susy", "partners", "--w", "+".join(["x"] * 3000)])
    assert code == 0
    assert json.loads(out)["w"] == "(* 3000 x)"


@pytest.mark.parametrize("text", ["-" * 1200 + "x", "(" * 1200 + "x" + ")" * 1200],
                         ids=["minus-signs", "parentheses"])
def test_a_flag_nested_too_deeply_is_bad_input(capsys, text):
    code, out, err = _run(capsys, ["susy", "partners", "--w", text])
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "bad-input", "detail": f"cannot parse expression {text!r}: nested too deeply",
    }


RIGID, FRENET = "(--omega1, --omega2, 0)", "(--tau, 0, --kappa)"


@pytest.mark.parametrize("argv, detail", [
    (["rigid", "build", "--route", "Q"], f"{RIGID}: the Q route needs one of f, g"),
    (["rigid", "build", "--route", "S", "--omega2", "0"], f"{RIGID}: the S route needs f"),
    (["frenet", "build", "--route", "S", "--kappa", "k"], f"{FRENET}: the S route needs f"),
    (["frenet", "build", "--route", "Q"], f"{FRENET}: the Q route needs h"),
])
def test_an_application_missing_a_component_names_its_flag(capsys, argv, detail):
    # the vector layout maps the component the route needs to its flag
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "bad-input", "detail": f"flow vector (f, g, h) = {detail}"}


@pytest.mark.parametrize("argv", [
    ["rigid", "build", "--route", "S", "--omega1", "w1", "--omega2", "1"],
    ["rigid", "build", "--route", "Q", "--omega1", "w1", "--omega2", "0"],
    ["frenet", "build", "--route", "Q", "--kappa", "k", "--tau", "0"],
])
def test_an_application_vector_off_its_route_exits_one(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "RouteConstraintViolated"


def test_susy_partners_and_states(capsys):
    code, out, _ = _run(capsys, ["susy", "partners", "--w", "x"])
    assert code == 0
    doc = json.loads(out)
    assert equal(parse_sexpr(doc["v_minus"]), X ** 2 - 1)
    assert equal(parse_sexpr(doc["v_plus"]), X ** 2 + 1)

    code, out, _ = _run(capsys, ["susy", "states", "--n", "2"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["states"]) == 3
    code, out, _ = _run(capsys, ["susy", "spectrum", "--n", "3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["energies_pretty"][-1] == "6*a"


def test_susy_partners_radical_superpotential(capsys):
    # a radical differentiates through its square, s' = s/(2x), and gets
    # no derivative tower of its own
    code, out, _ = _run(capsys, ["susy", "partners", "--w", "(rad s x)"])
    assert code == 0
    s = Radical("s", X)
    assert equal(parse_sexpr(json.loads(out)["v_minus"]), X - s / (2 * X))


def test_frenet_build_and_chain(capsys):
    code, out, _ = _run(
        capsys, ["frenet", "build", "--route", "S", "--kappa", "kappa", "--tau", "tau"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["route"] == "S"
    code, out, _ = _run(
        capsys,
        [
            "frenet", "chain", "--route", "S", "--kappa", "1", "--tau", "0",
            "--k", "1",
        ],
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["steps"]) == 2
    assert doc["steps"][0]["transform"] is not None
    assert doc["steps"][1]["transform"] is None


def test_rigid_build_derives_partner_component(capsys):
    code, out, _ = _run(
        capsys, ["rigid", "build", "--route", "Q", "--omega2", "2-i*w1"]
    )
    assert code == 0
    doc = json.loads(out)
    from darbouxkit.expr import I, sym

    fam = family_from_json(doc["family"])
    assert equal(fam.q, 1 - I * sym("w1"))


def test_rigid_build_parameter_gets_no_tower(capsys):
    code, out, _ = _run(capsys, ["rigid", "build", "--route", "S", "--omega1", "m+x"])
    assert code == 0
    doc = json.loads(out)
    assert doc["family"]["table"] == {}
    fam = family_from_json(doc["family"])
    assert equal(fam.q, (param("m") + X) ** 2 / 4)


def test_verify_exits_one_on_a_failing_check(capsys, monkeypatch):
    monkeypatch.setattr(golden, "NUMERIC_TOLERANCE", 1e-300)
    code, out, _ = _run(capsys, ["verify", "--check", "first-integrals"])
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_verify_subset_and_determinism(capsys):
    argv = ["verify", "--check", "rk4-closed-form", "--check", "rk4-order"]
    code1, out1, _ = _run(capsys, argv)
    code2, out2, _ = _run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["pass"] is True
    assert doc["seed"] == json.loads(out2)["seed"]


def test_cached_parser_keeps_calls_independent(capsys, oscillator_json):
    # build_parser returns one shared parser per process, main reuses it,
    # and no call may see the flags of the call before it
    assert cli.build_parser() is cli.build_parser()
    cli.build_parser.cache_clear()
    chain = ["darboux", "chain", "--family", oscillator_json, "--theta0", "-x", "--k", "2"]
    check = ["verify", "--check", "rk4-order"]
    first = [_run(capsys, chain), _run(capsys, check)]
    second = [_run(capsys, chain), _run(capsys, check)]
    assert cli.build_parser.cache_info().misses == 1
    assert first == second
    assert first[0][0] == first[1][0] == 0
    assert [r["check"] for r in json.loads(second[1][1])["checks"]] == ["rk4-order"]


def test_sympow_commands(capsys, oscillator_json):
    code, out, _ = _run(capsys, ["sympow", "operator", "--family", oscillator_json])
    assert code == 0
    doc = json.loads(out)
    # p = 0, r = 1: coefficients are (0, 4(q - m), 2q')
    assert equal(parse_sexpr(doc["coefficients"]["d1"]), 4 * (-(X ** 2) + 1 - param("m")))
    assert equal(parse_sexpr(doc["coefficients"]["d0"]), -4 * X)
    code, out, _ = _run(capsys, ["sympow", "system", "--family", oscillator_json])
    assert code == 0
    doc = json.loads(out)
    assert doc["system"]["n"] == 3
    assert doc["system"]["convention"] == "Xp=-AX"
    from darbouxkit.linsys import system_from_json

    system_from_json(doc["system"])  # round-trips


def test_verify_all_passes(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = _run(capsys, ["verify", "--all", "--out", str(out_path)])
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["pass"] is True
    names = {r["check"] for r in doc["checks"]}
    assert {"darboux-covariance", "lifted-transforms", "applications"} <= names
    for report in doc["checks"]:
        assert set(report) >= {"check", "max_residual", "tolerance", "pass"}
        assert not {"identity", "residual"} & set(report)


def test_console_script_entry_point(tmp_path):
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "darbouxkit.cli", "susy", "partners", "--w", "x"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["command"] == "susy partners"


def test_verify_has_no_tol_flag():
    verify = next(a for a in cli.build_parser()._actions if a.dest == "command").choices["verify"]
    flags = {f for a in verify._actions for f in a.option_strings}
    assert flags == {"-h", "--help", "--all", "--check", "--seed", "--step", "--interval", "--out"}
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--all", "--tol", "1e-6"])
    assert exc.value.code == 2


@pytest.mark.parametrize("step", ["inf", "nan", "0", "-1e-3"])
def test_verify_rejects_bad_step(capsys, step):
    code, out, err = _run(capsys, ["verify", "--check", "rk4-closed-form", f"--step={step}"])
    assert code == 2
    assert out == ""
    assert json.loads(err)["detail"].startswith("step must be finite and positive")


@pytest.mark.parametrize("flag", ["--interval=0,inf", "--interval=-inf,0", "--interval=nan,1",
                                  "--interval=1,0"])
def test_verify_rejects_bad_interval_and_tolerance(capsys, flag):
    code, out, err = _run(capsys, ["verify", "--check", "rk4-closed-form", flag])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "bad-input"


def _verify_flag(dest):
    command = next(a for a in cli.build_parser()._actions if a.dest == "command")
    return next(a for a in command.choices["verify"]._actions if a.dest == dest)


def test_verify_parser_and_suite_name_the_same_checks(capsys, monkeypatch):
    # the parser lists the checks without loading golden, and golden maps
    # each listed name to its check_ function: every such function is listed
    functions = {n[len("check_"):].replace("_", "-") for n in vars(golden)
                 if n.startswith("check_")}
    assert _verify_flag("check").choices == sorted(golden.CHECKS) == sorted(functions)
    calls = []

    def run_checks(names, seed, config):
        calls.append((names, seed, config))
        return {"pass": True}

    monkeypatch.setattr(golden, "run_checks", run_checks)
    assert _run(capsys, ["verify", "--all"])[0] == 0
    assert calls == [(None, golden.DEFAULT_SEED, golden.DEFAULT_CONFIG)]
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--check", "nope"])
    assert exc.value.code == 2
    capsys.readouterr()


def _cli_process(argv, log_level=None):
    """Run the CLI in a fresh interpreter, with DARBOUXKIT_LOG set to
    ``log_level`` or unset."""
    env = {k: v for k, v in os.environ.items() if k != "DARBOUXKIT_LOG"}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if log_level:
        env["DARBOUXKIT_LOG"] = log_level
    return subprocess.run([sys.executable, "-m", "darbouxkit.cli", *argv],
                          capture_output=True, text=True, env=env)


@pytest.mark.parametrize("log_level", [None, "info"])
def test_written_artifact_is_logged_only_at_info(tmp_path, oscillator_json, log_level):
    out = tmp_path / "operator.json"
    proc = _cli_process(["sympow", "operator", "--family", oscillator_json, "--out", str(out)],
                        log_level)
    assert proc.returncode == 0
    assert json.loads(out.read_text())["command"] == "sympow operator"
    assert proc.stderr == ("" if log_level is None else f"darbouxkit: wrote {out}\n")


def test_debug_log_lists_each_identity_and_the_check():
    proc = _cli_process(["verify", "--check", "darboux-gauge"], "debug")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pass"] is True
    lines = [line.split(" in ")[0] for line in proc.stderr.splitlines()]
    assert lines == [
        "darbouxkit.golden: identity P = L R: pass",
        "darbouxkit.golden: identity P det: pass",
        "darbouxkit.golden: identity P gauge: pass",
        "darbouxkit.golden: darboux-gauge: pass",
    ]


def test_susy_spectrum_runs_two_thousand_steps(capsys):
    # each energy is normalized as it is summed, so no sum nests deeply
    code, out, _ = _run(capsys, ["susy", "spectrum", "--n", "2000"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["energies"]) == 2001
    assert doc["energies_pretty"][-1] == "4000*a"


def test_susy_spectrum_proves_shape_invariance_once(capsys):
    # the shift comes back from spectrum with the energies, not from a
    # second proof
    proof = susyqm.shape_invariance.__code__
    calls = []

    def count(frame, event, _):
        if event == "call" and frame.f_code is proof:
            calls.append(event)

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        code, _, _ = _run(capsys, ["susy", "spectrum", "--n", "5"])
    finally:
        sys.setprofile(previous)
    assert code == 0 and len(calls) == 1


@pytest.mark.parametrize("argv", [["susy", "states", "--n", "-1"],
                                  ["susy", "spectrum", "--n", "-2"]])
def test_negative_counts_are_bad_input(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert json.loads(err)["detail"] == "number of ladder steps must be nonnegative, got " + argv[-1]


@pytest.mark.parametrize("argv", [["susy", "partners", "--w", "x", "--order", "1"],
                                  ["susy", "states", "--n", "3", "--order", "1"]])
def test_order_below_two_is_bad_input(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": "bad-input",
                               "detail": "matrix formalism order must be at least 2, got 1"}


def test_susy_commands_take_any_order_from_two(capsys):
    code, out, _ = _run(capsys, ["susy", "partners", "--w", "x", "--order", "4"])
    assert code == 0
    assert len(json.loads(out)["v_minus_matrix"]) == 4
    code, out, _ = _run(capsys, ["susy", "states", "--n", "2", "--order", "5"])
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 5
    assert [len(state) for state in doc["states"]] == [5, 5, 5]


def test_chains_never_build_a_lift(capsys, monkeypatch):
    def no_fundamental_matrix(family):
        raise KitError("a fundamental matrix was built")

    monkeypatch.setattr(SecondOrderFamily, "fundamental_matrix", no_fundamental_matrix)
    frenet = ["--route", "S", "--kappa", "kappa", "--tau", "tau"]
    for argv in (["frenet", "chain", *frenet, "--k", "1"],
                 ["rigid", "chain", "--route", "S", "--omega1", "w1", "--k", "1"],
                 ["so3", "darboux", "--route", "Q", "--rigid", "--omega2", "2-i*w1"]):
        code, _, err = _run(capsys, argv)
        assert code == 0, (argv, err)
    # the patch bites where the lift is read
    code, _, err = _run(capsys, ["frenet", "build", *frenet])
    assert code == 1
    assert json.loads(err)["detail"] == "a fundamental matrix was built"


def test_a_data_symbol_named_like_a_solution_is_bad_input(capsys):
    # the curvature tower registers y1' = y1_d1; the solution symbols
    # must not replace that entry with the companion rewrite
    frenet = ["--route", "S", "--kappa", "y1", "--tau", "tau"]
    code, out, err = _run(capsys, ["frenet", "build", *frenet])
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": "bad-input",
                               "detail": "solution symbol 'y1' is already a symbol of the family"}
    code, _, err = _run(capsys, ["frenet", "chain", *frenet, "--k", "1"])
    assert code == 0, err


def test_so3_darboux_names_the_failing_chain_step(capsys):
    code, _, err = _run(capsys, ["so3", "darboux", "--route", "Q", "--rigid", "--omega2",
                                 "2-x^2", "--theta0", "-x", "--level", "1"])
    assert code == 1
    assert json.loads(err) == {
        "error": "SeedNotSolution",
        "detail": "chain step 0: seed fails the Riccati certificate; defect normalizes to "
                  "<Expr -1>",
    }


def test_verify_names_the_failing_identity(capsys, monkeypatch):
    real = golden.p1_explicit

    def shifted(family, seed):
        rows = [list(row) for row in real(family, seed).rows]
        rows[0][0] = rows[0][0] + 1
        return ExprMatrix(rows)

    monkeypatch.setattr(golden, "p1_explicit", shifted)
    code, out, _ = _run(capsys, ["verify", "--check", "lifted-transforms"])
    assert code == 1
    (report,) = json.loads(out)["checks"]
    assert report == {
        "check": "lifted-transforms", "max_residual": 1.0, "tolerance": 0.0,
        "pass": False, "mode": "max", "identity": "P1 closed form", "residual": "-1",
    }


def test_verify_names_the_failing_record_part(capsys, monkeypatch):
    # a gauge scaled by 2 has det -4m, not the record's -m
    real = darboux.darboux_gauge

    def doubled(family, seed):
        g = real(family, seed)
        return g.replace(p_m=g.p_m.scale(2).normalized())

    monkeypatch.setattr(darboux, "darboux_gauge", doubled)
    code, out, _ = _run(capsys, ["verify", "--check", "darboux-gauge"])
    assert code == 1
    (report,) = json.loads(out)["checks"]
    assert report == {
        "check": "darboux-gauge", "max_residual": 1.0, "tolerance": 0.0,
        "pass": False, "mode": "max", "identity": "P det", "residual": "(-3)*m",
    }


def test_verify_names_the_failing_frame_record_part(capsys, monkeypatch):
    # frame exponents (0, 1, 1) give det K = 2 w^2 against the record's
    # det(S) w^3, so the Frenet S lift fails at its frame record's det
    from darbouxkit import tensordt

    monkeypatch.setitem(tensordt.ROUTES, "S", tensordt.ROUTES["S"].replace(exponents=(0, 1, 1)))
    code, out, _ = _run(capsys, ["verify", "--check", "applications"])
    assert code == 1
    (report,) = json.loads(out)["checks"]
    assert report["pass"] is False
    assert report["identity"] == "Frenet S frame det"
    assert set(report) == {"check", "max_residual", "tolerance", "pass", "mode",
                           "identity", "residual"}


def test_verify_applications_report_keeps_its_keys(capsys):
    code, out, _ = _run(capsys, ["verify", "--check", "applications"])
    assert code == 0
    (report,) = json.loads(out)["checks"]
    assert report["pass"] is True
    assert set(report) == {"check", "max_residual", "tolerance", "pass", "mode",
                           "seed", "samples"}


def test_seed_failure_exit_code(capsys, oscillator_json):
    code, _, err = _run(
        capsys,
        ["darboux", "apply", "--family", oscillator_json, "--theta0", "x^2"],
    )
    assert code == 1
    assert "SeedNotSolution" in err


def test_malformed_family_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = _run(capsys, ["darboux", "apply", "--family", str(bad), "--theta0", "-x"])
    assert code == 2
    assert "bad-input" in err


def test_rigid_chain_explicit_seed_follows_its_level(capsys):
    # -x certifies level 0 on q = 1 - x^2, then -2 on the next family
    code, out, err = _run(
        capsys,
        ["rigid", "chain", "--route", "Q", "--omega2", "2-x^2", "--theta0", "-x",
         "--k", "2"],
    )
    assert code == 0, err
    steps = json.loads(out)["steps"]
    got = [parse_sexpr(step["family"]["q"]) for step in steps]
    expected = [1 - X ** 2, -(X ** 2) - 1, -(X ** 2) - 3]
    assert all(equal(a, b) for a, b in zip(got, expected))
    assert [step["transform"] is None for step in steps] == [False, False, True]


def test_rigid_chain_explicit_seed_symbol_gets_a_tower(capsys):
    code, _, err = _run(
        capsys,
        ["rigid", "chain", "--route", "Q", "--omega2", "2-x^2", "--theta0", "c",
         "--k", "1"],
    )
    assert code == 1
    error = json.loads(err)
    assert error["error"] == "SeedNotSolution"
    assert "c_d1" in error["detail"]
