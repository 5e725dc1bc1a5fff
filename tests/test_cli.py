import json
from dataclasses import replace

import pytest

from darbouxkit import cli, darboux, golden
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


def test_verify_exits_one_on_a_failing_check(capsys):
    code, out, _ = _run(capsys, ["verify", "--check", "first-integrals", "--tol", "1e-300"])
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


def test_verify_rejects_bad_tolerance(capsys):
    code, _, err = _run(capsys, ["verify", "--all", "--tol", "-1"])
    assert code == 2
    assert "bad-input" in err


@pytest.mark.parametrize("step", ["inf", "nan", "0", "-1e-3"])
def test_verify_rejects_bad_step(capsys, step):
    code, out, err = _run(capsys, ["verify", "--check", "rk4-closed-form", f"--step={step}"])
    assert code == 2
    assert out == ""
    assert json.loads(err)["detail"].startswith("step must be finite and positive")


@pytest.mark.parametrize("flag", ["--interval=0,inf", "--interval=-inf,0", "--interval=nan,1",
                                  "--interval=1,0", "--tol=nan"])
def test_verify_rejects_bad_interval_and_tolerance(capsys, flag):
    code, out, err = _run(capsys, ["verify", "--check", "rk4-closed-form", flag])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "bad-input"


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
        return replace(g, p_m=g.p_m.scale(2).normalized())

    monkeypatch.setattr(darboux, "darboux_gauge", doubled)
    code, out, _ = _run(capsys, ["verify", "--check", "darboux-gauge"])
    assert code == 1
    (report,) = json.loads(out)["checks"]
    assert report == {
        "check": "darboux-gauge", "max_residual": 1.0, "tolerance": 0.0,
        "pass": False, "mode": "max", "identity": "P det", "residual": "(-3)*m",
    }


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
