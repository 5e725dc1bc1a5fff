import dataclasses
import logging
import math

import pytest

from darbouxkit import golden
from darbouxkit.expr import X, ZERO
from darbouxkit.golden import CHECKS, IdentityFailed, VerifyConfig, _holds, run_checks
from darbouxkit.linsys import ExprMatrix


def test_holds_takes_expressions_matrices_and_sequences():
    _holds("zero", X - X)
    _holds("zero matrix", ExprMatrix([[ZERO, X - X]]))
    _holds("zero entries", [ZERO, X * X - X ** 2])
    with pytest.raises(IdentityFailed) as failed:
        _holds("second entry", ExprMatrix([[ZERO, 2 * X - X]]))
    assert (failed.value.identity, failed.value.residual) == ("second entry", "x")
    with pytest.raises(IdentityFailed, match="^last: residual 1$"):
        _holds("last", [ZERO, X + 1 - X])


def test_identity_names_are_unique_within_each_check(monkeypatch):
    names = []
    real = golden._holds

    def recording(identity, residual):
        names.append(identity)
        real(identity, residual)

    monkeypatch.setattr(golden, "_holds", recording)
    counts = {}
    for check in CHECKS:
        names.clear()
        assert run_checks([check])["pass"] is True
        assert len(names) == len(set(names)), check
        counts[check] = len(names)
    assert counts["darboux-gauge"] == 3
    assert counts["applications"] == 12
    assert counts["lifted-transforms"] == 9
    assert counts["susy-oscillator"] == 16
    assert counts["riccati-parametrization"] == 7
    assert counts["rk4-order"] == 0


def test_verify_config_validates_every_field():
    assert VerifyConfig() == golden.DEFAULT_CONFIG
    for bad in ({"step": math.inf}, {"step": 0.0},
                {"interval": (0.0, math.inf)}, {"interval": (math.nan, 1.0)},
                {"interval": (1.0, 1.0)}):
        with pytest.raises(ValueError):
            VerifyConfig(**bad)
    with pytest.raises(dataclasses.FrozenInstanceError):
        golden.DEFAULT_CONFIG.step = 1e-2


def _golden_log(caplog):
    return [r.getMessage() for r in caplog.records if r.name == "darbouxkit.golden"]


def test_run_checks_logs_each_check(caplog):
    caplog.set_level(logging.DEBUG, logger="darbouxkit")
    run_checks(["rk4-order", "darboux-gauge"])
    messages = _golden_log(caplog)
    assert [m.split(" in ")[0] for m in messages] == [
        "rk4-order: pass",
        "identity P = L R: pass", "identity P det: pass", "identity P gauge: pass",
        "darboux-gauge: pass",
    ]
    assert all(m.endswith(" s") for m in messages)


def test_holds_logs_each_identity_in_order(caplog):
    caplog.set_level(logging.DEBUG, logger="darbouxkit.golden")
    run_checks(["lifted-transforms"])
    identities = [m.split(" in ")[0] for m in _golden_log(caplog) if m.startswith("identity ")]
    assert identities == [f"identity {name}: pass" for name in (
        "P1 closed form", "P1 = L1 R1", "P2 closed form", "det P2 = -m^3",
        "P2 = P1 at w = 1, p = 0", "T1 closed form", "T2 closed form", "P1 det", "P1 gauge",
    )]
    caplog.clear()
    with pytest.raises(IdentityFailed):
        _holds("doubled", X + X - X)
    assert [m.split(" in ")[0] for m in _golden_log(caplog)] == ["identity doubled: fail"]
