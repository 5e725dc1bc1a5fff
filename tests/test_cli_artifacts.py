"""Byte-level pins of the CLI construction artifacts.

Each command's stdout is hashed with sha256 and compared with a digest
recorded once.  The artifacts are sorted-key JSON, so a refactor that
keeps the constructions must keep every digest; a digest changes only
with a deliberate change of what a command emits.  ``verify`` is not
pinned: its residuals are floats that depend on the numpy build.
"""

import hashlib
import json
from pathlib import Path

import pytest

from darbouxkit.cli import main

OSCILLATOR = str(Path(__file__).resolve().parents[1] / "perfbench" / "oscillator.json")

# artifact id -> (argv, sha256 of stdout)
ARTIFACTS = {
    "darboux-apply": (
        ["darboux", "apply", "--family", OSCILLATOR, "--theta0", "-x"],
        "437c657856c3c21fb7700e127101a8f478431d9b3b8113edad81e5376f817c30",
    ),
    "darboux-chain": (
        ["darboux", "chain", "--family", OSCILLATOR, "--theta0", "-x", "--k", "4"],
        "5bf6c3783c0a8dfe1b751663d007a6d2d78c7eb0bee52b384d7b86a405f8344e",
    ),
    "sympow-operator": (
        ["sympow", "operator", "--family", OSCILLATOR],
        "4bc8c657b341b7dcbb9d89de72a45de64fdfbc50d5976fbcbb82e51c18194447",
    ),
    "sympow-system": (
        ["sympow", "system", "--family", OSCILLATOR],
        "a632460b1b3b26b5cfa1cf0b89048eda86cd3b7779b92b42e91fe5db195df25c",
    ),
    "so3-lift-q-rigid": (
        ["so3", "lift", "--route", "Q", "--rigid", "--omega2", "2-i*w1"],
        "1809f289ea1e4befa34f64d9f63c4dbc4d0c3fbf9fea73e9a81cf88dc0cc95b6",
    ),
    "so3-lift-s-frenet": (
        ["so3", "lift", "--route", "S", "--frenet", "--kappa", "kappa", "--tau", "tau"],
        "58b101c39fb608195a52e7639b3bfaf68ab8f047be1401e0d1add912536f4ecc",
    ),
    "so3-darboux-q-rigid": (
        ["so3", "darboux", "--route", "Q", "--rigid", "--omega2", "2-i*w1"],
        "7dcf3ee1aac4a17858e81a8dcf42f5268238413cad49907f916d8bdd23579e3c",
    ),
    "so3-darboux-s-rigid": (
        ["so3", "darboux", "--route", "S", "--rigid", "--omega1", "w1"],
        "14a7f661f951c19a0bc3c31c2b0f54237ed2758c868cce8c4767f9575ccb30e6",
    ),
    "so3-riccati": (
        ["so3", "riccati", "--route", "Q", "--f", "f", "--g", "g", "--h", "h"],
        "38e610db2e6a1378db342665262becf45d0681446684e807b8930586623c606a",
    ),
    "susy-partners": (
        ["susy", "partners", "--w", "x"],
        "03a7848e7047811d285f41c73fb6851aeac32e2c257ed16cefcc0e8e3a32b0fa",
    ),
    "susy-spectrum": (
        ["susy", "spectrum", "--n", "5"],
        "4c159ab4d96b1c637c53bc1addc52119c81e37ce4f734ddcf1402b156bfaeac5",
    ),
    "susy-states": (
        ["susy", "states", "--n", "5", "--order", "3"],
        "1606bec7b37eecbe50e63c11802ccd00616ec59a4789b2b6db591603e3bb050e",
    ),
    "frenet-build": (
        ["frenet", "build", "--route", "S", "--kappa", "kappa", "--tau", "tau"],
        "c02995a8502c500bf71c96ecc28513915e4c1ab89a76dd2e37777de62abbf6ca",
    ),
    "frenet-build-q": (
        ["frenet", "build", "--route", "Q", "--kappa", "kappa"],
        "07d5900785aa90265833f682bf90b49a5a802d167340f0fad3c56708c7ec08e0",
    ),
    "frenet-chain": (
        ["frenet", "chain", "--route", "S", "--kappa", "kappa", "--tau", "tau",
         "--k", "2"],
        "99e18fa8a9e646be44b1847374d862f8a6435ab76df6aeb89ddebdabb036dcdf",
    ),
    # route Q with h = kappa, so its frame datum w is not 1
    "frenet-chain-q": (
        ["frenet", "chain", "--route", "Q", "--kappa", "kappa", "--k", "2"],
        "f6c0ec52f800b3ec2b9c23332b0666f07928634c361aa3a7d7af38b926c1ec17",
    ),
    "rigid-build": (
        ["rigid", "build", "--route", "Q", "--omega2", "2-i*w1"],
        "bc045bc89d8fe9146f3de5db10667e34a438dad2abb4a6ce8769d8242a5d805f",
    ),
    "rigid-chain-s": (
        ["rigid", "chain", "--route", "S", "--omega1", "w1", "--k", "2"],
        "29cc5d94c4c9348119d47ac3849d326c5c7630f9092a6c46e44ff9735f4c99dd",
    ),
    "rigid-chain-q": (
        ["rigid", "chain", "--route", "Q", "--omega2", "2-i*w1", "--k", "1"],
        "24308168d41c48b6e58ee56b2d0fc6e32f42e21a6ea5013c18ac838e0a37c46e",
    ),
}


@pytest.mark.parametrize("artifact", sorted(ARTIFACTS))
def test_cli_artifact_bytes(capsys, artifact):
    argv, digest = ARTIFACTS[artifact]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_long_spectrum_starts_with_the_pinned_energies(capsys):
    argv, digest = ARTIFACTS["susy-spectrum"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
    pinned = json.loads(out)
    assert main(["susy", "spectrum", "--n", "2000"]) == 0
    long = json.loads(capsys.readouterr().out)
    assert long["shift"] == pinned["shift"]
    assert long["energies"][:6] == pinned["energies"]
    assert long["energies_pretty"][:6] == pinned["energies_pretty"]
