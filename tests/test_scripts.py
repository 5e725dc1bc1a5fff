"""The walkthrough scripts and the README's python examples run end to
end from a checkout."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_oscillator_ladder_levels():
    proc = _run_script("oscillator_ladder.py")
    assert proc.returncode == 0, proc.stderr
    levels = [
        line.split("level = ")[1]
        for line in proc.stdout.splitlines()
        if "level = " in line
    ]
    assert levels == ["0", "-2", "-4", "-6", "-8"]
    ladder = [line.strip() for line in proc.stdout.splitlines() if "raising(state" in line]
    assert ladder == [
        f"n={n}: lambda = {2 * n}, raising(state {n}) is state {n + 1}" for n in range(5)
    ]


def test_frame_chain_demo_runs():
    proc = _run_script("frame_chain_demo.py")
    assert proc.returncode == 0, proc.stderr


def test_run_verification_passes_every_check():
    proc = _run_script("run_verification.py")
    assert proc.returncode == 0, proc.stderr
    passed = [line for line in proc.stdout.splitlines() if line.startswith("[PASS]")]
    assert len(passed) == 11, proc.stdout


def test_readme_python_blocks_run(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    assert len(blocks) == 2
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    # the first block prints the oscillator's family JSON
    assert json.loads(capsys.readouterr().out)["q"]
