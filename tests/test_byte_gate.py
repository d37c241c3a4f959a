"""Run tools/byte_gate.py and compare every item with tools/byte_gate.sha256.

A change that alters an artifact's bytes on purpose updates that file and
says why.
"""

import os
import subprocess
import sys
from pathlib import Path

import codat

ROOT = Path(__file__).resolve().parents[1]
GATE = ROOT / "tools" / "byte_gate.py"
EXPECTED = ROOT / "tools" / "byte_gate.sha256"


def parse(text: str) -> dict[str, str]:
    digests = {}
    for line in text.splitlines():
        digest, item = line.split("  ", 1)
        digests[item] = digest
    return digests


def test_byte_gate_matches_checked_in_hashes():
    # the gate runs the codat this suite imports
    src = str(Path(codat.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, str(GATE)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    expected = parse(EXPECTED.read_text())
    got = parse(proc.stdout)
    differing = sorted(item for item in expected.keys() & got.keys() if expected[item] != got[item])
    missing = sorted(expected.keys() - got.keys())
    extra = sorted(got.keys() - expected.keys())
    assert not (differing or missing or extra), (
        f"differing: {differing}; missing: {missing}; extra: {extra}"
    )
