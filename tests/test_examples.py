"""Smoke-run every shipped example as a subprocess."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def _run(name: str, *args: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.slow
def test_quickstart():
    out = _run("quickstart.py")
    assert "-74.94207995" in out
    assert "races detected: 0" in out


@pytest.mark.slow
def test_graphene_scaling_study():
    out = _run("graphene_scaling_study.py", "0.5nm", "4", "16")
    assert "shared-fock" in out
    assert "faster than the stock" in out


def test_memory_footprint_planner():
    out = _run("memory_footprint_planner.py", "1800", "64")
    assert "shared Fock" in out
    assert "Footprint reduction" in out


@pytest.mark.slow
def test_race_detection_demo():
    out = _run("race_detection_demo.py")
    assert "races detected    : 0" in out
    assert "first conflict" in out


@pytest.mark.slow
def test_affinity_tuning():
    out = _run("affinity_tuning.py", "0.5nm")
    assert "Recommendation" in out
    assert "quadrant" in out
