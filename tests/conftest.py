"""Shared fixtures and the per-test timeout harness.

Multi-process tests (marker ``process``) get a hard per-test wall-clock
limit of :data:`PROCESS_TIMEOUT_S` seconds so a wedged worker or a lost
queue message fails the test instead of hanging the suite.  When
``pytest-timeout`` is installed it enforces the limit; otherwise a
SIGALRM-based fallback in :func:`pytest_runtest_call` does (POSIX only
— on platforms without ``SIGALRM`` the limit is simply not enforced).
"""

from __future__ import annotations

import signal

import numpy as np
import pytest

from repro.chem.basis import BasisSet
from repro.chem.molecule import hydrogen_molecule, methane, water

#: Per-test wall-clock limit for ``process``-marked tests, seconds.
PROCESS_TIMEOUT_S = 120


def ledger_fixture_basis(xyz: str, basis: str, charge: int = 0) -> BasisSet:
    """The basis of one of the ledger's committed geometries
    (``benchmarks/e2e/fixtures/<xyz>``)."""
    from pathlib import Path

    from repro.chem.molecule import Molecule

    fixtures = Path(__file__).resolve().parents[1] / "benchmarks/e2e/fixtures"
    return BasisSet(
        Molecule.from_xyz((fixtures / xyz).read_text(), charge=charge), basis
    )


def _timeout_seconds(item) -> int | None:
    """The effective per-test limit: explicit marker, or the process default."""
    marker = item.get_closest_marker("timeout")
    if marker is not None:
        if marker.args:
            return int(marker.args[0])
        if "timeout" in marker.kwargs:
            return int(marker.kwargs["timeout"])
    if item.get_closest_marker("process") is not None:
        return PROCESS_TIMEOUT_S
    return None


def pytest_collection_modifyitems(config, items):
    """Give every ``process`` test an explicit timeout marker.

    With ``pytest-timeout`` installed the plugin reads the marker; the
    SIGALRM fallback below reads it too, so both paths agree on the
    limit.
    """
    for item in items:
        if (
            item.get_closest_marker("process") is not None
            and item.get_closest_marker("timeout") is None
        ):
            item.add_marker(pytest.mark.timeout(PROCESS_TIMEOUT_S))


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """SIGALRM fallback when ``pytest-timeout`` is unavailable."""
    limit = _timeout_seconds(item)
    if (
        limit is None
        or item.config.pluginmanager.hasplugin("timeout")
        or not hasattr(signal, "SIGALRM")
    ):
        yield
        return

    def _expired(signum, frame):
        raise TimeoutError(
            f"test exceeded the {limit} s wall-clock limit "
            "(SIGALRM fallback; install pytest-timeout for richer output)"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(limit)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(autouse=True)
def _isolated_runs_dir(tmp_path, monkeypatch):
    """Point the persistent run registry at a throwaway directory.

    The CLI registers every scf/profile/bench invocation by default, so
    without this every test that drives ``cmd_scf``/``cmd_profile``
    would litter ``.repro/runs/`` inside the working tree.
    """
    from repro.obs.registry import RUNS_DIR_ENV

    monkeypatch.setenv(RUNS_DIR_ENV, str(tmp_path / "runs"))


@pytest.fixture(scope="session")
def water_sto3g() -> BasisSet:
    """Water in STO-3G: the small validation workhorse (7 BFs, 4 shells)."""
    return BasisSet(water(), "sto-3g")


@pytest.fixture(scope="session")
def water_631gd() -> BasisSet:
    """Water in 6-31G(d): exercises L and Cartesian d shells (19 BFs)."""
    return BasisSet(water(), "6-31g(d)")


@pytest.fixture(scope="session")
def h2_631g() -> BasisSet:
    """H2 in 6-31G: smallest multi-shell system."""
    return BasisSet(hydrogen_molecule(), "6-31g")


@pytest.fixture(scope="session")
def methane_sto3g() -> BasisSet:
    """Methane in STO-3G: more shells, includes carbon L shell."""
    return BasisSet(methane(), "sto-3g")


@pytest.fixture(scope="session")
def graphene_sto3g() -> BasisSet:
    """Tiny bilayer-graphene patch (4 C) in STO-3G: the parity suite's
    'not water' fixture — more shells, heavier screening structure."""
    from repro.chem.graphene import bilayer_graphene

    return BasisSet(bilayer_graphene(2), "sto-3g")


@pytest.fixture(scope="session")
def water_sto3g_reference(water_sto3g):
    """Dense reference data for water/STO-3G: (hcore, eri, random D)."""
    from repro.integrals.onee import kinetic_matrix, nuclear_matrix
    from repro.scf.fock_dense import eri_tensor

    h = kinetic_matrix(water_sto3g) + nuclear_matrix(water_sto3g)
    eri = eri_tensor(water_sto3g)
    rng = np.random.default_rng(42)
    d = rng.standard_normal((water_sto3g.nbf, water_sto3g.nbf))
    d = d + d.T
    return h, eri, d
