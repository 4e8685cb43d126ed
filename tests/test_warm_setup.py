"""Warm set-up: what a basis determines is computed once per basis.

S, H = T + V, X = S^-1/2 and the Schwarz bounds Q live in one weak memo
per :class:`~repro.chem.basis.basisset.BasisSet`
(:func:`~repro.integrals.basis_setup.basis_setup`).  A service worker's
``setup_cache`` keeps the basis of a system alive, so a second job for
that system evaluates no integral set-up at all — and gets the cold
job's answer to the bit.
"""

from __future__ import annotations

import gc
import weakref
from collections import Counter

import numpy as np
import pytest

import repro.integrals.onee as onee
import repro.integrals.schwarz as schwarz
import repro.scf.guess as guess
from repro.chem.basis import BasisSet
from repro.chem.molecule import water
from repro.core.scf_driver import ParallelSCF
from repro.integrals.basis_setup import basis_setup
from repro.scf.rhf import RHF
from repro.service.jobs import JobSpec
from repro.service.supervisor import run_job

WATER_XYZ = (
    "3\nwater\n"
    "O 0.0 0.0 0.117\n"
    "H 0.0 0.757 -0.471\n"
    "H 0.0 -0.757 -0.471\n"
)


@pytest.fixture
def set_up_calls(monkeypatch) -> Counter:
    """Counts every one-electron class sweep (S, T, V), Schwarz kernel
    call and orthogonaliser, whoever asks for them."""
    calls: Counter = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(onee, "_from_pair_classes", counting(
        "one-electron", onee._from_pair_classes))
    monkeypatch.setattr(schwarz, "eri_class_batch", counting(
        "schwarz", schwarz.eri_class_batch))
    monkeypatch.setattr(guess, "orthogonalizer", counting(
        "orthogonalizer", guess.orthogonalizer))
    return calls


@pytest.fixture
def final_focks(monkeypatch) -> list[np.ndarray]:
    """The final Fock matrix of every ParallelSCF run, in order."""
    focks: list[np.ndarray] = []
    run = ParallelSCF.run

    def recording(self, **kwargs):
        result = run(self, **kwargs)
        focks.append(result.scf.fock)
        return result

    monkeypatch.setattr(ParallelSCF, "run", recording)
    return focks


@pytest.mark.parametrize("algorithm", ["shared-fock", "mpi-only"])
def test_a_warm_job_does_no_integral_set_up_and_gets_the_same_bits(
    set_up_calls, final_focks, algorithm
):
    spec = JobSpec(xyz=WATER_XYZ, algorithm=algorithm,
                   nthreads=1 if algorithm == "mpi-only" else 2)
    setup_cache: dict = {}
    eri_cache_pool: dict = {}
    cold = run_job(spec, setup_cache=setup_cache,
                   eri_cache_pool=eri_cache_pool)
    assert not cold["warm_setup"]
    assert set_up_calls["one-electron"] == 3  # S, T, V
    assert set_up_calls["schwarz"] > 0
    assert set_up_calls["orthogonalizer"] == 1

    set_up_calls.clear()
    warm = run_job(spec, setup_cache=setup_cache,
                   eri_cache_pool=eri_cache_pool)
    assert warm["warm_setup"]
    assert set_up_calls == Counter()
    assert warm["energy"] == cold["energy"]
    assert warm["iterations"] == cold["iterations"]
    assert final_focks[1].tobytes() == final_focks[0].tobytes()


def test_memoised_matrices_are_read_only():
    basis = BasisSet(water(), "sto-3g")
    setup = basis_setup(basis)
    for name in ("S", "hcore", "X", "Q"):
        matrix = getattr(setup, name)
        with pytest.raises(ValueError, match="read-only"):
            matrix[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            matrix += 0.0
    # The SCF loop holds the memo itself, not a copy.
    scf = RHF(basis)
    assert scf.hcore is setup.hcore and scf.S is setup.S
    with pytest.raises(ValueError, match="read-only"):
        scf.hcore[0, 0] = 1.0


def test_the_memo_dies_with_its_basis():
    basis = BasisSet(water(), "sto-3g")
    assert basis_setup(basis).X.shape == (basis.nbf, basis.nbf)
    assert basis_setup(basis) is basis_setup(basis)
    alive = weakref.ref(basis)
    del basis
    gc.collect()
    assert alive() is None
