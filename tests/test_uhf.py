"""Unrestricted Hartree-Fock: references, invariants, parallel build."""

import math
from pathlib import Path

import numpy as np
import pytest

from repro.chem.basis import BasisSet
from repro.chem.molecule import Molecule, water
from repro.core.fock_uhf import UHFPrivateFockBuilder
from repro.core.scf_driver import ParallelSCF
from repro.integrals.onee import kinetic_matrix, nuclear_matrix
from repro.scf.fock_dense import eri_tensor
from repro.scf.rhf import RHF
from repro.scf.uhf import UHF, uhf_fock_from_eri


@pytest.fixture(scope="module")
def oh_radical():
    mol = Molecule(["O", "H"], [(0, 0, 0), (0, 0, 1.83)], units="bohr",
                   name="OH")
    return BasisSet(mol, "sto-3g")


ALLENE_XYZ = (Path(__file__).resolve().parents[1]
              / "benchmarks" / "e2e" / "fixtures" / "allene.xyz")


def test_closed_shell_uhf_equals_rhf(water_sto3g):
    """An exact identity: a closed-shell singlet's UHF solution is the
    RHF one, with <S^2> = 0 — dense, and through the parallel builders
    (RHF shared-fock 2x2 against UHF private-fock 2x2)."""
    e_rhf = RHF(water_sto3g).run().energy
    res = UHF(water_sto3g).run()
    assert res.converged
    assert abs(res.energy - e_rhf) <= 1e-10
    assert abs(res.s_squared) <= 1e-10

    allene = BasisSet(Molecule.from_xyz(ALLENE_XYZ.read_text()), "sto-3g")
    for basis in (water_sto3g, allene):
        with ParallelSCF(basis, "shared-fock", nranks=2, nthreads=2) as scf:
            rhf = scf.run()
        with ParallelSCF(basis, method="uhf", nranks=2, nthreads=2) as scf:
            uhf = scf.run()
        assert rhf.converged and uhf.converged
        assert abs(uhf.energy - rhf.energy) <= 1e-10
        assert abs(uhf.scf.s_squared) <= 1e-10


def test_hydrogen_atom_reference():
    """UHF/STO-3G hydrogen atom: E = -0.466582 Eh, <S^2> = 0.75 exactly."""
    b = BasisSet(Molecule(["H"], [(0, 0, 0)]), "sto-3g")
    res = UHF(b, multiplicity=2).run()
    assert math.isclose(res.energy, -0.4665819, abs_tol=1e-6)
    assert res.s_squared == pytest.approx(0.75)
    assert res.spin_contamination == pytest.approx(0.0)
    # ... as a function of the stored electron counts, not of a field
    # only UHF.run knew how to fill in.
    assert (res.nalpha, res.nbeta) == (1, 0)
    assert "_exact_s2" not in repr(res)


def test_inconsistent_multiplicity_rejected(water_sto3g):
    with pytest.raises(ValueError):
        UHF(water_sto3g, multiplicity=2)  # 10 electrons can't be doublet


def test_oh_radical_doublet(oh_radical):
    res = UHF(oh_radical, multiplicity=2).run()
    assert res.converged
    # 9 electrons: 5 alpha, 4 beta; mild spin contamination.
    assert 0.75 <= res.s_squared < 0.80
    assert res.energy < -74.0


def test_uhf_spin_fock_identity(oh_radical):
    """With D_alpha == D_beta == D/2, F_alpha == F_beta == RHF Fock."""
    h = kinetic_matrix(oh_radical) + nuclear_matrix(oh_radical)
    eri = eri_tensor(oh_radical)
    rng = np.random.default_rng(4)
    d = rng.standard_normal((oh_radical.nbf,) * 2)
    d = d + d.T
    fa, fb = uhf_fock_from_eri(h, eri, d / 2, d / 2)
    from repro.scf.fock_dense import fock_from_eri

    f_rhf = fock_from_eri(h, eri, d)
    np.testing.assert_allclose(fa, f_rhf, atol=1e-10)
    np.testing.assert_allclose(fa, fb, atol=1e-12)


@pytest.mark.parametrize("nranks,nthreads", [(1, 1), (2, 3), (3, 2)])
def test_parallel_uhf_builder_matches_dense(oh_radical, nranks, nthreads):
    h = kinetic_matrix(oh_radical) + nuclear_matrix(oh_radical)
    eri = eri_tensor(oh_radical)
    rng = np.random.default_rng(8)
    da = rng.standard_normal((oh_radical.nbf,) * 2)
    da = da @ da.T
    db = rng.standard_normal((oh_radical.nbf,) * 2)
    db = db @ db.T
    fa_ref, fb_ref = uhf_fock_from_eri(h, eri, da, db)
    fa, fb, stats = UHFPrivateFockBuilder(
        oh_radical, h, nranks=nranks, nthreads=nthreads
    )(da, db)
    np.testing.assert_allclose(fa, fa_ref, atol=1e-10)
    np.testing.assert_allclose(fb, fb_ref, atol=1e-10)
    assert stats.algorithm == "uhf-private-fock"


def test_uhf_scf_with_parallel_builder(oh_radical):
    h = kinetic_matrix(oh_radical) + nuclear_matrix(oh_radical)
    builder = UHFPrivateFockBuilder(oh_radical, h, nranks=2, nthreads=2)
    res_par = UHF(oh_radical, multiplicity=2, fock_builder=builder).run()
    res_ref = UHF(oh_radical, multiplicity=2).run()
    assert res_par.converged
    assert math.isclose(res_par.energy, res_ref.energy, abs_tol=1e-8)


def test_uhf_alpha_beta_counts(oh_radical):
    scf = UHF(oh_radical, multiplicity=2)
    assert scf.nalpha == 5 and scf.nbeta == 4


def test_uhf_without_diis(oh_radical):
    res = UHF(oh_radical, multiplicity=2, use_diis=False).run()
    ref = UHF(oh_radical, multiplicity=2).run()
    assert res.converged
    assert math.isclose(res.energy, ref.energy, abs_tol=1e-6)


def test_uhf_takes_static_damping_like_rhf(oh_radical, water_sto3g):
    """``damping`` is the loop's: same validation, same mixing, same
    fixed point on either front-end."""
    from repro.scf.convergence import ConvergenceCriteria

    for make in (RHF, UHF):
        for bad in (0.0, 1.5):
            with pytest.raises(ValueError, match="damping"):
                make(water_sto3g, damping=bad)

    def first_cycle(**kwargs):
        return UHF(
            oh_radical, multiplicity=2, use_diis=False,
            criteria=ConvergenceCriteria(max_iterations=1), **kwargs
        ).run(strict=False)

    # Cycle 1 ends 3/4 of the undamped step away from the core guess,
    # in both spin densities.
    plain, damped = first_cycle(), first_cycle(damping=0.25)
    assert damped.iterations[0].density_rms == pytest.approx(
        0.75 * plain.iterations[0].density_rms)
    for d, p in zip(damped.densities, plain.densities):
        assert not np.allclose(d, p)

    ref = UHF(oh_radical, multiplicity=2).run()
    for kwargs in ({"damping": 0.3}, {"damping": 0.2, "use_diis": False}):
        res = UHF(oh_radical, multiplicity=2, **kwargs).run()
        assert res.converged
        assert math.isclose(res.energy, ref.energy, abs_tol=1e-8)


def test_uhf_starts_from_initial_densities_like_rhf(oh_radical):
    from repro.resilience.checkpoint import SCFCheckpoint

    ref = UHF(oh_radical, multiplicity=2).run()
    start = tuple(d.copy() for d in ref.densities)
    again = UHF(oh_radical, multiplicity=2).run(initial_densities=start)
    assert again.converged
    assert again.niterations < ref.niterations     # already at the fixed point
    assert math.isclose(again.energy, ref.energy, abs_tol=1e-9)
    for given, kept in zip(start, ref.densities):
        assert np.array_equal(given, kept)         # copied, not iterated on

    ck = SCFCheckpoint(kind="uhf", cycle=1, energy=0.0, densities=start)
    with pytest.raises(ValueError, match="not both"):
        UHF(oh_radical, multiplicity=2).run(restart=ck, initial_densities=start)
