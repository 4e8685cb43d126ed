"""Serial reference SCF: literature energies, wavefunction invariants
and the cycle cap."""

import math

import numpy as np
import pytest

from repro.chem.basis import BasisSet
from repro.chem.molecule import Molecule, hydrogen_molecule, water
from repro.resilience.errors import SCFConvergenceError
from repro.scf.convergence import ConvergenceCriteria
from repro.scf.fock_dense import eri_tensor
from repro.scf.rhf import RHF
from tests.oracles import mp2_correlation_energy


def test_water_sto3g_energy(water_sto3g):
    """Crawford-project reference: -74.942079928 Eh (this geometry)."""
    res = RHF(water_sto3g).run()
    assert res.converged
    assert math.isclose(res.energy, -74.9420799281, abs_tol=2e-7)


def test_water_sto3g_scf_details(water_sto3g):
    res = RHF(water_sto3g).run()
    # Nuclear repulsion and electronic split must be consistent.
    assert math.isclose(
        res.energy, res.electronic_energy + res.nuclear_repulsion,
        rel_tol=1e-14,
    )
    # Orbital energies sorted ascending; 5 occupied for 10 electrons.
    assert np.all(np.diff(res.orbital_energies) >= -1e-10)
    assert res.orbital_energies[4] < 0 < res.orbital_energies[5]


def test_water_sto3g_mp2_crawford_reference(water_sto3g):
    """Crawford project: E_MP2(H2O/STO-3G) = -0.049149636120 Eh, the one
    literature value here that reads the virtual orbitals."""
    res = RHF(water_sto3g).run()
    assert res.converged
    e2 = mp2_correlation_energy(
        eri_tensor(water_sto3g), res.coefficients, res.orbital_energies,
        water_sto3g.molecule.nelectrons // 2,
    )
    assert math.isclose(e2, -0.049149636120, abs_tol=1e-8)


def test_h2_sto3g_energy():
    """Szabo & Ostlund: E(H2/STO-3G, R=1.4) = -1.1167 Eh."""
    b = BasisSet(hydrogen_molecule(1.4), "sto-3g")
    res = RHF(b).run()
    assert math.isclose(res.energy, -1.1167, abs_tol=2e-4)


@pytest.mark.slow
def test_water_631gd_energy_cccbdb():
    """CCCBDB HF/6-31G* at the HF-optimized geometry: -76.010746 Eh."""
    r, half_angle = 0.9472, math.radians(105.5) / 2
    mol = Molecule(
        ["O", "H", "H"],
        [
            (0, 0, 0),
            (r * math.sin(half_angle), r * math.cos(half_angle), 0),
            (-r * math.sin(half_angle), r * math.cos(half_angle), 0),
        ],
        units="angstrom",
    )
    res = RHF(BasisSet(mol, "6-31g(d)")).run()
    assert math.isclose(res.energy, -76.010746, abs_tol=5e-5)


def test_density_trace_equals_electrons(water_sto3g):
    """tr(D S) = number of electrons for the converged density."""
    scf = RHF(water_sto3g)
    res = scf.run()
    assert math.isclose(
        float(np.trace(res.density @ scf.S)),
        water_sto3g.molecule.nelectrons,
        rel_tol=1e-10,
    )


def test_density_idempotency(water_sto3g):
    """D S D = 2 D at convergence (factor-2 closed-shell convention)."""
    scf = RHF(water_sto3g)
    res = scf.run()
    lhs = res.density @ scf.S @ res.density
    np.testing.assert_allclose(lhs, 2.0 * res.density, atol=1e-6)


def test_commutator_vanishes(water_sto3g):
    """FDS - SDF -> 0 at self-consistency."""
    scf = RHF(water_sto3g)
    res = scf.run()
    fds = res.fock @ res.density @ scf.S
    assert np.max(np.abs(fds - fds.T)) < 1e-6


def test_scf_without_diis_converges(water_sto3g):
    res = RHF(water_sto3g, use_diis=False).run()
    assert res.converged
    assert math.isclose(res.energy, -74.9420799281, abs_tol=1e-6)


def test_diis_accelerates(water_sto3g):
    with_diis = RHF(water_sto3g).run()
    without = RHF(water_sto3g, use_diis=False).run()
    assert with_diis.niterations <= without.niterations


def test_odd_electron_count_rejected():
    mol = Molecule(["O", "H", "H"], water().coords, charge=1, units="bohr")
    with pytest.raises(ValueError):
        RHF(BasisSet(mol, "sto-3g"))


def test_energy_invariant_under_rotation(water_sto3g):
    """Rigid rotation of the molecule leaves the RHF energy unchanged."""
    theta = 0.7
    R = np.array(
        [
            [math.cos(theta), -math.sin(theta), 0],
            [math.sin(theta), math.cos(theta), 0],
            [0, 0, 1],
        ]
    )
    m = water()
    rotated = Molecule(m.symbols, m.coords @ R.T, units="bohr")
    e1 = RHF(water_sto3g).run().energy
    e2 = RHF(BasisSet(rotated, "sto-3g")).run().energy
    assert math.isclose(e1, e2, abs_tol=1e-9)


def _diverging(method, basis, **kwargs):
    """A front-end whose Fock builder forces a relentlessly rising energy."""
    from repro.integrals.onee import kinetic_matrix, nuclear_matrix
    from repro.scf.uhf import UHF

    h = kinetic_matrix(basis) + nuclear_matrix(basis)
    calls = [0]

    def bad_fock():
        calls[0] += 1
        return h + 0.5 * calls[0] * np.eye(basis.nbf)

    if method == "rhf":
        return RHF(basis, lambda D: (bad_fock(), {}), **kwargs)
    return UHF(
        basis, multiplicity=3,
        fock_builder=lambda da, db: (bad_fock(), bad_fock(), {}), **kwargs
    )


@pytest.mark.parametrize("method", ["rhf", "uhf"])
def test_nonconvergence_raises_in_strict_mode_only(method, water_sto3g):
    criteria = ConvergenceCriteria(max_iterations=3)
    with pytest.raises(SCFConvergenceError) as err:
        _diverging(method, water_sto3g, criteria=criteria).run()
    assert err.value.result is not None
    assert err.value.result.niterations == 3

    res = _diverging(method, water_sto3g, criteria=criteria).run(strict=False)
    assert not res.converged
    assert res.niterations == 3
