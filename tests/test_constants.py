"""Unit-conversion sanity checks."""

import math

from repro import constants


def test_bohr_angstrom_roundtrip():
    assert math.isclose(
        1.7 * constants.BOHR_TO_ANGSTROM * constants.ANGSTROM_TO_BOHR, 1.7,
        rel_tol=1e-14,
    )


def test_bohr_value():
    assert math.isclose(constants.BOHR_TO_ANGSTROM, 0.529177, rel_tol=1e-5)


def test_hartree_ev():
    assert math.isclose(constants.HARTREE_TO_EV, 27.2114, rel_tol=1e-5)


def test_eri_prefactor():
    assert math.isclose(
        constants.TWO_PI_POW_2_5, 2.0 * math.pi ** 2.5, rel_tol=1e-15
    )


def test_word_size():
    assert constants.WORD_BYTES == 8
