"""Periodic-table lookups."""

import pytest

from repro.chem.elements import element_by_symbol, element_by_z


def test_lookup_by_symbol():
    c = element_by_symbol("C")
    assert c.z == 6
    assert c.name == "carbon"


def test_lookup_case_insensitive():
    assert element_by_symbol("c").z == 6
    assert element_by_symbol(" o ").z == 8


def test_lookup_by_z():
    assert element_by_z(1).symbol == "H"
    assert element_by_z(18).symbol == "Ar"


def test_unknown_symbol_raises():
    with pytest.raises(KeyError):
        element_by_symbol("Xx")


def test_unknown_z_raises():
    with pytest.raises(KeyError):
        element_by_z(99)


def test_table_is_consistent():
    for e in map(element_by_z, range(1, 19)):
        assert element_by_z(e.z) is e
        assert element_by_symbol(e.symbol) is e
        assert e.mass > 0
