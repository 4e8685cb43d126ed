"""Periodic-table data for the elements the built-in basis sets cover.

Only a light subset of element properties is needed by the HF engine:
atomic number (nuclear charge), symbol, and atomic mass (for center-of-
mass utilities).  The table covers H through Ar which is more than the
built-in basis data requires.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Element:
    """A chemical element.

    Attributes
    ----------
    z:
        Atomic number, equal to the nuclear charge in atomic units.
    symbol:
        IUPAC element symbol (e.g. ``"C"``).
    name:
        English element name.
    mass:
        Standard atomic weight in unified atomic mass units.
    """

    z: int
    symbol: str
    name: str
    mass: float


_ELEMENTS: tuple[Element, ...] = (
    Element(1, "H", "hydrogen", 1.00794),
    Element(2, "He", "helium", 4.002602),
    Element(3, "Li", "lithium", 6.941),
    Element(4, "Be", "beryllium", 9.012182),
    Element(5, "B", "boron", 10.811),
    Element(6, "C", "carbon", 12.0107),
    Element(7, "N", "nitrogen", 14.0067),
    Element(8, "O", "oxygen", 15.9994),
    Element(9, "F", "fluorine", 18.9984032),
    Element(10, "Ne", "neon", 20.1797),
    Element(11, "Na", "sodium", 22.98976928),
    Element(12, "Mg", "magnesium", 24.3050),
    Element(13, "Al", "aluminium", 26.9815386),
    Element(14, "Si", "silicon", 28.0855),
    Element(15, "P", "phosphorus", 30.973762),
    Element(16, "S", "sulfur", 32.065),
    Element(17, "Cl", "chlorine", 35.453),
    Element(18, "Ar", "argon", 39.948),
)

_BY_SYMBOL: dict[str, Element] = {e.symbol.upper(): e for e in _ELEMENTS}
_BY_Z: dict[int, Element] = {e.z: e for e in _ELEMENTS}


def element_by_symbol(symbol: str) -> Element:
    """Look an element up by (case-insensitive) symbol.

    Raises
    ------
    KeyError
        If the symbol is not in the supported H..Ar range.
    """
    key = symbol.strip().upper()
    try:
        return _BY_SYMBOL[key]
    except KeyError:
        raise KeyError(f"unknown element symbol: {symbol!r}") from None


def element_by_z(z: int) -> Element:
    """Look an element up by atomic number.

    Raises
    ------
    KeyError
        If ``z`` is outside the supported 1..18 range.
    """
    try:
        return _BY_Z[int(z)]
    except KeyError:
        raise KeyError(f"unknown atomic number: {z}") from None
