"""Physical constants and unit conversions used throughout the library.

All internal quantum-chemistry arithmetic is performed in Hartree atomic
units (lengths in Bohr, energies in Hartree).  Geometry builders and
user-facing APIs accept Angstrom and convert on entry.
"""

from __future__ import annotations

import math

#: Bohr radius in Angstrom (CODATA 2018).
BOHR_TO_ANGSTROM: float = 0.529177210903

#: Angstrom expressed in Bohr.
ANGSTROM_TO_BOHR: float = 1.0 / BOHR_TO_ANGSTROM

#: Hartree energy in electron-volts (CODATA 2018).
HARTREE_TO_EV: float = 27.211386245988

#: Hartree energy in kcal/mol.
HARTREE_TO_KCALMOL: float = 627.5094740631

#: pi to full double precision, re-exported for integral kernels.
PI: float = math.pi

#: 2 * pi**(5/2), the prefactor of the fundamental ERI formula.
TWO_PI_POW_2_5: float = 2.0 * math.pi ** 2.5

#: Double-precision word size in bytes; the unit of the memory model.
WORD_BYTES: int = 8

#: One gibibyte in bytes (the paper reports GB; we use GiB-like 1e9
#: decimal GB to match the paper's row magnitudes).
GB: float = 1.0e9
