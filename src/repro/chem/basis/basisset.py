"""BasisSet: a molecule paired with a Gaussian basis.

Provides the two shell views the rest of the library consumes:

* ``shells`` — pure-angular-momentum :class:`Shell` objects in basis
  order (the unit of integral evaluation);
* ``composite_shells`` — GAMESS-style :class:`CompositeShell` objects
  (the unit of work distribution in Algorithms 1-3 and of Schwarz
  screening), with fused SP ("L") shells counted once, matching the
  paper's shell counts.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.chem.basis.data import basis_definition
from repro.chem.basis.shell import (
    CompositeShell,
    Shell,
    normalize_contracted,
)
from repro.chem.molecule import Molecule

_TYPE_TO_L = {"S": 0, "P": 1, "D": 2, "F": 3}


class BasisSet:
    """The atomic-orbital basis of a molecule.

    Parameters
    ----------
    molecule:
        Target molecule.
    basis_name:
        Name of a built-in basis set (``"sto-3g"``, ``"6-31g"``,
        ``"6-31g(d)"``; see :func:`repro.chem.basis.data.available_basis_sets`).
    """

    def __init__(self, molecule: Molecule, basis_name: str) -> None:
        self.molecule = molecule
        self.name = basis_name

        shells: list[Shell] = []
        composites: list[CompositeShell] = []
        offset = 0

        for atom_index, atom in enumerate(molecule.atoms):
            center = np.asarray(atom.xyz, dtype=np.float64)
            for stype, prims in basis_definition(basis_name, atom.symbol):
                rows = np.asarray(prims, dtype=np.float64)
                exps = rows[:, 0]
                if stype == "L":
                    sub: list[Shell] = []
                    for l, col in ((0, 1), (1, 2)):
                        coefs = normalize_contracted(l, exps, rows[:, col])
                        sh = Shell(l, exps, coefs, center, atom_index, offset)
                        offset += sh.nfunc
                        sub.append(sh)
                        shells.append(sh)
                    composites.append(
                        CompositeShell(tuple(sub), atom_index, len(composites))
                    )
                else:
                    l = _TYPE_TO_L[stype]
                    coefs = normalize_contracted(l, exps, rows[:, 1])
                    sh = Shell(l, exps, coefs, center, atom_index, offset)
                    offset += sh.nfunc
                    shells.append(sh)
                    composites.append(
                        CompositeShell((sh,), atom_index, len(composites))
                    )

        self._shells: tuple[Shell, ...] = tuple(shells)
        self._composites: tuple[CompositeShell, ...] = tuple(composites)
        self._nbf = offset
        # A basis never changes after construction: the per-shell index
        # arrays every Fock build reads are computed once, read-only.
        self._bf_offsets = np.array(
            [cs.bf_offset for cs in composites], dtype=np.int64
        )
        self._nfuncs = np.array(
            [cs.nfunc for cs in composites], dtype=np.int64
        )
        self._bf_offsets.setflags(write=False)
        self._nfuncs.setflags(write=False)

    # -- sizes -------------------------------------------------------------

    @property
    def nbf(self) -> int:
        """Total number of (Cartesian) basis functions."""
        return self._nbf

    @property
    def nshells(self) -> int:
        """Number of GAMESS composite shells (the paper's ``NShells``)."""
        return len(self._composites)

    @property
    def n_pure_shells(self) -> int:
        """Number of pure-angular-momentum shells (integral units)."""
        return len(self._shells)

    # -- views ---------------------------------------------------------------

    @property
    def shells(self) -> tuple[Shell, ...]:
        """Pure shells in basis order."""
        return self._shells

    @property
    def composite_shells(self) -> tuple[CompositeShell, ...]:
        """GAMESS composite shells in basis order."""
        return self._composites

    def shell_centers(self) -> np.ndarray:
        """``(nshells, 3)`` composite-shell centers in Bohr."""
        return np.array([cs.center for cs in self._composites])

    def shell_bf_offsets(self) -> np.ndarray:
        """First basis-function index of each composite shell (read-only)."""
        return self._bf_offsets

    def shell_nfuncs(self) -> np.ndarray:
        """Basis-function count of each composite shell (read-only)."""
        return self._nfuncs

    def shell_types(self) -> tuple[str, ...]:
        """Type label (``"S"``, ``"L"``, ``"D"``, ...) per composite shell."""
        return tuple(cs.stype for cs in self._composites)

    def max_shell_nfunc(self) -> int:
        """Largest composite-shell block size (the paper's ``shellSize``)."""
        return int(self._nfuncs.max())

    def __len__(self) -> int:
        return self.nshells

    def __iter__(self) -> Iterator[CompositeShell]:
        return iter(self._composites)

    def __repr__(self) -> str:
        return (
            f"BasisSet({self.name!r}, molecule={self.molecule.name!r}, "
            f"nshells={self.nshells}, nbf={self.nbf})"
        )

    # -- labels ---------------------------------------------------------------

    def bf_labels(self) -> list[str]:
        """Human-readable label per basis function (atom, shell, component)."""
        labels: list[str] = []
        for sh in self._shells:
            sym = self.molecule.atoms[sh.atom_index].symbol
            for (lx, ly, lz) in sh.components:
                comp = "x" * lx + "y" * ly + "z" * lz or "s"
                labels.append(f"{sym}{sh.atom_index}:{sh.letter}{comp}")
        return labels
