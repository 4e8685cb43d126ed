"""Shell data structures.

A :class:`Shell` is a contracted Cartesian Gaussian shell of pure
angular momentum: the unit at which the integral kernels operate.  A
:class:`CompositeShell` is the GAMESS scheduling unit — one or more
pure shells on the same center sharing primitive exponents (the fused
SP "L" shell of Pople basis sets being the important case).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

#: Cartesian component exponent triples per angular momentum, in the
#: canonical order used across the integral engine (lexicographic in
#: (lx, ly, lz) descending on lx then ly).
CART_COMPONENTS: dict[int, tuple[tuple[int, int, int], ...]] = {
    0: ((0, 0, 0),),
    1: ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    2: ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)),
    3: (
        (3, 0, 0), (2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 1, 1), (1, 0, 2),
        (0, 3, 0), (0, 2, 1), (0, 1, 2), (0, 0, 3),
    ),
}

#: Spectroscopic letters for angular momenta.
AM_LETTERS = "spdf"


def ncart(l: int) -> int:
    """Number of Cartesian components of angular momentum ``l``."""
    return (l + 1) * (l + 2) // 2


def _double_factorial(n: int) -> int:
    """(2n-1)!! style double factorial; ``_double_factorial(-1) == 1``."""
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def primitive_norm(alpha: float, lx: int, ly: int, lz: int) -> float:
    """Normalization constant of a primitive Cartesian Gaussian.

    N such that the primitive ``N * x^lx y^ly z^lz exp(-alpha r^2)``
    has unit self-overlap.
    """
    l = lx + ly + lz
    num = (2.0 * alpha / math.pi) ** 0.75 * (4.0 * alpha) ** (l / 2.0)
    den = math.sqrt(
        _double_factorial(2 * lx - 1)
        * _double_factorial(2 * ly - 1)
        * _double_factorial(2 * lz - 1)
    )
    return num / den


@dataclass(frozen=True)
class Shell:
    """A contracted Cartesian Gaussian shell of pure angular momentum.

    Attributes
    ----------
    l:
        Angular momentum (0 = s, 1 = p, 2 = d, ...).
    exps:
        Primitive exponents, shape ``(nprim,)``.
    coefs:
        Contraction coefficients *after* normalization, shape
        ``(nprim,)``.  These absorb both the primitive normalization of
        the ``(l, 0, 0)`` component and the contracted normalization, so
        integral kernels use them directly.
    center:
        Cartesian origin in Bohr.
    atom_index:
        Index of the parent atom in the molecule.
    bf_offset:
        Index of this shell's first basis function in the full basis
        (assigned by :class:`~repro.chem.basis.basisset.BasisSet`).
    """

    l: int
    exps: np.ndarray
    coefs: np.ndarray
    center: np.ndarray
    atom_index: int = -1
    bf_offset: int = -1

    def __post_init__(self) -> None:
        object.__setattr__(self, "exps", np.asarray(self.exps, dtype=np.float64))
        object.__setattr__(self, "coefs", np.asarray(self.coefs, dtype=np.float64))
        object.__setattr__(self, "center", np.asarray(self.center, dtype=np.float64))
        if self.exps.shape != self.coefs.shape:
            raise ValueError("exps and coefs must have the same shape")
        if self.center.shape != (3,):
            raise ValueError("center must be a 3-vector")

    @property
    def nprim(self) -> int:
        """Number of primitives in the contraction."""
        return self.exps.size

    @property
    def nfunc(self) -> int:
        """Number of Cartesian basis functions carried by this shell."""
        return ncart(self.l)

    @property
    def components(self) -> tuple[tuple[int, int, int], ...]:
        """Cartesian exponent triples in canonical order."""
        return CART_COMPONENTS[self.l]

    @property
    def letter(self) -> str:
        """Spectroscopic letter of the angular momentum."""
        return AM_LETTERS[self.l]

    def min_exponent(self) -> float:
        """Smallest (most diffuse) primitive exponent — drives screening decay."""
        return float(self.exps.min())


def normalize_contracted(l: int, exps: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """Return contraction coefficients normalized for angular momentum ``l``.

    Each raw coefficient is first multiplied by the norm of its primitive
    (using the ``(l, 0, 0)`` Cartesian component), then the whole
    contraction is rescaled to unit self-overlap.  The resulting shell's
    ``(l, 0, 0)`` component is exactly normalized; other components of a
    d/f shell differ by a constant factor, which leaves the variational
    space — and hence all SCF energies — unchanged.
    """
    exps = np.asarray(exps, dtype=np.float64)
    coefs = np.asarray(coefs, dtype=np.float64)
    prim_norms = np.array([primitive_norm(a, l, 0, 0) for a in exps])
    c = coefs * prim_norms

    # Self-overlap of the contracted (l,0,0) component.
    ee = exps[:, None] + exps[None, :]
    df = _double_factorial(2 * l - 1)
    s = np.sum(
        c[:, None]
        * c[None, :]
        * df
        * (math.pi / ee) ** 1.5
        / (2.0 * ee) ** l
    )
    return c / math.sqrt(s)


@dataclass(frozen=True)
class CompositeShell:
    """A GAMESS scheduling shell: one or more pure shells on one center.

    For Pople basis sets the composite is either a single pure shell
    (type ``"S"``, ``"D"``, ...) or a fused SP pair (type ``"L"``).  The
    parallel Fock algorithms iterate over composite shells, and the
    integral engine evaluates a composite whole: its :attr:`subshells`
    share every primitive quantity, which is only right if they sit on
    one center over one exponent array — checked at construction.
    """

    subshells: tuple[Shell, ...]
    atom_index: int
    index: int = -1

    def __post_init__(self) -> None:
        if not self.subshells:
            raise ValueError(f"composite shell {self.index} has no sub-shells")
        first = self.subshells[0]
        for sub in self.subshells[1:]:
            if not (
                np.array_equal(sub.center, first.center)
                and np.array_equal(sub.exps, first.exps)
            ):
                raise ValueError(
                    f"composite shell {self.index} ({self.stype}, atom "
                    f"{self.atom_index}): sub-shells must share one center "
                    "and one exponent array"
                )

    @property
    def stype(self) -> str:
        """Shell type label: ``"S"``, ``"P"``, ``"D"``, or ``"L"`` for SP."""
        ls = tuple(s.l for s in self.subshells)
        if ls == (0, 1):
            return "L"
        if len(ls) == 1:
            return AM_LETTERS[ls[0]].upper()
        return "+".join(AM_LETTERS[l].upper() for l in ls)

    @property
    def center(self) -> np.ndarray:
        """Common Cartesian origin (Bohr)."""
        return self.subshells[0].center

    @cached_property
    def nfunc(self) -> int:
        """Total basis functions across the fused sub-shells."""
        return sum(s.nfunc for s in self.subshells)

    @property
    def bf_offset(self) -> int:
        """First basis-function index of the composite block."""
        return self.subshells[0].bf_offset

    @property
    def bf_range(self) -> range:
        """Contiguous basis-function index range of the composite block."""
        start = self.bf_offset
        return range(start, start + self.nfunc)

    @property
    def max_l(self) -> int:
        """Highest angular momentum among the fused sub-shells."""
        return max(s.l for s in self.subshells)

    def min_exponent(self) -> float:
        """Most diffuse primitive exponent in the composite."""
        return min(s.min_exponent() for s in self.subshells)
