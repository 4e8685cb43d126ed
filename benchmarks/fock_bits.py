"""The Fock bytes of the three ledger fixtures, as sha1 digests.

A change meant to be pure bookkeeping (digestion, the ERI cache, the
builders' routing, reduction buffers) must leave every Fock matrix
*bitwise* as it was, not just the energies.  This prints, as one sorted
JSON object, the first 12 hex digits of ``sha1(F.tobytes())`` for 45
combinations — the fixtures allene/STO-3G, hydroxide/6-31G(d) and
ethyl/STO-3G (``benchmarks/e2e/fixtures``) x {shared-fock 2x2 and 3x1,
private-fock 2x2, mpi-only 4, UHF private-fock 2x2} x an ERI cache of
{none, 64 MB, a thrashing 20 kB} — each fed three successive random
symmetric densities on one builder, so warm and cold builds both count.
UHF digests ``F_alpha`` and ``F_beta`` together.

Run it on two trees and compare the outputs; the script imports
``repro`` from the tree it is given (default: the one it lives in)::

    python benchmarks/fock_bits.py > change.json
    python benchmarks/fock_bits.py /path/to/base/checkout > base.json
    diff base.json change.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

FIXTURES = (
    ("allene", "allene.xyz", "sto-3g", 0),
    ("hydroxide", "hydroxide.xyz", "6-31g(d)", -1),
    ("ethyl", "ethyl.xyz", "sto-3g", 0),
)
GEOMETRIES = (
    ("shared-fock", 2, 2), ("shared-fock", 3, 1),
    ("private-fock", 2, 2), ("mpi-only", 4, 1),
)
#: label -> ``eri_cache_mb``
CACHES = {"none": None, "64MB": 64.0, "20kB": 20_000 / 1048576}


def digest(*matrices) -> str:
    return hashlib.sha1(b"".join(m.tobytes() for m in matrices)).hexdigest()[:12]


def fock_bits(root: Path) -> dict[str, list[str]]:
    """Digests of every combination, keyed ``fixture/algorithm/geometry/cache``."""
    # One BLAS thread, as ``repro`` runs; then the tree's own ``repro``.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(root / "src"))
    import numpy as np

    from repro.chem.basis import BasisSet
    from repro.chem.molecule import Molecule
    from repro.core.fock_uhf import UHFPrivateFockBuilder
    from repro.core.scf_driver import make_fock_builder
    from repro.integrals.onee import kinetic_matrix, nuclear_matrix

    fixtures = root / "benchmarks" / "e2e" / "fixtures"
    out: dict[str, list[str]] = {}
    for name, xyz, basis_name, charge in FIXTURES:
        mol = Molecule.from_xyz((fixtures / xyz).read_text(), charge=charge)
        basis = BasisSet(mol, basis_name)
        h = kinetic_matrix(basis) + nuclear_matrix(basis)
        rng = np.random.default_rng(5)
        densities = []
        for _ in range(3):
            d = rng.standard_normal((basis.nbf, basis.nbf))
            densities.append(d + d.T)
        for label, cache in CACHES.items():
            for algorithm, nranks, nthreads in GEOMETRIES:
                builder = make_fock_builder(
                    algorithm, basis, h, nranks=nranks, nthreads=nthreads,
                    eri_cache_mb=cache,
                )
                out[f"{name}/{algorithm}/{nranks}x{nthreads}/{label}"] = [
                    digest(builder(d)[0]) for d in densities
                ]
            builder = UHFPrivateFockBuilder(
                basis, h, nranks=2, nthreads=2, eri_cache_mb=cache
            )
            out[f"{name}/uhf/2x2/{label}"] = [
                digest(*builder(d, 0.5 * d + 0.1 * densities[0])[:2])
                for d in densities
            ]
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "root", nargs="?", type=Path,
        default=Path(__file__).resolve().parents[1],
        help="checkout whose src/ and fixtures to use (default: this one)",
    )
    args = parser.parse_args(argv)
    json.dump(fock_bits(args.root.resolve()), sys.stdout, indent=0,
              sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
