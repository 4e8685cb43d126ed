"""Set-up probe of a direct workload: everything ``repro scf`` does before
its first Fock build, then ``ready``.

Run as a child with the workload's own ``scf ...`` arguments.  It imports
``repro.cli``, parses the arguments with the real parser and makes the
set-up calls ``cmd_scf`` makes — ``Molecule.from_xyz``, ``BasisSet``,
one-electron integrals, Schwarz bounds / ``Screening``, and the Fock
builder + SCF driver construction — so work a later change moves from
the SCF loop into set-up shows up here.
"""

import sys


def main(argv: list[str]) -> int:
    from repro import cli

    args = cli.build_parser().parse_args(argv)
    from repro.chem.basis import BasisSet
    from repro.chem.molecule import Molecule

    mol = Molecule.from_xyz(args.xyz.read_text(), charge=args.charge)
    basis = BasisSet(mol, args.basis)
    cache_mb = None if args.no_eri_cache else args.eri_cache_mb
    if args.uhf:
        from repro.core.fock_uhf import UHFPrivateFockBuilder
        from repro.integrals.onee import kinetic_matrix, nuclear_matrix
        from repro.parallel.backend import make_backend
        from repro.scf.uhf import UHF

        hcore = kinetic_matrix(basis) + nuclear_matrix(basis)
        inner = UHFPrivateFockBuilder(
            basis, hcore, nranks=args.ranks, nthreads=args.threads,
            eri_cache_mb=cache_mb, schedule=args.schedule,
        )
        backend = make_backend(args.backend, workers=args.ranks)
        UHF(basis, multiplicity=args.multiplicity,
            fock_builder=backend.wrap_builder(inner))
        backend.shutdown()
    else:
        from repro.core.scf_driver import ParallelSCF

        with ParallelSCF(
            basis, args.algorithm, nranks=args.ranks, nthreads=args.threads,
            backend=args.backend, eri_cache_mb=cache_mb,
            schedule=args.schedule,
        ):
            pass
    print("ready")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
