"""repro — reproduction of Mironov et al. (SC'17).

"An efficient MPI/OpenMP parallelization of the Hartree-Fock method for
the second generation of Intel Xeon Phi processor."

The package layers:

* :mod:`repro.chem` / :mod:`repro.integrals` / :mod:`repro.scf` — a
  from-scratch restricted & unrestricted Hartree-Fock engine (the
  GAMESS substrate).
* :mod:`repro.parallel` — a deterministic simulated MPI/OpenMP
  runtime with write-race detection.
* :mod:`repro.core` — the paper's contribution: the MPI-only,
  private-Fock and shared-Fock parallel Fock-build algorithms (plus a
  UHF variant) and the memory-footprint model.
* :mod:`repro.machine` / :mod:`repro.perfsim` — Intel Xeon Phi (KNL)
  node/cluster models and the calibrated performance simulator that
  regenerates the paper's figures and tables.
* :mod:`repro.obs` — observability: hierarchical tracing, a named
  metrics registry, and Chrome-trace/profile/NDJSON exporters.
* :mod:`repro.analysis` — table/figure reproduction helpers.
* :mod:`repro.config` — :class:`~repro.config.SCFConfig`, the one
  spelling of the SCF option set every surface below shares.
* :mod:`repro.cli` / :mod:`repro.commands` — the ``python -m repro``
  command-line interface: entry point, and one module per verb group.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
