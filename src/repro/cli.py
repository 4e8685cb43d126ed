"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``scf``        Run RHF/UHF on an XYZ file with any of the parallel
               Fock algorithms.  ``scf``, ``profile``, ``submit`` and
               manifest entries share one option table
               (:mod:`repro.config`).
``profile``    Run an SCF under the tracer and export a Chrome-trace
               timeline, a text profile, NDJSON spans/metrics/events.
``explain``    Where the time went: the per-rank busy/wait/idle,
               load-imbalance and critical-path analysis of saved runs
               (a ``spans.ndjson``, its directory, or a registered run),
               or one service job's stitched trace (client, daemon,
               every worker attempt) with its critical path; optionally
               one Chrome trace of them.
``compare``    Diff two or more benchmark/metric records under a noise
               tolerance; exits nonzero on regressions (the CI
               ``bench-regress`` gate).
``monitor``    Follow a registered run's ``events.ndjson`` while the run
               is live (or replay it once it is done) and render the
               per-rank activity / convergence / worker-health
               dashboard.
``runs``       Query the persistent run registry (``.repro/runs``):
               list runs, show one run's record, or prune old run
               directories under a retention policy.
``serve``      Run the SCF job service: a daemon with a durable
               (write-ahead-journaled) queue, a supervised worker
               fleet, retry/backoff, and graceful degradation.
``batch``      Run a workload manifest (many jobs, mixed systems)
               through the service under a pluggable batch-scheduling
               policy; report jobs/s, queue-wait p95, amortization.
``submit``     Submit an SCF job to a running service.
``status``     One job's record, or the whole queue + fleet health.
``result``     Wait for a job and print its result.
``cancel``     Cancel a queued or running job.
``slo``        Latency/SLO report: p50/p95/p99 queue-wait/run/total
               per job class, error-budget burn rates, and breach
               counts — live from a daemon or from recorded telemetry.
``simulate``   Describe one of the paper's graphene datasets (sizes,
               screening statistics), then predict the Fock-build time
               of one run configuration on it.
``reproduce``  Regenerate a paper table or figure.

Every command accepts ``--log-level`` / ``--quiet`` (before or after
the subcommand name): diagnostics go to stderr via :mod:`logging`,
primary results stay on stdout, so piped output remains parseable.

The entry point owns the process' thread budget: :func:`main` sets
``OPENBLAS_NUM_THREADS`` / ``OMP_NUM_THREADS`` / ``MKL_NUM_THREADS`` to 1
unless the environment already sets them, before any command imports
NumPy — the ranks and threads a run asks for are its parallelism, and a
BLAS pool under each would only oversubscribe the cores.  Daemons, fleet
workers and process-backend ranks inherit the setting.  Importing
:mod:`repro` or this module changes nothing.

This module is the entry point only; the verbs live in
:mod:`repro.commands`, one module per verb group.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

from repro.commands import add_logging_args, fail, obs, paper, run, service
from repro.config import ConfigError

#: Thread-pool sizes of the BLAS / OpenMP runtimes :func:`main` pins to 1.
THREAD_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="MPI/OpenMP parallel Hartree-Fock (SC'17 reproduction)",
    )
    add_logging_args(p, top=True)
    sub = p.add_subparsers(dest="command", required=True)
    for group in (run, obs, service, paper):
        group.register(sub)
    return p


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    for name in THREAD_ENV_VARS:  # before NumPy is imported: see above
        os.environ.setdefault(name, "1")
    from repro.obs.logctl import setup_logging

    args = build_parser().parse_args(argv)
    setup_logging(
        getattr(args, "log_level", "warning"),
        quiet=getattr(args, "quiet", False),
    )
    try:
        return args.handler(args)
    except ConfigError as exc:
        # Options that contradict each other, or input (geometry, basis,
        # electron count) they do not fit: the user's to fix, one line.
        return fail(str(exc))
    except BrokenPipeError:
        # stdout consumer (head, less, ...) hung up mid-print; standard
        # CLI etiquette is a quiet exit, not a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


def entry() -> None:
    """The ``repro`` console script and ``python -m repro``: :func:`main`,
    then exit without walking the heap.

    ``gc.freeze()`` moves every tracked object to the permanent
    generation, so the interpreter's teardown collections have nothing
    to traverse among the objects NumPy and the SCF stack leave behind.
    :func:`main` itself stays free of that side effect: callers in
    process (the tests) keep a collector that sees everything.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
