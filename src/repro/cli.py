"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``scf``        Run RHF/UHF on an XYZ file with any of the parallel
               Fock algorithms.  ``scf``, ``profile``, ``submit`` and
               manifest entries share one option table
               (:mod:`repro.config`).
``profile``    Run an SCF under the tracer and export a Chrome-trace
               timeline, a text profile, NDJSON spans/metrics/events —
               plus, with ``--timeline``, the per-rank busy/idle/wait
               and load-imbalance analysis.
``timeline``   Analyze saved ``spans.ndjson`` / ``events.ndjson`` dumps
               (one or several runs) and optionally merge them into a
               single multi-run Chrome trace.
``compare``    Diff two or more benchmark/metric records under a noise
               tolerance; exits nonzero on regressions (the CI
               ``bench-regress`` gate).
``monitor``    Attach to a running SCF's live telemetry socket (or
               replay a recorded ``telemetry.ndjson``) and render the
               per-rank activity / convergence / worker-health
               dashboard.
``runs``       Query the persistent run registry (``.repro/runs``):
               list runs, show one run's record, diff two runs'
               final metrics through the comparison engine, or prune
               old run directories under a retention policy.
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
``trace``      Stitch one job's distributed trace (client, daemon,
               every worker attempt) into a single Chrome trace with
               synthetic queue-wait/backoff/resume segments and the
               cross-process critical path.
``slo``        Latency/SLO report: p50/p95/p99 queue-wait/run/total
               per job class, error-budget burn rates, and breach
               counts — live from a daemon or from recorded telemetry.
``dataset``    Describe one of the paper's graphene datasets (sizes,
               screening statistics).
``simulate``   Predict the Fock-build time of one run configuration.
``reproduce``  Regenerate a paper table or figure.

Every command accepts ``--log-level`` / ``--quiet`` (before or after
the subcommand name): diagnostics go to stderr via :mod:`logging`,
primary results stay on stdout, so piped output remains parseable.

This module is the entry point only; the verbs live in
:mod:`repro.commands`, one module per verb group.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.commands import add_logging_args, fail, obs, paper, run, service
from repro.config import ConfigError


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


if __name__ == "__main__":
    sys.exit(main())
