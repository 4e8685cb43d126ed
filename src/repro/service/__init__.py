"""SCF-as-a-service: durable job queue, supervised worker fleet, client.

The paper's production context — Hartree-Fock on thousands of Xeon Phi
nodes — never runs one SCF and exits; jobs stream through long-lived
allocations where node failures, stragglers, and non-convergent
systems are routine.  This package is that operational layer over the
repo's SCF stack:

* :mod:`repro.service.queue` — write-ahead-journaled job queue; a
  SIGKILL'd daemon loses nothing it acknowledged;
* :mod:`repro.service.supervisor` — persistent worker fleet with
  heartbeat liveness, per-job deadlines, kill-and-respawn;
* :mod:`repro.service.retry` — seeded-deterministic backoff and
  terminal-vs-retryable failure classification;
* :mod:`repro.service.daemon` — the ``repro serve`` process;
* :mod:`repro.service.client` — :class:`JobClient` and the CLI verbs
  ``repro submit`` / ``status`` / ``result`` / ``cancel``.
"""

from repro.config import ALGORITHMS, BACKENDS, SCHEDULES
from repro.service.client import (
    DEFAULT_SERVICE_DIR,
    JobClient,
    probe_socket,
    service_socket_path,
)
from repro.service.daemon import ServiceConfig, ServiceDaemon, serve
from repro.service.errors import (
    DaemonAlreadyRunning,
    JobNotFound,
    JobSpecError,
    JobTimeoutError,
    ManifestError,
    ServiceError,
    ServiceOverloaded,
    ServiceUnavailable,
    WorkerLostError,
)
from repro.service.jobs import JOB_STATES, TERMINAL_STATES, Job, JobSpec
from repro.service.queue import DEFAULT_MAX_DEPTH, DurableJobQueue
from repro.service.retry import RETRYABLE, TERMINAL, RetryPolicy, classify
from repro.service.supervisor import WorkerFleet, run_job

__all__ = [
    "ALGORITHMS",
    "BACKENDS",
    "DEFAULT_MAX_DEPTH",
    "DEFAULT_SERVICE_DIR",
    "DaemonAlreadyRunning",
    "DurableJobQueue",
    "JOB_STATES",
    "Job",
    "JobClient",
    "JobNotFound",
    "JobSpec",
    "JobSpecError",
    "JobTimeoutError",
    "ManifestError",
    "RETRYABLE",
    "RetryPolicy",
    "SCHEDULES",
    "ServiceConfig",
    "ServiceDaemon",
    "ServiceError",
    "ServiceOverloaded",
    "ServiceUnavailable",
    "TERMINAL",
    "TERMINAL_STATES",
    "WorkerFleet",
    "WorkerLostError",
    "classify",
    "probe_socket",
    "run_job",
    "serve",
    "service_socket_path",
]
