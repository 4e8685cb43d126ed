"""Throughput parity: batching must amortize caches, never change numbers.

A 20-job manifest of one identical small molecule runs through a
single-worker in-process daemon twice — batching on (``binned``) and
off (``fifo``) — and against a direct in-process
:func:`~repro.service.supervisor.run_job` reference.  The contract:

* **amortization** — job 1 pays the cold setup; jobs 2+ report
  ``warm_setup`` (shared molecule/basis/Schwarz state) *and*
  ``eri_cache_preloaded`` with **zero** ERI-pool misses (every quartet
  block computed once, reused 19 times);
* **parity** — every energy, under both policies, is bitwise identical
  to the reference: the pooled :class:`QuartetCache` is read-inert, so
  cross-job reuse can shift wall time only, never the physics;
* **accounting** — the fleet metrics say what happened: amortization
  ratio 20.0 (20 jobs per cold setup), every job carrying the journaled
  ``queue_wait_s``/``run_s``/``total_s`` latency decomposition.
"""

from __future__ import annotations

import threading

import pytest

from repro.obs.registry import RunRegistry
from repro.service import (
    JobClient,
    JobSpec,
    ServiceConfig,
    ServiceDaemon,
)
from repro.service.supervisor import run_job
from repro.workload import WorkloadManager

pytestmark = pytest.mark.process  # forks fleet workers

H2_XYZ = "2\nh2\nH 0.0 0.0 0.0\nH 0.0 0.0 0.74\n"

N_JOBS = 20


@pytest.fixture
def service(tmp_path):
    """A started in-process daemon + client, one per requested name."""
    started = []

    def start(name: str, **overrides) -> JobClient:
        overrides.setdefault("service_dir", str(tmp_path / name))
        overrides.setdefault("runs_dir", str(tmp_path / f"{name}-runs"))
        overrides.setdefault("fleet", 1)
        overrides.setdefault("backoff_base_s", 0.05)
        overrides.setdefault("backoff_cap_s", 0.2)
        daemon = ServiceDaemon(ServiceConfig(**overrides)).start()
        thread = threading.Thread(target=daemon.run_forever, daemon=True)
        thread.start()
        started.append((daemon, thread))
        return JobClient(overrides["service_dir"])

    yield start
    # LIFO: each close() restores the globals its start() displaced, so
    # unwinding in reverse start order lands back on the pre-test state.
    for daemon, thread in reversed(started):
        daemon.request_stop()
        thread.join(timeout=10)
        daemon.close()


def _run_batch(client, policy: str, registry=None):
    specs = [JobSpec(xyz=H2_XYZ, tag=f"rep-{i}") for i in range(N_JOBS)]
    manager = WorkloadManager(client, policy=policy, seed=0,
                              registry=registry)
    return manager.run(specs, timeout_s=180.0)


def test_identical_jobs_amortize_after_the_first(service, tmp_path):
    registry = RunRegistry(tmp_path / "batch-runs")
    report = _run_batch(service("binned"), "binned", registry=registry)

    assert report.metrics["jobs_done"] == N_JOBS
    assert report.metrics["jobs_failed"] == 0
    # One setup key -> one batch, one cold job, 19 warm ones.
    assert report.metrics["n_batches"] == 1
    assert report.metrics["cold_setups"] == 1
    assert report.metrics["warm_setups"] == N_JOBS - 1
    assert report.metrics["cache_amortization_ratio"] == N_JOBS

    first, rest = report.jobs[0], report.jobs[1:]
    assert first["warm_setup"] is False
    assert first["eri_cache_preloaded"] is False
    assert first["eri_cache_misses"] > 0  # the one cold fill
    for job in rest:
        assert job["warm_setup"] is True, job["tag"]
        assert job["eri_cache_preloaded"] is True, job["tag"]
        assert job["eri_cache_misses"] == 0, (
            f"{job['tag']} recomputed {job['eri_cache_misses']} quartet "
            "blocks that the pooled cache should have served"
        )
        assert job["eri_cache_hits"] > 0, job["tag"]

    # Latency decomposition is journaled into every acknowledged result.
    for job in report.jobs:
        for key in ("queue_wait_s", "run_s", "total_s"):
            assert job[key] is not None and job[key] >= 0.0
        assert job["total_s"] >= job["run_s"]

    # The batch run landed in the registry with its headline metrics.
    runs = [r for r in (registry.load(rid) for rid in registry.run_ids())
            if r.get("kind") == "batch"]
    assert len(runs) == 1
    assert runs[0]["status"] == "completed"
    assert runs[0]["summary"]["jobs_done"] == N_JOBS


def test_batching_on_vs_off_is_bitwise_identical(service):
    reference = run_job(JobSpec(xyz=H2_XYZ))
    binned = _run_batch(service("on"), "binned")
    fifo = _run_batch(service("off"), "fifo")

    binned_energies = [j["energy"] for j in binned.jobs]
    fifo_energies = [j["energy"] for j in fifo.jobs]
    assert len(binned_energies) == len(fifo_energies) == N_JOBS
    # Bitwise: exact float equality, not a tolerance.
    assert set(binned_energies) == {reference["energy"]}
    assert set(fifo_energies) == {reference["energy"]}
    assert binned.jobs[0]["iterations"] == reference["iterations"]

    # Identical single-key jobs: both policies degenerate to one batch,
    # so batching costs nothing when there is nothing to reorder.
    assert binned.plan.order == fifo.plan.order == tuple(range(N_JOBS))
