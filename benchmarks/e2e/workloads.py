"""The four workloads, the metric tables, and the untraced (end-to-end) pass.

One run = one workload = ``REPS`` repetitions of a short unit (under
2.1 s), every repetition a cold child process of the real CLI, one busy
process at a time.  ``time_to_energy_s`` and ``setup_s`` are the *minimum* over the
repetitions (the disturbance on a shared host is additive, so the
minimum is the statistic that repeats — see README.md), ``peak_rss_mb``
the median.

``BENCHMARK.json`` at the repository root repeats the names, units,
directions and bounds below; ``test_e2e_smoke.py`` keeps the two equal.
"""

from __future__ import annotations

import functools
import json
import os
import random
import re
import signal
import socket
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import harness
from harness import ChildResult, Sandbox

FIXTURES = Path(__file__).resolve().parent / "fixtures"

#: Repetitions of the unit per run: ISSUE 14's floor, because 92 driver
#: runs must fit into 3 420 s on a disturbed host (README.md, "Run length").
REPS = 10
#: Set-up probes per run on the direct workloads, spread evenly between
#: the repetitions so they sample different phases of a disturbed host
#: (the service workload times its set-up, the daemon start, in every
#: repetition).
PROBES = 4
#: The smoke mode of test_e2e_smoke.py; never used for reported numbers.
SMOKE_REPS = 2
SMOKE_PROBES = 1

ENERGY_TOL_EH = 1.0e-8

#: (name, unit, better, bound) — the same three on every workload.  One
#: bound serves all four workloads, so the noisiest one sets it: the
#: service batch, whose 50 ms dispatch tick turns a 5 % slower host into
#: a 15 % longer unit (README.md, "Bounds").
END_TO_END = (
    ("time_to_energy_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.03),
)

#: (name, unit, better) — measured by the traced pass (layers.py).
PER_LAYER = (
    ("cli.import_s", "s", "lower"),
    ("cli.floor_s", "s", "lower"),
    ("chem.setup_s", "s", "lower"),
    ("integrals.onee_s", "s", "lower"),
    ("integrals.schwarz_s", "s", "lower"),
    ("integrals.pair_prep_s", "s", "lower"),
    ("integrals.eri_sweep_s", "s", "lower"),
    ("integrals.eri_quartets", "count", "lower"),
    ("integrals.eri_quartets_per_s", "1/s", "higher"),
    ("integrals.boys_calls_per_quartet", "count", "lower"),
    ("integrals.cache_put_s", "s", "lower"),
    ("integrals.cache_get_s", "s", "lower"),
    ("integrals.cache_bytes", "B", "lower"),
    ("integrals.cache_hit_rate_cycle2", "ratio", "higher"),
    ("core.screening_s", "s", "lower"),
    ("core.screening_survivors", "count", "lower"),
    ("core.screening_screened", "count", "higher"),
    ("core.digest_sweep_s", "s", "lower"),
    ("core.fock_build_cold_s", "s", "lower"),
    ("core.fock_build_warm_s", "s", "lower"),
    ("core.fock_bookkeeping_s", "s", "lower"),
    ("core.buffer_add_flush_s", "s", "lower"),
    ("core.fi_flushes", "count", "lower"),
    ("core.fj_flushes", "count", "lower"),
    ("core.reduce_bytes", "B", "lower"),
    ("core.rank_imbalance", "ratio", "lower"),
    ("core.thread_imbalance", "ratio", "lower"),
    ("scf.iterations", "count", "lower"),
    ("scf.guess_s", "s", "lower"),
    ("scf.diag_s", "s", "lower"),
    ("scf.diis_s", "s", "lower"),
    ("scf.non_fock_s", "s", "lower"),
    ("parallel.dlb_grants", "count", "lower"),
    ("parallel.scheduler_drain_s", "s", "lower"),
    ("parallel.reduce_s", "s", "lower"),
    ("parallel.backend_start_s", "s", "lower"),
    ("parallel.backend_shutdown_s", "s", "lower"),
    ("parallel.process_build_s", "s", "lower"),
    ("parallel.build_speedup_2w", "ratio", "higher"),
    ("parallel.counter_claim_us", "us", "lower"),
    ("parallel.worker_peak_rss_mb", "MB", "lower"),
    ("parallel.shm_leaked", "count", "lower"),
    ("service.daemon_start_s", "s", "lower"),
    ("service.teardown_s", "s", "lower"),
    ("service.submit_ack_p50_s", "s", "lower"),
    ("service.submit_ack_p95_s", "s", "lower"),
    ("service.journal_append_s", "s", "lower"),
    ("service.queue_wait_p50_s", "s", "lower"),
    ("service.run_p50_s", "s", "lower"),
    ("service.worker_fixed_cost_s", "s", "lower"),
    ("service.overhead_per_job_s", "s", "lower"),
    ("service.compute_share", "ratio", "higher"),
    ("service.jobs_per_s", "1/s", "higher"),
    ("workload.manifest_parse_s", "s", "lower"),
    ("workload.plan_s", "s", "lower"),
    ("workload.cold_setups", "count", "lower"),
    ("workload.warm_setups", "count", "higher"),
    ("workload.cache_amortization_ratio", "ratio", "higher"),
    ("resilience.checkpoint_write_s", "s", "lower"),
    ("obs.registry_run_s", "s", "lower"),
    ("obs.span_cost_us", "us", "lower"),
    ("obs.telemetry_publish_us", "us", "lower"),
    ("trace.coverage_frac", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("host.calib_s", "s", "lower"),
    ("host.disturbed_frac", "ratio", "lower"),
    ("host.nproc", "count", "higher"),
)


@dataclass(frozen=True)
class Workload:
    """One workload: a direct ``repro scf`` unit, or the service batch."""

    name: str
    why: str
    kind: str  # "direct" | "service"
    xyz: str = ""  # fixture file of a direct unit
    scf_args: tuple[str, ...] = ()
    #: The traced pass also replays one build on the process backend.
    process_diagnostics: bool = False


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "allene_semidirect",
        "Allene/STO-3G RHF, shared-fock 2x2 sim, ERI cache on: cache written "
        "in cycle 1, read in 13; digestion + bookkeeping + FI/FJ flushes "
        "dominate, ERI under a third. --seed ignored (committed fixture).",
        "direct", "allene.xyz",
        ("--basis", "sto-3g", "--algorithm", "shared-fock",
         "--ranks", "2", "--threads", "2", "--eri-cache-mb", "64"),
    ),
    Workload(
        "hydroxide_d_direct",
        "Hydroxide/6-31G(d) RHF, mpi-only 4 ranks sim, --no-eri-cache: direct "
        "SCF with a d shell; ERI evaluation is most of each Fock build, cache "
        "bypassed, digestion small. --seed ignored (committed fixture).",
        "direct", "hydroxide.xyz",
        ("--charge", "-1", "--basis", "6-31g(d)", "--algorithm", "mpi-only",
         "--ranks", "4", "--no-eri-cache"),
        process_diagnostics=True,
    ),
    Workload(
        "ethyl_uhf_private",
        "Ethyl radical/STO-3G UHF doublet, private-fock 2x2 sim, cache on: "
        "two spin densities through private per-thread accumulators, the "
        "digestion path RHF does not use. --seed ignored (committed fixture).",
        "direct", "ethyl.xyz",
        ("--uhf", "--multiplicity", "2", "--basis", "sto-3g",
         "--algorithm", "private-fock", "--ranks", "2", "--threads", "2"),
    ),
    Workload(
        "service_small_jobs",
        "Fresh 'repro serve --fleet 1', then 'repro batch' of 12 tiny jobs "
        "(6 cold, 6 warm), closed loop, one client: journal fsync, dispatch "
        "tick, checkpoints dominate. --seed draws the job order.",
        "service",
    ),
)}


def scf_argv(w: Workload) -> list[str]:
    """The ``repro scf`` command line of a direct workload."""
    return [sys.executable, "-m", "repro", "scf", str(FIXTURES / w.xyz),
            *w.scf_args]


@functools.cache
def references() -> dict[str, Any]:
    """The committed reference energies and iteration counts (read-only)."""
    return json.loads((FIXTURES / "references.json").read_text())


# -- the service manifest -----------------------------------------------------

#: Base geometries of the two tiny systems (Angstrom) and their basis.
SYSTEMS = {
    "h2": ("6-31g", (("H", 0.0, 0.0, 0.0), ("H", 0.0, 0.0, 0.7408))),
    "water": ("sto-3g", (
        ("O", 0.0, 0.0, 0.1173), ("H", 0.0, 0.7572, -0.4692),
        ("H", 0.0, -0.7572, -0.4692))),
}
#: The cold jobs: (system, geometry scale factor, algorithm).  The set is
#: the same for every seed — the daemon rounds each job up to its 50 ms
#: dispatch tick, so geometries that differed per seed would move the
#: unit by whole ticks (3-4 % each) — and each has a committed reference.
COLD_JOBS = (
    ("h2", 0.992, "shared-fock"), ("water", 0.994, "private-fock"),
    ("h2", 1.000, "mpi-only"), ("water", 1.000, "shared-fock"),
    ("h2", 1.008, "private-fock"), ("water", 1.006, "mpi-only"),
)
#: Every seed repeats its last H2 and its last water job this many times.
WARM_ROUNDS = 3


def job_key(system: str, scale: float, algorithm: str) -> str:
    """Tag of a job and key of its reference (a batch report keeps only tags)."""
    return f"{system}:{scale:.3f}:{algorithm}"


def scaled_xyz(system: str, scale: float) -> str:
    """XYZ text of ``system`` with every coordinate multiplied by ``scale``."""
    atoms = SYSTEMS[system][1]
    lines = [str(len(atoms)), f"{system} x{scale:.3f}"]
    lines += [f"{sym} {x * scale:.8f} {y * scale:.8f} {z * scale:.8f}"
              for sym, x, y, z in atoms]
    return "\n".join(lines) + "\n"


def service_jobs(seed: int) -> list[dict[str, Any]]:
    """The seed's job list: the cold systems in a seed-drawn order, then
    ``WARM_ROUNDS`` repeats of the last H2 and the last water job in that
    order — both still resident in the worker's 8-entry set-up cache."""
    order = list(COLD_JOBS)
    random.Random(seed).shuffle(order)
    jobs = [{
        "xyz": scaled_xyz(system, scale),
        "basis": SYSTEMS[system][0],
        "algorithm": algorithm,
        "tag": f"{job_key(system, scale, algorithm)}:cold",
    } for system, scale, algorithm in order]
    last = {job["basis"]: job for job in jobs}  # last of each system
    for r in range(WARM_ROUNDS):
        for job in last.values():
            jobs.append({**job, "tag": job["tag"].replace("cold", f"warm{r}")})
    return jobs


def write_manifest(path: Path, seed: int) -> list[dict[str, Any]]:
    jobs = service_jobs(seed)
    path.write_text("".join(json.dumps(j) + "\n" for j in jobs))
    return jobs


# -- verification -------------------------------------------------------------

ENERGY_RE = re.compile(
    r"(?:RHF|UHF) energy\s*:\s*(-?\d+\.\d+) Eh "
    r"\(converged=(True|False), (\d+) iterations"
)


def check_scf_child(child: ChildResult, ref: dict[str, Any]) -> list[str]:
    """Why a ``repro scf`` repetition failed; empty when it verified."""
    problems = []
    if child.returncode != 0:
        problems.append(f"exit code {child.returncode}: "
                        f"{child.stderr.strip()[-200:]}")
    match = ENERGY_RE.search(child.stdout)
    if match is None:
        return problems + ["no energy line on stdout"]
    energy, converged, iterations = match.groups()
    if converged != "True":
        problems.append("converged=False")
    if abs(float(energy) - ref["energy"]) > ENERGY_TOL_EH:
        problems.append(f"energy {energy} vs reference {ref['energy']:.10f}")
    if int(iterations) != ref["iterations"]:
        problems.append(f"{iterations} iterations vs reference "
                        f"{ref['iterations']}")
    if child.leaked_pids:
        problems.append(f"left processes {child.leaked_pids}")
    return problems


def check_job(job: dict[str, Any], refs: dict[str, Any]) -> list[str]:
    """Why one acknowledged service job failed; empty when it verified."""
    tag = job["tag"]
    if job["state"] != "done":
        return [f"{tag}: state {job['state']} ({job.get('error_type')})"]
    ref = refs["service"][tag.rsplit(":", 1)[0]]
    problems = []
    if not job["converged"]:
        problems.append(f"{tag}: converged=False")
    if abs(job["energy"] - ref["energy"]) > ENERGY_TOL_EH:
        problems.append(f"{tag}: energy {job['energy']:.10f} vs "
                        f"reference {ref['energy']:.10f}")
    if job["iterations"] != ref["iterations"]:
        problems.append(f"{tag}: {job['iterations']} iterations vs "
                        f"reference {ref['iterations']}")
    return problems


# -- the direct unit ----------------------------------------------------------


@dataclass
class RunResult:
    """What one untraced run measured."""

    workload: str
    seed: int
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    time_to_energy: list[float] = field(default_factory=list)
    setup: list[float] = field(default_factory=list)
    peak_rss: list[float] = field(default_factory=list)

    def fail(self, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def metrics(self) -> dict[str, dict[str, Any]]:
        return {
            "time_to_energy_s": {"value": min(self.time_to_energy), "unit": "s"},
            "setup_s": {"value": min(self.setup), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(self.peak_rss),
                            "unit": "MB"},
        }

    def report(self, budget_s: float, measured_s: float) -> dict[str, Any]:
        """The ungated detail written next to the contract line."""
        tte = harness.summarize(self.time_to_energy)
        return {
            "workload": self.workload, "seed": self.seed,
            "attempted": self.attempted, "failed": self.failed,
            "problems": self.problems,
            "budget_s": budget_s, "measured_s": measured_s,
            "metrics": self.metrics(),
            "time_to_energy_s": tte,
            "setup_s": harness.summarize(self.setup),
            "peak_rss_mb": harness.summarize(self.peak_rss),
            "disturbed_frac": sum(
                t > 1.10 * tte["min"] for t in self.time_to_energy
            ) / tte["n"],
        }


def run_direct(w: Workload, sandbox: Sandbox, result: RunResult,
               reps: int, probes: int) -> None:
    """``reps`` cold ``repro scf`` children, ``probes`` set-up probes between."""
    ref = references()["direct"][w.name]
    argv = scf_argv(w)
    probe_argv = [sys.executable, str(Path(__file__).with_name("setup_probe.py")),
                  *argv[3:]]
    probe_after = {round((k + 1) * reps / probes) - 1 for k in range(probes)}
    for rep in range(reps):
        child = sandbox.run(argv, "scf")
        result.attempted += 1
        result.fail(check_scf_child(child, ref)
                    + sandbox.census(f"rep {rep}"))
        result.time_to_energy.append(child.wall_s)
        result.peak_rss.append(child.peak_rss_mb)
        if rep in probe_after:
            probe = sandbox.run(probe_argv, "probe")
            result.attempted += 1
            ok = probe.returncode == 0 and probe.stdout.strip().endswith("ready")
            result.fail([] if ok else
                        [f"set-up probe failed: {probe.stderr.strip()[-200:]}"])
            result.setup.append(probe.wall_s)


# -- the service unit ---------------------------------------------------------


@dataclass
class ServiceRep:
    """One repetition of the service unit, with everything a trace needs."""

    daemon_pid: int
    service_dir: str
    daemon_start_s: float
    time_to_energy_s: float
    batch: ChildResult
    report: dict[str, Any]
    journal: list[dict[str, Any]]
    term_sent_at: float


def _ping(sock_path: Path) -> dict[str, Any] | None:
    """One ping round trip on the service socket; None while it is not up."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(5.0)
    try:
        sock.connect(str(sock_path))
        sock.sendall(b'{"cmd": "ping"}\n')
        data = b""
        while not data.endswith(b"\n"):
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
        return json.loads(data) if data else None
    except (OSError, ValueError):
        return None
    finally:
        sock.close()


def run_service_rep(sandbox: Sandbox, rep: int, manifest: Path,
                    result: RunResult) -> ServiceRep | None:
    """Daemon up -> batch through the real CLI -> SIGTERM (not waited for)."""
    refs = references()
    svc = f"s{rep}"
    t0 = time.perf_counter()
    daemon_pid, _out, err = sandbox.spawn(
        [sys.executable, "-m", "repro", "serve", "--service-dir", svc,
         "--fleet", "1"], "serve")
    sock_path = sandbox.dir / svc / "service.sock"
    deadline = t0 + 30.0
    while True:
        reply = _ping(sock_path) if sock_path.exists() else None
        if reply is not None and reply.get("ok") and \
                reply["fleet"]["busy"] == 0:
            break
        if time.perf_counter() > deadline or not harness.group_pids(daemon_pid):
            result.attempted += 1
            result.fail([f"rep {rep}: daemon did not come up: "
                         f"{err.read_text(errors='replace')[-200:]}"])
            sandbox.sweep_group(daemon_pid)
            return None
        time.sleep(0.002)
    start_s = time.perf_counter() - t0

    report_path = sandbox.dir / f"report-{rep}.json"
    batch = sandbox.run(
        [sys.executable, "-m", "repro", "batch", manifest.name,
         "--service-dir", svc, "-o", report_path.name], "batch")
    # High-water RSS of daemon + worker, read while they are still up.
    rss = max([batch.peak_rss_mb]
              + [harness.vm_hwm_mb(p) for p in harness.group_pids(daemon_pid)])
    term_at = time.perf_counter()
    try:
        os.kill(daemon_pid, signal.SIGTERM)
    except ProcessLookupError:
        pass

    problems = []
    if batch.returncode != 0:
        problems.append(f"rep {rep}: batch exit code {batch.returncode}: "
                        f"{batch.stderr.strip()[-200:]}")
    if batch.leaked_pids:
        problems.append(f"rep {rep}: batch left {batch.leaked_pids}")
    try:
        report = json.loads(report_path.read_text())
        journal = [json.loads(line) for line in
                   (sandbox.dir / svc / "journal.ndjson").read_text().splitlines()
                   if line.strip()]
    except (OSError, ValueError) as exc:
        result.attempted += 1
        result.fail(problems + [f"rep {rep}: no report/journal: {exc}"])
        sandbox.reap(daemon_pid, timeout_s=30.0)
        sandbox.sweep_group(daemon_pid)
        return None
    result.attempted += 1  # the daemon's own lifecycle
    result.fail(problems)
    for job in report["jobs"]:
        result.attempted += 1
        result.fail(check_job(job, refs))

    submits = [r["job"]["client_t"] for r in journal if r["op"] == "submit"]
    dones = [r["pt"] for r in journal
             if r["op"] == "state" and r["state"] == "done"]
    tte = (max(dones) - min(submits)) if submits and dones else batch.wall_s
    result.setup.append(start_s)
    result.time_to_energy.append(tte)
    result.peak_rss.append(rss)
    return ServiceRep(daemon_pid, svc, start_s, tte, batch, report, journal,
                      term_at)


def reap_daemons(sandbox: Sandbox, reps: list[ServiceRep],
                 result: RunResult) -> list[float]:
    """Wait for every signalled daemon; returns SIGTERM -> exit seconds each."""
    teardowns = []
    for rep in reps:
        code, _cpu, _rss = sandbox.reap(rep.daemon_pid, timeout_s=30.0)
        teardowns.append(time.perf_counter() - rep.term_sent_at)
        problems = [] if code == 0 else [
            f"{rep.service_dir}: daemon exit code {code}"]
        if sandbox.sweep_group(rep.daemon_pid):
            problems.append(f"{rep.service_dir}: daemon left processes")
        if (sandbox.dir / rep.service_dir / "daemon.pid").exists():
            problems.append(f"{rep.service_dir}: pid file left behind")
        result.fail(problems)
    result.fail(sandbox.census("service teardown"))
    return teardowns


def run_service(sandbox: Sandbox, result: RunResult, seed: int,
                reps: int) -> None:
    manifest = sandbox.dir / "manifest.ndjson"
    write_manifest(manifest, seed)
    done = [run_service_rep(sandbox, rep, manifest, result)
            for rep in range(reps)]
    reap_daemons(sandbox, [rep for rep in done if rep is not None], result)


# -- one untraced run ---------------------------------------------------------


def run_end_to_end(w: Workload, seed: int, *, smoke: bool = False
                   ) -> tuple[RunResult, float]:
    """The untraced pass of one workload; returns (result, measured seconds)."""
    reps, probes = (SMOKE_REPS, SMOKE_PROBES) if smoke else (REPS, PROBES)
    sandbox = Sandbox(w.name)
    result = RunResult(w.name, seed)
    t0 = time.perf_counter()
    try:
        if w.kind == "direct":
            run_direct(w, sandbox, result, reps, probes)
        else:
            run_service(sandbox, result, seed, reps)
    finally:
        measured = time.perf_counter() - t0
        sandbox.close(keep=bool(result.failed))
    if len(result.time_to_energy) < reps or not result.setup:
        # Fewer samples than the floor is a failed run, never a
        # quieter-looking number.
        result.failed += 1
        result.problems.append(
            f"only {len(result.time_to_energy)} of {reps} repetitions measured")
    return result, measured
