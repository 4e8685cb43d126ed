"""Shared infrastructure for the three parallel Fock builders.

Each builder is configured with a *simulated* parallel geometry
(``nranks`` MPI ranks x ``nthreads`` OpenMP threads), executes the
paper's exact loop structure over that geometry, and returns the Fock
matrix together with execution statistics (work distribution, screening
counts, buffer flushes, communication volume, race reports).  The
matrices produced are identical — to reduction rounding — across all
three algorithms and any geometry; the test suite enforces this against
the dense reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from repro.chem.basis.basisset import BasisSet
from repro.core.quartets import (
    QuartetEngine,
    SharePlan,
    symmetrize_two_electron,
)
from repro.core.screening import DEFAULT_TAU, Screening
from repro.integrals.cache import QuartetCache
from repro.integrals.schwarz import schwarz_matrix
from repro.obs.events import get_event_log
from repro.obs.metrics import MetricsRegistry, get_metrics
from repro.obs.tracer import get_tracer
from repro.parallel.comm import SimComm, SimWorld
from repro.parallel.scheduler import SCHEDULE_NAMES, Scheduler, make_scheduler
from repro.parallel.shared_array import WriteTracker
from repro.resilience.errors import NonFiniteDensityError
from repro.resilience.faults import FaultPlan, corrupt_copy, resilient_grants

#: Scalar counters of one Fock build, in declaration order.
_SCALAR_FIELDS = (
    "quartets_computed",
    "quartets_screened",
    "fi_flushes",
    "fj_flushes",
    "reduce_bytes",
    "races",
    "writes_checked",
    "eri_cache_hits",
    "eri_cache_misses",
    "eri_cache_evictions",
)
_SERIES_FIELDS = ("per_rank_quartets", "per_thread_quartets")


def _counter_property(field: str) -> property:
    key = f"fock.{field}"

    def _get(self: "FockBuildStats") -> int:
        return self.metrics.counter(key).value

    def _set(self: "FockBuildStats", value: int) -> None:
        self.metrics.counter(key).set(value)

    return property(_get, _set, doc=f"Counter ``{key}`` of the build registry.")


def _series_property(field: str) -> property:
    key = f"fock.{field}"

    def _get(self: "FockBuildStats") -> list[int]:
        return self.metrics.series(key)

    def _set(self: "FockBuildStats", value: Sequence[int]) -> None:
        series = self.metrics.series(key)
        series[:] = list(value)

    return property(_get, _set, doc=f"Series ``{key}`` of the build registry.")


def _imbalance(values: Sequence[int]) -> float:
    if not values or sum(values) == 0:
        return 1.0
    arr = np.asarray(values, dtype=np.float64)
    mean = arr.mean()
    return float(arr.max() / mean) if mean > 0 else 1.0


class FockBuildStats:
    """Execution statistics of one Fock construction.

    A thin attribute view over a per-build
    :class:`~repro.obs.metrics.MetricsRegistry`: every counter
    (``quartets_computed``, ``fi_flushes``, ...) and per-rank/thread
    series lives in ``self.metrics`` under a ``fock.*`` name, so the
    same numbers are reachable both as plain attributes (as the
    builders and analyses always did) and as named metrics for the
    NDJSON/report exporters.
    """

    def __init__(
        self,
        algorithm: str,
        nranks: int,
        nthreads: int,
        quartets_computed: int = 0,
        quartets_screened: int = 0,
        per_rank_quartets: Sequence[int] | None = None,
        per_thread_quartets: Sequence[int] | None = None,
        fi_flushes: int = 0,
        fj_flushes: int = 0,
        reduce_bytes: int = 0,
        races: int = 0,
        writes_checked: int = 0,
        eri_cache_hits: int = 0,
        eri_cache_misses: int = 0,
        eri_cache_evictions: int = 0,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.algorithm = algorithm
        self.nranks = nranks
        self.nthreads = nthreads
        self.metrics = MetricsRegistry() if metrics is None else metrics
        self.quartets_computed = quartets_computed
        self.quartets_screened = quartets_screened
        self.fi_flushes = fi_flushes
        self.fj_flushes = fj_flushes
        self.reduce_bytes = reduce_bytes
        self.races = races
        self.writes_checked = writes_checked
        self.eri_cache_hits = eri_cache_hits
        self.eri_cache_misses = eri_cache_misses
        self.eri_cache_evictions = eri_cache_evictions
        self.per_rank_quartets = list(per_rank_quartets or [])
        self.per_thread_quartets = list(per_thread_quartets or [])

    quartets_computed = _counter_property("quartets_computed")
    quartets_screened = _counter_property("quartets_screened")
    fi_flushes = _counter_property("fi_flushes")
    fj_flushes = _counter_property("fj_flushes")
    reduce_bytes = _counter_property("reduce_bytes")
    races = _counter_property("races")
    writes_checked = _counter_property("writes_checked")
    eri_cache_hits = _counter_property("eri_cache_hits")
    eri_cache_misses = _counter_property("eri_cache_misses")
    eri_cache_evictions = _counter_property("eri_cache_evictions")
    per_rank_quartets = _series_property("per_rank_quartets")
    per_thread_quartets = _series_property("per_thread_quartets")

    @property
    def total_quartets(self) -> int:
        """Computed plus screened-out quartets (the full unique space)."""
        return self.quartets_computed + self.quartets_screened

    @property
    def eri_cache_hit_rate(self) -> float:
        """Quartet-cache hit rate of this build (0.0 with no cache)."""
        total = self.eri_cache_hits + self.eri_cache_misses
        return self.eri_cache_hits / total if total else 0.0

    @property
    def rank_imbalance(self) -> float:
        """max/mean quartets per rank (1.0 = perfectly balanced)."""
        return _imbalance(self.per_rank_quartets)

    @property
    def thread_imbalance(self) -> float:
        """max/mean quartets per thread (1.0 = perfectly balanced)."""
        return _imbalance(self.per_thread_quartets)

    def as_dict(self) -> dict:
        """JSON-ready flat view (geometry, counters, series, imbalances)."""
        out = {
            "algorithm": self.algorithm,
            "nranks": self.nranks,
            "nthreads": self.nthreads,
        }
        for field in _SCALAR_FIELDS:
            out[field] = getattr(self, field)
        for field in _SERIES_FIELDS:
            out[field] = list(getattr(self, field))
        out["rank_imbalance"] = self.rank_imbalance
        out["thread_imbalance"] = self.thread_imbalance
        out["eri_cache_hit_rate"] = self.eri_cache_hit_rate
        return out

    def _as_tuple(self) -> tuple:
        return (
            self.algorithm,
            self.nranks,
            self.nthreads,
            *(getattr(self, f) for f in _SCALAR_FIELDS),
            *(list(getattr(self, f)) for f in _SERIES_FIELDS),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FockBuildStats):
            return NotImplemented
        return self._as_tuple() == other._as_tuple()

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{f}={getattr(self, f)!r}"
            for f in (
                "algorithm", "nranks", "nthreads",
                *_SCALAR_FIELDS, *_SERIES_FIELDS,
            )
        )
        return f"FockBuildStats({fields})"


@dataclass
class RankBuildResult:
    """Outcome of one rank's share of a Fock build.

    The *rank program* of each algorithm (the per-rank SPMD body that
    both the deterministic sim backend and the real-process backend
    execute) returns one of these; the caller merges it into the
    build-level :class:`FockBuildStats`.  Keeping the record a plain
    picklable dataclass is what lets worker processes ship it back over
    a ``multiprocessing`` queue unchanged.
    """

    rank: int
    quartets_done: int = 0
    quartets_screened: int = 0
    per_thread_quartets: list[int] = field(default_factory=list)
    fi_flushes: int = 0
    fj_flushes: int = 0
    races: int = 0
    writes_checked: int = 0

    def as_dict(self) -> dict:
        """JSON/queue-ready flat view."""
        return {
            "rank": self.rank,
            "quartets_done": self.quartets_done,
            "quartets_screened": self.quartets_screened,
            "per_thread_quartets": list(self.per_thread_quartets),
            "fi_flushes": self.fi_flushes,
            "fj_flushes": self.fj_flushes,
            "races": self.races,
            "writes_checked": self.writes_checked,
        }

    @classmethod
    def from_dict(cls, rec: dict) -> "RankBuildResult":
        return cls(**rec)


class TaskPlan(NamedTuple):
    """What one DLB task does whatever the density.

    Schwarz screening and the basis decide which kets survive under a
    task, how the thread team splits them and every index vector of the
    digestion; the density only enters the contractions.  ``shares``
    holds, per thread, the size of its share of the task's thread-level
    loop and the :class:`~repro.core.quartets.SharePlan` of each slab it
    digests, in order.
    """

    screened: int
    shares: list[tuple[int, list[SharePlan]]]

    @property
    def nbytes(self) -> int:
        return sum(p.nbytes for _, plans in self.shares for p in plans)


class ParallelFockBuilderBase:
    """Common setup: engine, screening, simulated geometry.

    Parameters
    ----------
    basis:
        AO basis (carries the molecule).
    hcore:
        Core Hamiltonian to add to the two-electron part.
    nranks / nthreads:
        Simulated MPI x OpenMP geometry.
    screening:
        A prepared :class:`~repro.core.screening.Screening`; when
        omitted, the exact Schwarz matrix is computed.
    tau:
        Integral threshold used when ``screening`` is omitted.
    eri_cache:
        A prepared :class:`~repro.integrals.cache.QuartetCache` shared
        with the quartet engine; repeat SCF cycles then serve ERI slabs
        from memory (semi-direct SCF) and reuse the task plans of the
        first (:meth:`task_plan`).
    eri_cache_mb:
        Convenience knob: when ``eri_cache`` is omitted and this is a
        positive MB budget, a cache of that size is created.  ``None``
        (the default) disables caching — the build stays fully direct.
    schedule:
        Task-distribution strategy: ``dlb`` (the paper's dynamic
        counter, default) or ``static`` (LPT pre-partition weighted by
        :meth:`work_estimates`, zero counter traffic).
    dlb_policy:
        Grant policy of the simulated DDI counter (``round_robin`` /
        ``block``); only meaningful with ``schedule="dlb"``.
    thread_schedule / thread_chunk:
        OpenMP-style schedule of the thread-level loop.
    track_races:
        Enable the shared-write race detector (shared-Fock algorithm).
    fault_plan:
        Optional :class:`~repro.resilience.faults.FaultPlan`, validated
        against ``nranks`` at construction.  Kill events re-queue the
        dead rank's DLB grants to survivors (results stay bitwise
        identical to the fault-free build); corrupt events strike the
        rank's ``gsumf`` contribution on the wire, where the validating
        reduction detects them and requests a retransmission.
    validate_reductions:
        NaN/Inf-guard reduction contributions before merging (on by
        default); disabling it lets injected corruption propagate,
        which is how the downstream density guards are exercised.
    """

    algorithm_name = "base"

    def __init__(
        self,
        basis: BasisSet,
        hcore: np.ndarray,
        *,
        nranks: int = 1,
        nthreads: int = 1,
        screening: Screening | None = None,
        tau: float = DEFAULT_TAU,
        eri_cache: QuartetCache | None = None,
        eri_cache_mb: float | None = None,
        schedule: str = "dlb",
        dlb_policy: str = "round_robin",
        thread_schedule: str = "dynamic",
        thread_chunk: int = 1,
        track_races: bool = False,
        fault_plan: FaultPlan | None = None,
        validate_reductions: bool = True,
    ) -> None:
        if nranks < 1 or nthreads < 1:
            raise ValueError("nranks and nthreads must be positive")
        if fault_plan is not None:
            fault_plan.validate_for(nranks)
        self.fault_plan = fault_plan
        self.validate_reductions = validate_reductions
        self._build_index = 0
        self.basis = basis
        self.hcore = np.asarray(hcore, dtype=np.float64)
        self.nranks = nranks
        self.nthreads = nthreads
        if eri_cache is None and eri_cache_mb is not None and eri_cache_mb > 0:
            eri_cache = QuartetCache.from_mb(eri_cache_mb)
        self.eri_cache = eri_cache
        self.engine = QuartetEngine(basis, cache=eri_cache)
        if screening is None:
            screening = Screening(schwarz_matrix(basis), tau)
        self.screening = screening
        if schedule not in SCHEDULE_NAMES:
            raise ValueError(
                f"unknown schedule {schedule!r}; choose from {SCHEDULE_NAMES}"
            )
        self.schedule = schedule
        self.dlb_policy = dlb_policy
        self.thread_schedule = thread_schedule
        self.thread_chunk = thread_chunk
        self.track_races = track_races
        self.nbf = basis.nbf
        self.nshells = basis.nshells
        # Task plans of the screening instance last planned for.
        self._plans: dict[int, TaskPlan] = {}
        self._plans_for: Screening | None = None
        self._plan_bytes = 0

    # Subclasses implement the backend-facing rank-program interface:
    #
    #   dlb_ntasks()                      size of the DLB index space
    #   work_estimates()                  per-task costs (static) or None
    #   plan_task(task)                   the task's TaskPlan, from scratch
    #   rank_program(rank, grants, density, W, *, barrier=None)
    #                                     one rank's share of the build;
    #                                     accumulates into W in place and
    #                                     returns a RankBuildResult
    #
    # The sim path (__call__, via _sim_build) and the real-process
    # backend both execute rank_program, so "same rank program on real
    # OS processes" is a structural guarantee, not a convention.

    def dlb_ntasks(self) -> int:
        """Size of the global DLB index space of one build."""
        raise NotImplementedError

    def work_estimates(self) -> np.ndarray | None:
        """Per-task work estimates weighting ``schedule="static"`` (or ``None``)."""
        return None

    @property
    def accumulator_shape(self) -> tuple[int, ...]:
        """Shape of the per-rank two-electron accumulator ``W``."""
        return (self.nbf, self.nbf)

    def make_scheduler(self) -> Scheduler:
        """The build's grant scheduler under the configured strategy."""
        costs = self.work_estimates() if self.schedule == "static" else None
        return make_scheduler(
            self.schedule, self.dlb_ntasks(), self.nranks,
            costs=costs, policy=self.dlb_policy,
        )

    def rank_program(
        self,
        rank: int,
        grants: Iterator[int],
        density: np.ndarray,
        W: np.ndarray,
        *,
        barrier: Callable[[], None] | None = None,
    ) -> RankBuildResult:
        """Execute one rank's share of the build; accumulate into ``W``."""
        raise NotImplementedError

    def plan_task(self, task: int) -> TaskPlan:
        """Screen, partition and index DLB task ``task`` from scratch."""
        raise NotImplementedError

    def task_plan(self, task: int) -> TaskPlan:
        """The plan of DLB task ``task``, planned at most once per cache.

        A semi-direct build stores integrals to stop recomputing what
        does not depend on the density, and the plan is the rest of
        that: with a cache attached it is kept from the build that
        first draws the task (on whichever rank) and served to every
        later one, for as long as ``self.screening`` is the *instance*
        it was planned under — a ``with_tau`` clone plans afresh — and
        until the index vectors kept reach the cache's own byte budget.
        Direct SCF keeps nothing: it must not grow O(quartets) state.
        """
        cache = self.eri_cache
        if cache is None:
            return self.plan_task(task)
        if self._plans_for is not self.screening:
            self._plans, self._plans_for = {}, self.screening
            self._plan_bytes = 0
        plan = self._plans.get(task)
        if plan is None:
            plan = self.plan_task(task)
            if self._plan_bytes < cache.max_bytes:
                self._plans[task] = plan
                self._plan_bytes += plan.nbytes
        return plan

    def assemble(self, W: np.ndarray) -> np.ndarray:
        """Full Fock matrix from the reduced two-electron accumulator."""
        return self.hcore + symmetrize_two_electron(W)

    def __call__(self, density: np.ndarray) -> tuple[np.ndarray, FockBuildStats]:
        """Build the Fock matrix on the sim runtime: ``(fock, stats)``."""
        stats = self._new_stats()
        self._check_density(density)
        return self.assemble(self._sim_build(density, stats)), stats

    def _sim_build(self, density: np.ndarray, stats: FockBuildStats) -> np.ndarray:
        """One build on the sim runtime: every rank's program, then ``gsumf``.

        Fills ``stats`` and returns the reduced accumulator ``W``.
        """
        tracer = get_tracer()
        world = SimWorld(self.nranks)
        dlb = self.make_scheduler()
        results: list[np.ndarray] = []

        def rank_main(comm: SimComm) -> None:
            rank = comm.rank
            W = np.zeros(self.accumulator_shape)
            rr = self.rank_program(
                rank, self._grants(dlb, rank), density, W,
                barrier=comm.barrier,
            )
            self._merge_rank_result(stats, rr)
            stats.per_rank_quartets.append(rr.quartets_done)
            with tracer.span("fock/gsumf", rank=rank):
                self._resilient_gsumf(comm, W)
            results.append(W)

        with tracer.span(
            "fock/build", algorithm=self.algorithm_name,
            nranks=self.nranks, nthreads=self.nthreads,
        ):
            world.execute(rank_main)
        stats.quartets_computed = sum(stats.per_rank_quartets)
        stats.reduce_bytes = world.stats.reduce_bytes
        self._capture_cache_stats(stats)
        self._record_global(stats)
        return results[0]

    @staticmethod
    def _merge_rank_result(stats: FockBuildStats, rr: RankBuildResult) -> None:
        """Fold one rank's :class:`RankBuildResult` into the build stats."""
        stats.quartets_screened += rr.quartets_screened
        stats.fi_flushes += rr.fi_flushes
        stats.fj_flushes += rr.fj_flushes
        stats.races += rr.races
        stats.writes_checked += rr.writes_checked
        if rr.per_thread_quartets:
            counts = stats.per_thread_quartets
            if not counts:
                counts = [0] * len(rr.per_thread_quartets)
            stats.per_thread_quartets = [
                a + b for a, b in zip(counts, rr.per_thread_quartets)
            ]

    def _check_density(self, density: np.ndarray, label: str = "density") -> None:
        """Fail fast on NaN/Inf input instead of iterating on garbage.

        The diagnostic names the Fock build (= SCF cycle for one build
        per cycle) so the first offending cycle is identifiable.
        """
        if not np.all(np.isfinite(density)):
            raise NonFiniteDensityError(
                f"Fock build {self._build_index}: input {label} contains "
                f"{int(np.sum(~np.isfinite(density)))} non-finite "
                "value(s); refusing to build from garbage"
            )

    def _grants(self, dlb: Scheduler, rank: int) -> Iterator[int]:
        """Rank's DLB grants, with fault-plan kill/straggler semantics."""
        return resilient_grants(dlb, rank, self.fault_plan, self._build_index)

    def _resilient_gsumf(self, comm: SimComm, W: np.ndarray) -> None:
        """``gsumf`` with wire-corruption injection and NaN/Inf guard.

        A scheduled corrupt event strikes the wire image of ``W``.  With
        reduction validation on (default), the guard detects the
        non-finite payload before merging and requests retransmission of
        the pristine buffer the sender still holds — the reduced result
        is untouched.  With validation off, the corruption is merged
        in-place and propagates (for exercising downstream guards).
        """
        plan = self.fault_plan
        if plan is not None:
            event = plan.corruption(comm.rank, self._build_index)
            if event is not None:
                registry = get_metrics()
                if registry is not None:
                    registry.counter("resilience.corrupt_injected").inc()
                log = get_event_log()
                if log is not None:
                    log.emit(
                        "fault.corrupt", rank=comm.rank,
                        cycle=self._build_index, payload=event.payload,
                        detected=self.validate_reductions,
                        retransmitted=self.validate_reductions,
                    )
                if self.validate_reductions:
                    if registry is not None:
                        registry.counter(
                            "resilience.corrupt_detected"
                        ).inc()
                        registry.counter(
                            "resilience.retransmissions", rank=comm.rank
                        ).inc()
                else:
                    W[...] = corrupt_copy(W, event.payload)
        if not self.validate_reductions and not np.all(np.isfinite(W)):
            # Unvalidated fabric: the poisoned buffer joins the sum.
            self._world_gsumf_unchecked(comm, W)
            return
        comm.gsumf(W)

    @staticmethod
    def _world_gsumf_unchecked(comm: SimComm, W: np.ndarray) -> None:
        comm.stats.reduce_calls += 1
        comm.stats.reduce_bytes += W.nbytes
        comm._world._register_reduction(comm.rank, W)

    def _new_stats(self) -> FockBuildStats:
        self._build_index += 1
        cache = self.eri_cache
        self._cache_mark = (
            (cache.hits, cache.misses, cache.evictions)
            if cache is not None
            else (0, 0, 0)
        )
        return FockBuildStats(
            algorithm=self.algorithm_name,
            nranks=self.nranks,
            nthreads=self.nthreads,
        )

    def _capture_cache_stats(self, stats: FockBuildStats) -> None:
        """Record this build's quartet-cache deltas onto ``stats``."""
        cache = self.eri_cache
        if cache is None:
            return
        h0, m0, e0 = self._cache_mark
        stats.eri_cache_hits = cache.hits - h0
        stats.eri_cache_misses = cache.misses - m0
        stats.eri_cache_evictions = cache.evictions - e0

    def _new_tracker(self) -> WriteTracker | None:
        if not self.track_races:
            return None
        return WriteTracker(self.nbf * self.nbf, strict=False)

    def _record_global(self, stats: FockBuildStats) -> None:
        """Mirror final per-build counters into the global registry."""
        registry = get_metrics()
        if registry is None:
            return
        algo = self.algorithm_name
        registry.counter("fock.builds", algorithm=algo).inc()
        for field in _SCALAR_FIELDS:
            registry.counter(f"fock.{field}", algorithm=algo).inc(
                getattr(stats, field)
            )
