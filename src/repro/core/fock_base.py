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
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from repro.chem.basis.basisset import BasisSet
from repro.config import SCHEDULES
from repro.core.indexing import npairs
from repro.core.quartets import (
    BraBatch,
    Families,
    QuartetEngine,
    SharePlan,
    symmetrize_two_electron,
)
from repro.core.screening import DEFAULT_TAU, Screening
from repro.integrals.basis_setup import basis_setup
from repro.integrals.cache import DEFAULT_CACHE_BYTES, QuartetCache
from repro.integrals.eri import MAX_BATCH_DOUBLES
from repro.obs.events import get_event_log
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer
from repro.parallel.comm import SimComm, SimWorld
from repro.parallel.reduction import publish_flushes
from repro.parallel.scheduler import Scheduler, make_scheduler
from repro.parallel.shared_array import WriteTracker
from repro.resilience.errors import (
    CorruptContributionError,
    NonFiniteDensityError,
)
from repro.resilience.faults import FaultKind, FaultPlan, corrupt_copy

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


def _imbalance(values: Sequence[int]) -> float:
    if not values or sum(values) == 0:
        return 1.0
    arr = np.asarray(values, dtype=np.float64)
    mean = arr.mean()
    return float(arr.max() / mean) if mean > 0 else 1.0


@dataclass
class FockBuildStats:
    """Execution statistics of one Fock construction.

    Plain counters (``quartets_computed``, ``fi_flushes``, ...) and
    per-rank/thread series that the build fills as it goes; the builder
    publishes them to the installed metrics registry once, when the
    build ends (:meth:`ParallelFockBuilderBase._record_global`), and
    :meth:`snapshot` names them the way the registry does.
    """

    algorithm: str
    nranks: int
    nthreads: int
    quartets_computed: int = 0
    quartets_screened: int = 0
    per_rank_quartets: list[int] = field(default_factory=list)
    per_thread_quartets: list[int] = field(default_factory=list)
    fi_flushes: int = 0
    fj_flushes: int = 0
    reduce_bytes: int = 0
    races: int = 0
    writes_checked: int = 0
    eri_cache_hits: int = 0
    eri_cache_misses: int = 0
    eri_cache_evictions: int = 0

    def __post_init__(self) -> None:
        self.per_rank_quartets = list(self.per_rank_quartets)
        self.per_thread_quartets = list(self.per_thread_quartets)

    @classmethod
    def merged(cls, parts: Sequence["FockBuildStats"]) -> "FockBuildStats":
        """One build's stats from its ranks' partial stats, folded in
        rank order: counters summed, ``per_rank_quartets`` each rank's
        computed quartets, ``per_thread_quartets`` summed thread by
        thread."""
        head = parts[0]
        return cls(
            head.algorithm, head.nranks, head.nthreads,
            per_rank_quartets=[p.quartets_computed for p in parts],
            per_thread_quartets=[
                sum(n) for n in zip(*(p.per_thread_quartets for p in parts))
            ],
            **{name: sum(getattr(p, name) for p in parts)
               for name in _SCALAR_FIELDS},
        )

    def snapshot(self) -> dict[str, int | list[int]]:
        """The counters and series as ``{"fock.<field>": value}``,
        key-sorted — the shape of a registry snapshot."""
        return {
            f"fock.{name}": (list(getattr(self, name))
                             if name in _SERIES_FIELDS else getattr(self, name))
            for name in sorted((*_SCALAR_FIELDS, *_SERIES_FIELDS))
        }

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


class TaskPlan(NamedTuple):
    """What one DLB task does whatever the density.

    Schwarz screening and the basis decide which kets survive under a
    task, how the thread team splits them and every index vector of the
    digestion; the density only enters the contractions.  ``shares``
    holds, per thread, the :class:`~repro.core.quartets.SharePlan` of
    each slab it digests, in order.  ``doubles`` estimates what
    digesting the task allocates: slabs plus what their columns add.
    """

    screened: int
    shares: list[list[SharePlan]]
    doubles: int = 0

    @classmethod
    def of(cls, screened: int, shares: list[list[SharePlan]]) -> "TaskPlan":
        doubles = 0
        for plans in shares:
            for plan in plans:
                ni, nj = plan.shape
                doubles += plan.fac.size * (ni * nj + 4 * (ni + nj) + 2)
        return cls(screened, shares, doubles)

    @property
    def nbytes(self) -> int:
        return sum(p.nbytes for plans in self.shares for p in plans)


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
        omitted, the exact Schwarz matrix of the basis' set-up memo
        (:func:`~repro.integrals.basis_setup.basis_setup`) is used.
    tau:
        Integral threshold used when ``screening`` is omitted.
    eri_cache:
        A prepared :class:`~repro.integrals.cache.QuartetCache` shared
        with the quartet engine; repeat SCF cycles then serve ERI slabs
        from memory (semi-direct SCF).  Its byte budget also bounds the
        task plans kept (:meth:`task_plan`).
    eri_cache_mb:
        Convenience knob: when ``eri_cache`` is omitted and this is a
        positive MB budget, a cache of that size is created.  ``None``
        (the default) disables caching — the build stays fully direct.
    schedule:
        Task-distribution strategy: ``dlb`` (the paper's dynamic
        counter, default) or ``static`` (LPT pre-partition weighted by
        :meth:`work_estimates`, zero counter traffic).
    thread_schedule:
        OpenMP-style schedule of the thread-level loop.
    track_races:
        Enable the shared-write race detector (shared-Fock algorithm).
    fault_plan:
        Optional :class:`~repro.resilience.faults.FaultPlan`, validated
        against ``nranks`` at construction.  The build head
        (:meth:`_start_build`) resolves a build's events once, in the
        parent, on either backend.  A killed rank's slot is zeroed and
        its grants replayed into it (:meth:`_replay`, results bitwise
        identical to the fault-free build); a corrupt event hands the
        validating ``gsumf`` a corrupted copy of the rank's
        contribution, which it rejects before the clean one joins
        (:meth:`_reduce`).
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
        thread_schedule: str = "dynamic",
        track_races: bool = False,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if nranks < 1 or nthreads < 1:
            raise ValueError("nranks and nthreads must be positive")
        if fault_plan is not None:
            fault_plan.validate_for(nranks)
        self.fault_plan = fault_plan
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
            screening = Screening(basis_setup(basis).Q, tau)
        self.screening = screening
        if schedule not in SCHEDULES:
            raise ValueError(
                f"unknown schedule {schedule!r}; choose from {SCHEDULES}"
            )
        self.schedule = schedule
        self.thread_schedule = thread_schedule
        self.track_races = track_races
        self.nbf = basis.nbf
        self.nshells = basis.nshells
        # Task plans of the screening instance last planned for.
        self._plans: dict[int, TaskPlan] = {}
        self._prepared: dict[tuple, "Layout"] = {}
        self._plans_for: Screening | None = None
        self._plan_bytes = 0
        self._plan_last: TaskPlan | None = None
        # Global-registry counters of _record_global, and their registry.
        self._counters: list = []
        self._counters_of = None

    # Subclasses implement the backend-facing rank-program interface
    # (the first two default to the bra-pair task space):
    #
    #   dlb_ntasks()                      size of the DLB index space
    #   work_estimates()                  per-task costs (static)
    #   plan_task(task)                   the task's TaskPlan, from scratch
    #   rank_program(rank, blocks, density, W, *, barrier=None)
    #                                     one rank's share of the build,
    #                                     its grants in blocks (lists of
    #                                     task indices); accumulates into
    #                                     W in place and returns the
    #                                     rank's partial FockBuildStats
    #
    # A rank program walks rank_runs and says only where a run's
    # families go.  The sim path (__call__) and the real-process backend
    # both execute rank_program between one build head (_start_build,
    # which also decides the build's faults) and one tail
    # (_finish_build), replay a killed rank with _replay and reduce
    # through _reduce, so "same rank program on real OS processes" is a
    # structural guarantee, not a convention.

    #: The densities a build takes, in order, as its errors name them.
    density_labels: tuple[str, ...] = ("density",)

    #: Called before each run a rank program digests: a process worker's
    #: rate-limited heartbeat.  The sim runtime sets none.
    on_run: Callable[[], None] | None = None

    def dlb_ntasks(self) -> int:
        """Size of the global DLB index space of one build: the combined
        ``(i, j)`` bra pairs."""
        return npairs(self.nshells)

    def work_estimates(self) -> np.ndarray:
        """Per-task work estimates weighting ``schedule="static"``: the
        Schwarz-screened surviving-quartet count of each bra pair."""
        return self.screening.pair_survivor_counts()

    @property
    def accumulator_shape(self) -> tuple[int, ...]:
        """Shape of the per-rank two-electron accumulator ``W``."""
        return (self.nbf, self.nbf)

    def make_scheduler(self) -> Scheduler:
        """The build's grant scheduler under the configured strategy."""
        costs = self.work_estimates() if self.schedule == "static" else None
        return make_scheduler(
            self.schedule, self.dlb_ntasks(), self.nranks, costs=costs
        )

    def rank_program(
        self,
        rank: int,
        blocks: Iterator[list[int]],
        density: np.ndarray,
        W: np.ndarray,
        *,
        barrier: Callable[[], None] | None = None,
    ) -> FockBuildStats:
        """Execute one rank's share of the build; accumulate into ``W``.

        ``blocks`` are the rank's grants, each a list of task indices
        handed over at once; how the grants are blocked never changes a
        bit of ``W``.  Returns the rank's partial stats.
        """
        raise NotImplementedError

    def admit(
        self,
        task: int,
        part: FockBuildStats,
        barrier: Callable[[], None] | None,
    ) -> bool:
        """Whether a rank plans and digests ``task``, drawn from its
        grants: an algorithm's per-draw step before planning (a barrier,
        or a prescreen that counts what it skips on ``part``)."""
        return True

    def rank_runs(
        self,
        blocks: Iterator[list[int]],
        part: FockBuildStats,
        barrier: Callable[[], None] | None = None,
    ) -> Iterator[tuple[list[tuple[int, TaskPlan]], list["Layout"]]]:
        """A rank's admitted tasks, a run at a time, with each thread's
        :class:`Layout` of the run: each grant block's tasks planned
        (:meth:`task_plan`) and cut into runs under the digestion budget
        (:func:`runs_under_budget`).  Counts each run's screened and
        computed quartets, in total and per thread, on ``part``."""
        for block in blocks:
            tasks = [
                (task, self.task_plan(task)) for task in block
                if self.admit(task, part, barrier)
            ]
            for run in runs_under_budget(tasks):
                if self.on_run is not None:
                    self.on_run()
                layouts = [self._layout(run, t) for t in range(self.nthreads)]
                part.quartets_screened += sum(plan.screened for _, plan in run)
                for t, layout in enumerate(layouts):
                    part.quartets_computed += layout.quartets
                    part.per_thread_quartets[t] += layout.quartets
                yield run, layouts

    def plan_task(self, task: int) -> TaskPlan:
        """Screen, partition and index DLB task ``task`` from scratch."""
        raise NotImplementedError

    def task_plan(self, task: int) -> TaskPlan:
        """The plan of DLB task ``task``, planned at most once.

        Which kets survive under a task, how the thread team splits
        them, every index vector of their digestion and, for direct SCF,
        the kernel's schedule of each share (built when the share is
        first evaluated) do not depend on the density.  So the plan is
        kept from the build that first draws the task (on whichever
        rank) and served to every later one, direct or semi-direct
        alike, for as long as ``self.screening`` is the *instance* it
        was planned under — another ``Screening`` plans afresh — and
        until the plans kept, schedules included, reach a byte budget:
        the cache's own when one is attached, else
        :data:`~repro.integrals.cache.DEFAULT_CACHE_BYTES` (the 64 MB
        ``eri_cache_mb`` defaults to).
        """
        if self._plans_for is not self.screening:
            self._plans, self._prepared = {}, {}
            self._plans_for = self.screening
            self._plan_bytes, self._plan_last = 0, None
        plan = self._plans.get(task)
        if plan is None:
            plan = self.plan_task(task)
            # Schedules join a plan when its shares are first evaluated,
            # after it is kept: the plan kept last is counted now.
            if self._plan_last is not None:
                self._plan_bytes += self._plan_last.nbytes
                self._plan_last = None
            if self._plan_bytes < self._plan_budget:
                self._plans[task] = self._plan_last = plan
        return plan

    @property
    def _plan_budget(self) -> int:
        cache = self.eri_cache
        return DEFAULT_CACHE_BYTES if cache is None else cache.max_bytes

    def _layout(self, run: list[tuple[int, TaskPlan]], t: int) -> "Layout":
        """The density-independent :class:`Layout` of thread ``t``'s
        plans in ``run``, built the first time the run comes up and kept
        beside the task plans, under their byte budget and for their
        ``Screening``: a rank's runs are the same build after build."""
        key = (tuple(task for task, _ in run), t)
        layout = self._prepared.get(key)
        if layout is None:
            layout = Layout.of(self.engine, [
                p for _, plan in run if plan.shares for p in plan.shares[t]
            ], *self._target(t))
            if self._plan_bytes < self._plan_budget:
                self._prepared[key] = layout
                self._plan_bytes += layout.nbytes
        return layout

    def _target(self, t: int) -> tuple:
        """Where thread ``t``'s families go (``BraBatch.targets``): a
        flat Fock replica, one ``(nbf, nbf)`` block per channel, every
        plan's blocks at their own columns, ``(k, l)`` elements too."""
        n = self.nbf
        return n, n * n, int(np.prod(self.accumulator_shape)) // (n * n)

    def _add_to_replica(
        self,
        layout: "Layout",
        d_coulomb: np.ndarray,
        d_exchange: np.ndarray,
        target: np.ndarray,
    ) -> None:
        """Digest ``layout`` and add every plan's six families into the
        flat Fock replica ``target``, all at once in program order."""
        layout.apply(layout.digest(self.engine, d_coulomb, d_exchange), target)

    def assemble(self, W: np.ndarray) -> np.ndarray:
        """Full Fock matrix from the reduced two-electron accumulator."""
        return self.hcore + symmetrize_two_electron(W)

    def __call__(self, *densities: np.ndarray) -> tuple:
        """Build on the sim runtime: every rank's program, a killed
        rank's replayed into its slot, then ``gsumf``.  ``(fock,
        stats)``, or ``(F_alpha, F_beta, stats)`` from a UHF builder's
        spin pair."""
        density = self._start_build(densities)
        tracer = get_tracer()
        world = SimWorld(self.nranks)
        dlb = self.make_scheduler()
        reduced: list[np.ndarray] = []

        def rank_main(comm: SimComm) -> FockBuildStats:
            rank = comm.rank
            W = np.zeros(self.accumulator_shape)
            blocks = list(self._grants(dlb, rank))
            kill_after, _ = self._orders(rank)
            part = self.rank_program(
                rank, _cut(blocks, kill_after), density, W,
                barrier=comm.barrier,
            )
            # A rank that reaches its kill point dies there, after its
            # last task too, as a process worker dies at its next claim.
            if kill_after is not None and kill_after <= sum(map(len, blocks)):
                tasks = [task for block in blocks for task in block]
                part = self._replay(rank, tasks, density, W)
            with tracer.span("fock/gsumf", rank=rank):
                self._reduce(comm, W)
            reduced.append(W)
            return part

        with tracer.span(
            "fock/build", algorithm=self.algorithm_name,
            nranks=self.nranks, nthreads=self.nthreads,
        ):
            parts = world.execute(rank_main)
        return self._finish_build(reduced[0], parts, world.stats.reduce_bytes)

    def _start_build(self, densities: Sequence[np.ndarray]) -> np.ndarray:
        """A build's head on either backend: count the build, mark the
        quartet cache, refuse a non-finite density naming it, decide the
        build's faults (:meth:`_resolve_faults`) and stack the densities
        into the accumulator's shape."""
        self._build_index += 1
        cache = self.eri_cache
        if cache is not None:
            self._cache_mark = (cache.hits, cache.misses, cache.evictions)
        for density, label in zip(densities, self.density_labels, strict=True):
            # Fail fast instead of iterating on garbage, naming the
            # build (= SCF cycle) so the first offending one shows.
            if not np.all(np.isfinite(density)):
                raise NonFiniteDensityError(
                    f"Fock build {self._build_index}: input {label} "
                    f"contains {int(np.sum(~np.isfinite(density)))} "
                    "non-finite value(s); refusing to build from garbage"
                )
        self._faults = self._resolve_faults()
        return np.reshape(densities, self.accumulator_shape)

    def _resolve_faults(self) -> dict:
        """This build's fault events, keyed on ``(kind, rank)``, looked up
        once, in the parent.  A delay is metered and logged here, a kill
        by :meth:`_replay`, a corruption by :meth:`_reduce`."""
        plan = self.fault_plan
        faults = {} if plan is None else plan.take(self._build_index)
        registry, log = get_metrics(), get_event_log()
        for (kind, rank), ev in faults.items():
            if kind is not FaultKind.DELAY:
                continue
            if registry is not None:
                registry.counter("resilience.stragglers").inc()
                registry.histogram("resilience.straggler_factor").observe(
                    ev.factor)
            if log is not None:
                log.emit("fault.delay", rank=rank, cycle=self._build_index,
                         factor=ev.factor)
        return faults

    def _orders(self, rank: int) -> tuple[int | None, float]:
        """What ``rank`` carries out in this build: the tasks it completes
        before it dies (``None``: it lives) and its slowdown (1.0)."""
        kill = self._faults.get((FaultKind.KILL, rank))
        delay = self._faults.get((FaultKind.DELAY, rank))
        return (None if kill is None else kill.after,
                1.0 if delay is None else delay.factor)

    def _rank_stats(self) -> FockBuildStats:
        """A rank program's partial stats, every count at zero."""
        return FockBuildStats(
            self.algorithm_name, self.nranks, self.nthreads,
            per_thread_quartets=[0] * self.nthreads,
        )

    def _finish_build(
        self, W: np.ndarray, parts: Sequence[FockBuildStats], reduce_bytes: int
    ) -> tuple:
        """A build's tail on either backend: the ranks' partial stats
        folded in rank order, the bytes reduced and the build's
        quartet-cache deltas recorded, the registry told once; returns
        the Fock matrices of the reduced ``W`` and the stats, as
        :meth:`__call__` does."""
        stats = FockBuildStats.merged(parts)
        stats.reduce_bytes = reduce_bytes
        cache = self.eri_cache
        if cache is not None:
            h0, m0, e0 = self._cache_mark
            stats.eri_cache_hits = cache.hits - h0
            stats.eri_cache_misses = cache.misses - m0
            stats.eri_cache_evictions = cache.evictions - e0
        self._record_global(stats)
        focks = self.assemble(W)
        return (*focks, stats) if isinstance(focks, tuple) else (focks, stats)

    def _grants(self, dlb: Scheduler, rank: int) -> Iterator[list[int]]:
        """Rank's grants as one block, its whole queue."""
        yield list(dlb.iter_rank(rank))

    def _replay(
        self,
        rank: int,
        tasks: list[int],
        density: np.ndarray,
        W: np.ndarray,
        **fields,
    ) -> FockBuildStats:
        """Redo killed ``rank``'s share: zero its slot ``W`` and run its
        program on ``tasks``, its grants in grant order, as one block.
        Whatever the killed attempt left in ``W`` (direct writes,
        unflushed buffers, unreduced thread Focks) is discarded, so the
        slot holds, bit for bit, what a live rank would have added.
        Returns the stats that replace the killed attempt's; counts the
        failure and logs one ``fault.kill`` record with ``fields``."""
        registry = get_metrics()
        if registry is not None:
            registry.counter("resilience.rank_failures").inc()
            registry.counter(
                "resilience.tasks_replayed", rank=rank
            ).inc(len(tasks))
        log = get_event_log()
        if log is not None:
            log.emit(
                "fault.kill", rank=rank, cycle=self._build_index,
                replayed=len(tasks), **fields,
            )
        W[...] = 0.0
        return self.rank_program(rank, iter([tasks]), density, W)

    def _reduce(self, comm: SimComm, W: np.ndarray) -> None:
        """``gsumf(W)``, after the wire copy a corrupt event strikes.

        A corrupt event on this rank hands the validating ``gsumf`` a
        corrupted copy of ``W``; it raises
        :class:`~repro.resilience.errors.CorruptContributionError`
        before registering anything, and the pristine ``W`` the sender
        still holds is sent again, so the reduced result is untouched.
        """
        event = self._faults.get((FaultKind.CORRUPT, comm.rank))
        if event is not None:
            registry = get_metrics()
            if registry is not None:
                registry.counter("resilience.corrupt_injected").inc()
            try:
                comm.gsumf(corrupt_copy(W, event.payload))
            except CorruptContributionError:
                if registry is not None:
                    registry.counter("resilience.corrupt_detected").inc()
                    registry.counter(
                        "resilience.retransmissions", rank=comm.rank
                    ).inc()
                log = get_event_log()
                if log is not None:
                    log.emit(
                        "fault.corrupt", rank=comm.rank,
                        cycle=self._build_index, payload=event.payload,
                        detected=True, retransmitted=True,
                    )
        comm.gsumf(W)

    def _new_tracker(self) -> WriteTracker | None:
        if not self.track_races:
            return None
        return WriteTracker(self.nbf * self.nbf, strict=False)

    def _record_global(self, stats: FockBuildStats) -> None:
        """Publish the build's counters to the installed registry, once
        per build."""
        registry = get_metrics()
        if registry is None:
            return
        if self._counters_of is not registry:
            # Looked up on the first build under a registry, kept after.
            algo = self.algorithm_name
            self._counters = [
                registry.counter(f"fock.{field}", algorithm=algo)
                for field in ("builds", *_SCALAR_FIELDS)
            ]
            self._counters_of = registry
        builds, *counters = self._counters
        builds.inc()
        for counter, field in zip(counters, _SCALAR_FIELDS):
            counter.inc(getattr(stats, field))
        publish_flushes(
            self.nbf, self.nthreads, stats.fi_flushes + stats.fj_flushes,
            registry,
        )


def _cut(blocks: list[list[int]], n: int | None) -> Iterator[list[int]]:
    """``blocks`` up to their first ``n`` tasks (all of them for ``None``):
    the grants a rank killed after ``n`` tasks completes."""
    for block in blocks:
        if n is not None:
            if n <= 0:
                return
            block, n = block[:n], n - len(block)
        yield block


def runs_under_budget(
    items: Iterable[tuple[int, TaskPlan]],
) -> Iterator[list[tuple[int, TaskPlan]]]:
    """Cut ``(task, plan)`` pairs, in order, into runs whose digestion
    fits :data:`~repro.integrals.eri.MAX_BATCH_DOUBLES` (a task over it
    alone is a run of its own)."""
    run: list = []
    total = 0
    for task, plan in items:
        if run and total + plan.doubles > MAX_BATCH_DOUBLES:
            yield run
            run, total = [], 0
        run.append((task, plan))
        total += plan.doubles
    if run:
        yield run


class Layout(NamedTuple):
    """One thread's plans of a run, grouped by bra shape: one
    :class:`~repro.core.quartets.BraBatch` a shape, and per plan, in
    program order, its batch and its position there (``order``);
    ``index`` (see :meth:`of`) is where every term the plans add goes,
    plan ``q`` of the program order at ``index[ends[q]:ends[q + 1]]``."""

    batches: list[BraBatch]
    order: np.ndarray
    quartets: int
    index: np.ndarray
    ends: np.ndarray

    @classmethod
    def of(
        cls, engine: QuartetEngine, plans: list[SharePlan], *target
    ) -> "Layout":
        """Group ``plans`` (program order) by bra shape, and index their
        application, plan after plan in program order, into the flat
        target that :meth:`~repro.core.quartets.BraBatch.targets` is
        told of by ``target``."""
        index: dict[tuple[int, int], int] = {}
        groups: list[list[SharePlan]] = []
        order = []
        for plan in plans:
            g = index.setdefault(plan.shape, len(groups))
            if g == len(groups):
                groups.append([])
            order.append((g, len(groups[g])))
            groups[g].append(plan)
        batches = [engine.bra_batch(group) for group in groups]
        targets = [batch.targets(*target) for batch in batches]
        pieces = [
            (targets[g][0][p], targets[g][1][batches[g].columns(p)])
            for g, p in order
        ]
        return cls(
            batches,
            np.array(order, dtype=np.int64).reshape(-1, 2),
            sum(p.kls.size for p in plans),
            np.concatenate(
                [np.empty(0, np.int64), *(a for pair in pieces for a in pair)],
                axis=None, dtype=np.int32,
            ),
            np.cumsum([0, *(a.size + b.size for a, b in pieces)]),
        )

    @property
    def nbytes(self) -> int:
        return (
            self.order.nbytes + self.index.nbytes + self.ends.nbytes
            + sum(b.nbytes for b in self.batches)
        )

    def digest(
        self, engine: QuartetEngine, d_coulomb: np.ndarray,
        d_exchange: np.ndarray,
    ) -> list[tuple[Families, int]]:
        """Every plan's families (see
        :meth:`~repro.core.quartets.QuartetEngine.digest`), in program
        order: ``(families of its batch, its position there)``, ready
        for :meth:`apply`.  Every slab first: a cold build's kernel
        runs before any family is held."""
        slabs = [engine.batch_slab(batch) for batch in self.batches]
        families = [
            engine.digest(batch, d_coulomb, d_exchange, X)
            for batch, X in zip(self.batches, slabs)
        ]
        return [(families[g], p) for g, p in self.order.tolist()]

    def apply(
        self, digested: list[tuple[Families, int]], target: np.ndarray,
        kl_target: np.ndarray | None = None, lo: int = 0, hi: int | None = None,
    ) -> None:
        """Add plans ``lo`` to ``hi`` (program order) of ``digested``
        into the flat ``target`` at their stretch of :attr:`index`: one
        concatenation of views and one ``np.add.at``, which adds
        repeated indices in order.  With ``kl_target`` (a layout indexed
        without ``(k, l)`` elements) each plan's ``(k, l)`` elements go
        there afterwards, at ``kl_at``."""
        hi = len(digested) if hi is None else hi
        if lo == hi:
            return
        kl = kl_target is None
        values = np.concatenate(
            [a for fam, p in digested[lo:hi] for a in fam.plan_terms(p, kl)]
        )
        np.add.at(target, self.index[self.ends[lo] : self.ends[hi]], values)
        if not kl:
            for fam, p in digested[lo:hi]:
                cols = fam.batch.columns(p)
                kl_target[fam.batch.kl_at[cols]] += fam.kl[cols]
