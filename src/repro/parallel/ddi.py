"""Simulated Distributed Data Interface (DDI) — GAMESS's comm layer.

GAMESS performs all of its communication through DDI (Fletcher et al.,
CPC 128, 190 (2000)): globally addressed distributed 2-D arrays with
one-sided ``put/get/acc`` access, a global dynamic-load-balance counter,
and global sums.  Two implementations matter to the paper:

* the **legacy MPI-1 DDI**, where every compute rank is paired with a
  *data-server* process that services one-sided requests by polling —
  doubling the process count and the replicated memory (the paper's
  section 6.2 discussion and part of the stock code's footprint);
* the **MPI-3 DDI** used for the paper's benchmarks, which maps
  one-sided access onto RMA windows and needs no data servers.

This module reproduces the *semantics* (distribution, access, metering,
memory accounting) so that DDI-based algorithms can be expressed
faithfully; the timing consequences live in :mod:`repro.perfsim`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.obs.events import get_event_log
from repro.obs.metrics import get_metrics
from repro.parallel.dlb import DynamicLoadBalancer

if TYPE_CHECKING:  # pragma: no cover
    from repro.resilience.faults import FaultPlan


class DDIMode(str, enum.Enum):
    """DDI transport implementation."""

    MPI3 = "mpi3"                 # RMA windows, no data servers
    DATA_SERVER = "data-server"   # legacy MPI-1: one server per rank


@dataclass
class DDIStats:
    """Traffic accounting for one DDI runtime."""

    puts: int = 0
    gets: int = 0
    accs: int = 0
    bytes_moved: int = 0
    remote_fraction_weighted: float = 0.0

    def record(self, nbytes: int, remote: bool) -> None:
        self.bytes_moved += nbytes
        if remote:
            self.remote_fraction_weighted += nbytes
        registry = get_metrics()
        if registry is not None:
            registry.counter("ddi.bytes_moved").inc(nbytes)
            if remote:
                registry.counter("ddi.remote_bytes").inc(nbytes)


def _meter_op(op: str) -> None:
    """Count a one-sided DDI operation in the global metrics registry."""
    registry = get_metrics()
    if registry is not None:
        registry.counter("ddi.ops", op=op).inc()


class DDIArray:
    """A globally addressed 2-D array distributed over compute ranks.

    Columns are divided into contiguous blocks, one per rank — DDI's
    standard distribution for the distributed-data SCF family.  All
    ranks can read/write any patch; accesses are classified local or
    remote for the metering.
    """

    def __init__(self, runtime: "DDIRuntime", rows: int, cols: int) -> None:
        if rows < 1 or cols < 1:
            raise ValueError("array dimensions must be positive")
        self.runtime = runtime
        self.rows = rows
        self.cols = cols
        bounds = np.linspace(0, cols, runtime.nranks + 1).astype(int)
        self._col_bounds = bounds
        self._blocks = [
            np.zeros((rows, bounds[r + 1] - bounds[r]))
            for r in range(runtime.nranks)
        ]
        runtime._register_array(self)

    # -- distribution ------------------------------------------------------

    def owner_of_column(self, col: int) -> int:
        """Rank owning a global column."""
        if not 0 <= col < self.cols:
            raise IndexError(f"column {col} out of range")
        return int(np.searchsorted(self._col_bounds, col, side="right") - 1)

    def local_columns(self, rank: int) -> range:
        """Global column range stored on ``rank``."""
        return range(self._col_bounds[rank], self._col_bounds[rank + 1])

    @property
    def words(self) -> int:
        """Total distributed size in 8-byte words."""
        return self.rows * self.cols

    # -- one-sided access ---------------------------------------------------

    def _visit(self, rows: slice, cols: slice):
        """Yield (rank, local block view, global col offset) per owner."""
        c0, c1 = cols.start, cols.stop
        for r in range(self.runtime.nranks):
            b0, b1 = self._col_bounds[r], self._col_bounds[r + 1]
            lo, hi = max(c0, b0), min(c1, b1)
            if lo < hi:
                yield r, self._blocks[r][rows, lo - b0 : hi - b0], lo

    def put(self, rank: int, rows: slice, cols: slice, data: np.ndarray) -> None:
        """One-sided write of a patch (``ddi_put``)."""
        self.runtime.stats.puts += 1
        _meter_op("put")
        for owner, view, lo in self._visit(rows, cols):
            seg = data[:, lo - cols.start : lo - cols.start + view.shape[1]]
            view[...] = seg
            self.runtime.stats.record(seg.nbytes, remote=owner != rank)

    def get(self, rank: int, rows: slice, cols: slice) -> np.ndarray:
        """One-sided read of a patch (``ddi_get``)."""
        self.runtime.stats.gets += 1
        _meter_op("get")
        out = np.empty((rows.stop - rows.start, cols.stop - cols.start))
        for owner, view, lo in self._visit(rows, cols):
            out[:, lo - cols.start : lo - cols.start + view.shape[1]] = view
            self.runtime.stats.record(view.nbytes, remote=owner != rank)
        return out

    def acc(self, rank: int, rows: slice, cols: slice, data: np.ndarray) -> None:
        """One-sided accumulate (``ddi_acc``) — the Fock-update primitive."""
        self.runtime.stats.accs += 1
        _meter_op("acc")
        for owner, view, lo in self._visit(rows, cols):
            seg = data[:, lo - cols.start : lo - cols.start + view.shape[1]]
            view += seg
            self.runtime.stats.record(seg.nbytes, remote=owner != rank)

    def to_dense(self) -> np.ndarray:
        """Gather the full array (verification only)."""
        return np.concatenate(self._blocks, axis=1)


class DDIRuntime:
    """A simulated DDI instance over ``nranks`` compute processes.

    Parameters
    ----------
    nranks:
        Compute process count.
    mode:
        ``mpi3`` (default) or ``data-server`` (legacy); the legacy mode
        doubles the process count and the replicated-memory accounting,
        as in the paper's description of the stock code.
    fault_plan:
        Optional :class:`~repro.resilience.faults.FaultPlan` validated
        against ``nranks`` at construction; ``kill`` events fire on
        :meth:`dlbnext` draws (the dead rank's outstanding tasks are
        re-queued to survivors through the balancer).
    """

    def __init__(
        self,
        nranks: int,
        *,
        mode: DDIMode | str = DDIMode.MPI3,
        fault_plan: "FaultPlan | None" = None,
    ) -> None:
        if nranks < 1:
            raise ValueError(
                f"DDIRuntime needs at least one compute rank, got {nranks}"
            )
        self.nranks = nranks
        self.mode = DDIMode(mode)
        self.stats = DDIStats()
        self._arrays: list[DDIArray] = []
        self._dlb: DynamicLoadBalancer | None = None
        if fault_plan is not None:
            fault_plan.validate_for(nranks)
        self.fault_plan = fault_plan
        self._cycle = 0           # dlb_reset epochs (1-based once armed)
        self._draws = [0] * nranks
        self._kill_after: dict[int, int] = {}

    def _register_array(self, arr: DDIArray) -> None:
        self._arrays.append(arr)

    def create(self, rows: int, cols: int) -> DDIArray:
        """``ddi_create``: allocate a distributed array."""
        return DDIArray(self, rows, cols)

    # -- processes & memory ------------------------------------------------

    @property
    def total_processes(self) -> int:
        """MPI processes launched, including any data servers."""
        if self.mode is DDIMode.DATA_SERVER:
            return 2 * self.nranks
        return self.nranks

    def replicated_memory_factor(self) -> float:
        """Multiplier on per-rank replicated memory from the transport."""
        return 2.0 if self.mode is DDIMode.DATA_SERVER else 1.0

    def distributed_words(self) -> int:
        """Words held in distributed arrays (not replicated)."""
        return sum(a.words for a in self._arrays)

    # -- DLB counter --------------------------------------------------------

    def dlb_reset(self, ntasks: int, *, policy: str = "round_robin") -> None:
        """``ddi_dlbreset``: rearm the global counter for a task space."""
        self._dlb = DynamicLoadBalancer(ntasks, self.nranks, policy=policy)
        self._cycle += 1
        self._draws = [0] * self.nranks
        self._kill_after = {}
        if self.fault_plan is not None:
            for rank in range(self.nranks):
                after = self.fault_plan.kill_after(rank, self._cycle)
                if after is not None:
                    self._kill_after[rank] = after

    def dlbnext(self, rank: int) -> int | None:
        """``ddi_dlbnext``: draw the next global task index.

        Under a fault plan, a rank scheduled to die in this counter
        epoch fails once it has drawn its allotted tasks: the runtime
        re-queues its outstanding grants to the survivors (who pick
        them up through their own ``dlbnext`` draws) and the dead
        rank's subsequent calls return ``None``.
        """
        if self._dlb is None:
            raise RuntimeError("call dlb_reset before dlbnext")
        after = self._kill_after.get(rank)
        if after is not None and self._draws[rank] >= after:
            self.fail_rank(rank)
            del self._kill_after[rank]
            return None
        task = self._dlb.next(rank)
        if task is not None:
            self._draws[rank] += 1
        return task

    def fail_rank(self, rank: int) -> list[int]:
        """Kill ``rank``: withdraw and re-queue its outstanding tasks.

        Returns the re-queued task indices.  Metered as
        ``resilience.rank_failures`` / ``resilience.tasks_requeued``.
        """
        if self._dlb is None:
            raise RuntimeError("call dlb_reset before fail_rank")
        tasks = self._dlb.fail_rank(rank, requeue=True)
        registry = get_metrics()
        if registry is not None:
            registry.counter("resilience.rank_failures").inc()
            registry.counter("resilience.tasks_requeued").inc(len(tasks))
        return tasks

    def rank_alive(self, rank: int) -> bool:
        """Whether ``rank`` is still drawing from the current counter."""
        return self._dlb is None or self._dlb.alive(rank)

    # -- collectives -----------------------------------------------------------

    def gsumf(
        self, buffers: list[np.ndarray], *, validate: bool = True
    ) -> np.ndarray:
        """``ddi_gsumf``: sum per-rank buffers; all get the result.

        With ``validate`` (the default) every contribution is checked
        for NaN/Inf *before* merging — one corrupted buffer would
        otherwise silently poison every rank's copy of the sum.  A bad
        contribution raises
        :class:`~repro.resilience.errors.CorruptContributionError`
        naming the offending rank.
        """
        if len(buffers) != self.nranks:
            raise ValueError(
                f"expected {self.nranks} buffers, got {len(buffers)}"
            )
        if validate:
            for rank, b in enumerate(buffers):
                if not np.all(np.isfinite(b)):
                    from repro.resilience.errors import CorruptContributionError

                    registry = get_metrics()
                    if registry is not None:
                        registry.counter(
                            "resilience.corrupt_contributions"
                        ).inc()
                    log = get_event_log()
                    if log is not None:
                        log.emit("fault.corrupt_rejected", rank=rank)
                    raise CorruptContributionError(
                        f"gsumf contribution from rank {rank} contains "
                        f"{int(np.sum(~np.isfinite(b)))} non-finite "
                        "value(s); rejecting before the merge"
                    )
        total = np.zeros_like(buffers[0])
        for b in buffers:
            total += b
        for b in buffers:
            b[...] = total
        self.stats.bytes_moved += total.nbytes * self.nranks
        return total
