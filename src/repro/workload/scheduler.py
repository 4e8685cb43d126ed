"""The batch planner: manifest order in, execution plan out.

The daemon's durable queue dispatches strictly FIFO over submission
order, so a batch plan *is* a submission order: the planner's whole
job is to permute manifest indices so that jobs sharing a setup key
(molecule + basis + charge) run back-to-back and hit the worker's warm
caches — then group those runs into :class:`Batch` records for
reporting.  This mirrors the per-run task-distribution strategies of
:mod:`repro.perfsim.workload` one level up: there tasks are shell
quartets and the resource is a core; here tasks are whole SCF jobs and
the resource is a warm worker.

A policy is a name in :data:`BATCH_POLICIES`, not a class: one
:class:`BatchScheduler` plans every policy.

``fifo``
    Manifest order, untouched.  The baseline every other policy is
    benchmarked against.
``binned``
    Within each window, a stable sort by each setup key's first
    occurrence: same-key jobs grouped, bins in first-occurrence order.
    Maximizes cache reuse with zero cost modelling.

Two cost-ordered policies (shortest job first, and setup-key bins by
predicted cost) were measured against ``binned`` on the skewed
throughput manifest and deleted: neither beat it on jobs/s or cache
amortization (EXPERIMENTS.md).

Two properties hold for every policy and are enforced by the property
suite (``tests/test_workload_properties.py``):

**Determinism.**  Plans are pure functions of (manifest, policy,
window): no clocks, no OS entropy, no seed.

**Bounded displacement (no starvation).**  Reordering happens only
inside consecutive ``window``-sized chunks of manifest order, so no
job moves more than ``window`` positions from where the manifest put
it: ``|plan_position - manifest_position| < window``.  A thousand-job
manifest cannot starve its first entry behind 999 shorter ones.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import groupby
from typing import Sequence

from repro.config import BATCH_POLICIES
from repro.service.errors import ManifestError
from repro.service.jobs import JobSpec, sha256
from repro.workload.manifest import manifest_fingerprint

#: Default reordering window (the starvation bound).
DEFAULT_WINDOW = 256

#: The ``seed`` every plan records.  No remaining policy breaks ties at
#: random; the field stays so ``fifo``/``binned`` fingerprints (the
#: daemon's intake marker) and stored plans keep their bytes.
PLAN_SEED = 0


@dataclass(frozen=True)
class Batch:
    """A maximal run of consecutive same-setup-key jobs in the plan."""

    key: str  # JobSpec.setup_key() shared by every job in the batch
    jobs: tuple[int, ...]  # manifest indices, in execution order

    def to_dict(self) -> dict:
        return {"key": self.key, "jobs": list(self.jobs)}


@dataclass(frozen=True)
class BatchPlan:
    """A deterministic execution plan over one manifest.

    ``order`` (manifest indices in submission order) is what the
    daemon/manager actually executes; ``batches`` is the same order
    segmented into warm-cache runs for reporting.  ``fingerprint``
    covers the manifest fingerprint *and* every plan parameter, so it
    doubles as the daemon's exactly-once intake marker: a restarted
    daemon re-plans, compares fingerprints, and skips re-enqueueing.
    """

    policy: str
    window: int
    manifest: str  # manifest_fingerprint(specs)
    batches: tuple[Batch, ...]
    order: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        order = tuple(i for b in self.batches for i in b.jobs)
        object.__setattr__(self, "order", order)

    @property
    def fingerprint(self) -> str:
        payload = json.dumps(
            {"policy": self.policy, "seed": PLAN_SEED,
             "window": self.window, "manifest": self.manifest,
             "order": list(self.order)},
            sort_keys=True,
        )
        return sha256(payload.encode()).hexdigest()[:16]

    def to_dict(self) -> dict:
        return {
            "policy": self.policy,
            "seed": PLAN_SEED,
            "window": self.window,
            "manifest": self.manifest,
            "fingerprint": self.fingerprint,
            "n_jobs": len(self.order),
            "n_batches": len(self.batches),
            "order": list(self.order),
            "batches": [b.to_dict() for b in self.batches],
        }


class BatchScheduler:
    """The planner of one policy: windowing, batching, the plan envelope.

    ``plan`` orders each consecutive ``window`` of manifest indices by
    the policy (the displacement bound), stitches the windows back
    together, and segments the result into maximal same-key runs.
    """

    def __init__(self, policy: str, *, window: int | None = None) -> None:
        self.policy = policy
        self.window = DEFAULT_WINDOW if window is None else int(window)
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")

    def plan(self, specs: Sequence[JobSpec]) -> BatchPlan:
        """Build the deterministic plan for one expanded manifest."""
        specs = list(specs)
        if not specs:
            raise ManifestError("cannot plan an empty manifest")
        keys = [spec.setup_key() for spec in specs]
        order = list(range(len(specs)))
        if self.policy == "binned":
            for start in range(0, len(order), self.window):
                chunk = order[start:start + self.window]
                first: dict[str, int] = {}
                for i in chunk:
                    first.setdefault(keys[i], i)
                chunk.sort(key=lambda i: first[keys[i]])
                order[start:start + self.window] = chunk
        return BatchPlan(
            policy=self.policy, window=self.window,
            manifest=manifest_fingerprint(specs),
            batches=tuple(
                Batch(key=key, jobs=tuple(run))
                for key, run in groupby(order, keys.__getitem__)
            ),
        )


def make_batch_scheduler(policy: str, *,
                         window: int | None = None) -> BatchScheduler:
    """The planner of a policy by name.

    Raises :class:`~repro.service.errors.ManifestError` for unknown
    names so CLI/daemon manifest intake reports it as the same typed
    error family as a broken manifest file.
    """
    if policy not in BATCH_POLICIES:
        raise ManifestError(
            f"unknown batch policy {policy!r}; "
            f"choose from {', '.join(BATCH_POLICIES)}"
        )
    return BatchScheduler(policy, window=window)
