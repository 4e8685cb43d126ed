"""Property tests for the batch-scheduling layer.

Hypothesis drives the three contracts every batch policy must honor
(the batch-level mirror of ``test_dlb_properties.py``'s exactly-once
grant accounting):

* **exactly-once planning** — whatever the manifest mix, a plan's order
  is a permutation of the manifest indices: every job scheduled exactly
  once, none invented, none dropped;
* **bounded displacement (no starvation)** — reordering is window-local,
  so no job moves more than ``window`` positions from manifest order; a
  long job at the front cannot be starved behind an arbitrary number of
  shorter ones;
* **determinism** — the same (manifest, policy, window) yields the
  identical plan and fingerprint, independent of process or call
  count.

Plus the structural invariants batching exists for: every batch is
single-setup-key, batches concatenate to the order, and the binned
policy never splits a key inside one window.
"""

from __future__ import annotations

from collections import Counter

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.chem.molecule import (  # noqa: E402
    hydrogen_molecule,
    methane,
    water,
)
from repro.service.errors import ManifestError  # noqa: E402
from repro.service.jobs import JobSpec  # noqa: E402
from repro.workload import (  # noqa: E402
    BATCH_POLICIES,
    make_batch_scheduler,
    manifest_fingerprint,
)

COMMON = dict(deadline=None)

#: Geometry texts are reused across examples (molecule construction is
#: not what these tests exercise).
_XYZ = {
    "water": water().to_xyz(),
    "h2": hydrogen_molecule().to_xyz(),
    "methane": methane().to_xyz(),
    "h2-stretched": hydrogen_molecule(r_bohr=1.8).to_xyz(),
}

_SYSTEMS = st.tuples(
    st.sampled_from(sorted(_XYZ)),
    st.sampled_from(["sto-3g", "6-31g", "6-31g(d)"]),
)


@st.composite
def manifests(draw, min_size=1, max_size=30):
    """A list of JobSpecs mixing systems, bases, and resource shapes."""
    entries = draw(st.lists(_SYSTEMS, min_size=min_size,
                            max_size=max_size))
    return [
        JobSpec(xyz=_XYZ[name], basis=basis, tag=f"j{i}",
                nranks=draw(st.sampled_from([1, 2, 4])))
        for i, (name, basis) in enumerate(entries)
    ]


@pytest.mark.parametrize("policy", BATCH_POLICIES)
@settings(max_examples=40, **COMMON)
@given(specs=manifests(),
       window=st.integers(min_value=1, max_value=12))
def test_every_job_scheduled_exactly_once(policy, specs, window):
    plan = make_batch_scheduler(policy, window=window).plan(specs)
    assert Counter(plan.order) == Counter(range(len(specs)))
    # Batches are the same order, segmented.
    assert [i for b in plan.batches for i in b.jobs] == list(plan.order)


@pytest.mark.parametrize("policy", BATCH_POLICIES)
@settings(max_examples=40, **COMMON)
@given(specs=manifests(),
       window=st.integers(min_value=1, max_value=12))
def test_no_job_displaced_beyond_the_window(policy, specs, window):
    plan = make_batch_scheduler(policy, window=window).plan(specs)
    for position, index in enumerate(plan.order):
        assert abs(position - index) < window, (
            f"job {index} moved {abs(position - index)} positions "
            f"(window {window}): starvation bound violated"
        )


@pytest.mark.parametrize("policy", BATCH_POLICIES)
@settings(max_examples=25, **COMMON)
@given(specs=manifests(),
       window=st.integers(min_value=1, max_value=12))
def test_same_seed_means_identical_plan(policy, specs, window):
    first = make_batch_scheduler(policy, window=window).plan(specs)
    again = make_batch_scheduler(policy, window=window).plan(specs)
    assert first.order == again.order
    assert first.batches == again.batches
    assert first.fingerprint == again.fingerprint
    # The fingerprint commits to the policy/window parameters too.
    other = make_batch_scheduler(policy, window=window + 1).plan(specs)
    assert other.manifest == first.manifest  # same jobs...
    assert other.fingerprint != first.fingerprint  # ...another plan


@pytest.mark.parametrize("policy", BATCH_POLICIES)
@settings(max_examples=40, **COMMON)
@given(specs=manifests(),
       window=st.integers(min_value=1, max_value=12))
def test_batches_are_single_key_runs(policy, specs, window):
    plan = make_batch_scheduler(policy, window=window).plan(specs)
    for batch in plan.batches:
        keys = {specs[i].setup_key() for i in batch.jobs}
        assert keys == {batch.key}
    # Maximality: adjacent batches never share a key (else they would
    # be one batch — and one warm-cache run).
    for left, right in zip(plan.batches, plan.batches[1:]):
        assert left.key != right.key


@settings(max_examples=40, **COMMON)
@given(specs=manifests())
def test_fifo_is_the_identity(specs):
    plan = make_batch_scheduler("fifo").plan(specs)
    assert list(plan.order) == list(range(len(specs)))


@settings(max_examples=40, **COMMON)
@given(specs=manifests(),
       window=st.integers(min_value=1, max_value=12))
def test_binned_never_splits_a_key_within_a_window(specs, window):
    plan = make_batch_scheduler("binned", window=window).plan(specs)
    for start in range(0, len(specs), window):
        chunk = plan.order[start:start + min(window,
                                             len(specs) - start)]
        seen: list[str] = []
        for index in chunk:
            key = specs[index].setup_key()
            if seen and seen[-1] != key:
                assert key not in seen, (
                    f"key {key} split inside window starting at {start}"
                )
            seen.append(key)


@settings(max_examples=25, **COMMON)
@given(specs=manifests(min_size=2))
def test_manifest_fingerprint_is_order_sensitive(specs):
    fp = manifest_fingerprint(specs)
    assert fp == manifest_fingerprint(list(specs))
    rotated = specs[1:] + specs[:1]
    if [s.to_dict() for s in rotated] != [s.to_dict() for s in specs]:
        assert manifest_fingerprint(rotated) != fp


def test_unknown_policy_is_a_typed_manifest_error():
    with pytest.raises(ManifestError, match="unknown batch policy"):
        make_batch_scheduler("lifo")


def test_empty_manifest_cannot_be_planned():
    with pytest.raises(ManifestError, match="empty"):
        make_batch_scheduler("fifo").plan([])
