"""Workload characterization: conservation laws and cross-checks."""

import numpy as np
import pytest

from repro.chem.basis import BasisSet
from repro.chem.graphene import bilayer_graphene
from repro.core.indexing import decode_pair, npairs
from repro.core.screening import Screening
from repro.integrals.schwarz import schwarz_matrix
from repro.perfsim.workload import Workload


@pytest.fixture(scope="module")
def wl05():
    return Workload.for_dataset("0.5nm")


def test_dataset_dimensions(wl05):
    assert wl05.nbf == 660
    assert wl05.nshells == 176
    assert wl05.natoms == 44
    assert wl05.npair_tasks == npairs(176)
    assert wl05.stride == 1
    assert wl05.task_index.size == wl05.npair_tasks


def test_quartet_conservation(wl05):
    """Per-task counts sum to the global surviving-quartet total."""
    assert wl05.task_count.sum() == pytest.approx(wl05.total_quartets)
    assert wl05.task_work.sum() == pytest.approx(wl05.total_work)


def test_work_per_i_aggregation(wl05):
    """work_per_i is the exact segment sum of task work over j <= i."""
    rebuilt = np.zeros(wl05.nshells)
    for p in range(wl05.npair_tasks):
        i, _ = decode_pair(p)
        rebuilt[i] += wl05.task_work[p]
    np.testing.assert_allclose(rebuilt, wl05.work_per_i, rtol=1e-10)


def test_insignificant_tasks_carry_no_work(wl05):
    assert np.all(wl05.task_work[~wl05.task_significant] == 0)
    assert np.all(wl05.task_count[~wl05.task_significant] == 0)


def test_max_unit_bounds_task_work(wl05):
    """No task's average quartet can exceed its max quartet cost."""
    mask = wl05.task_count > 0
    avg = wl05.task_work[mask] / wl05.task_count[mask]
    assert np.all(avg <= wl05.task_max_unit[mask] + 1e-9)


def test_screening_fraction_grows_with_system():
    """Bigger graphene -> sparser ERI tensor (paper's premise for the
    combined-index prescreening)."""
    f1 = Workload.for_dataset("0.5nm").screening_fraction()
    f2 = Workload.for_dataset("1.0nm").screening_fraction()
    f3 = Workload.for_dataset("2.0nm").screening_fraction()
    assert f1 < f2 < f3 < 1.0


def test_workload_from_exact_schwarz_matches_functional_screening():
    """Workload counts with an *exact* Q equal the Screening class's."""
    basis = BasisSet(bilayer_graphene(3), "6-31g(d)")
    q = schwarz_matrix(basis)
    scr = Screening(q, tau=1e-10)
    iu, ju = np.tril_indices(basis.nshells)
    wl = Workload.from_basis(basis, tau=1e-10, pair_q=q[iu, ju])
    counts = scr.pair_survivor_counts()
    sig = wl.task_significant
    np.testing.assert_allclose(wl.task_count[sig], counts[sig])


def test_in_process_cache():
    a = Workload.for_dataset("0.5nm")
    b = Workload.for_dataset("0.5nm")
    assert a is b


@pytest.fixture
def disk_cache(tmp_path, monkeypatch):
    """``for_dataset``'s disk cache in ``tmp_path``, in-process cache empty."""
    import repro.perfsim.workload as W

    monkeypatch.setattr(W, "_disk_cache_path",
                        lambda *key: tmp_path / f"{'__'.join(map(str, key))}.npz")
    W._CACHE.clear()
    yield tmp_path
    W._CACHE.clear()


def test_disk_cache_roundtrip(disk_cache):
    import repro.perfsim.workload as W

    a = Workload.for_dataset("0.5nm")
    W._CACHE.clear()
    b = Workload.for_dataset("0.5nm")
    for name in ("task_index", "task_work", "task_count", "task_max_unit",
                 "task_significant", "work_per_i"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    assert a.total_work == b.total_work
    assert a.total_quartets == b.total_quartets


def test_disk_cache_stores_only_what_the_cost_model_cannot_change(
        disk_cache, monkeypatch):
    """A warm disk cache derives task work under today's cost model, and
    a changed tau or Schwarz model is a different record."""
    import repro.perfsim.workload as W
    from repro.core.screening import SchwarzModelParams

    base = Workload.for_dataset("0.5nm")
    assert len(list(disk_cache.glob("*.npz"))) == 1
    W._CACHE.clear()
    monkeypatch.setattr(W, "eri_quartet_units", lambda *features: 2.0)
    flat = Workload.for_dataset("0.5nm")
    assert len(list(disk_cache.glob("*.npz"))) == 1  # served from disk
    assert flat.total_quartets == base.total_quartets
    assert flat.total_work == 2.0 * base.total_quartets != base.total_work

    Workload.for_dataset("0.5nm", tau=1e-8)
    assert len(list(disk_cache.glob("*.npz"))) == 2
    amplitudes = dict(W.DEFAULT_SCHWARZ_PARAMS.amplitudes, D=1.0)
    monkeypatch.setattr(W, "DEFAULT_SCHWARZ_PARAMS",
                        SchwarzModelParams(amplitudes, residual_std=1.3))
    W._CACHE.clear()
    moved = Workload.for_dataset("0.5nm")
    assert len(list(disk_cache.glob("*.npz"))) == 3
    assert moved.total_quartets != base.total_quartets


def test_sampled_counts_match_exact_on_small_system(monkeypatch):
    """Force the sampling path on 0.5nm and compare to exact counts."""
    import repro.perfsim.workload as W

    basis = BasisSet(bilayer_graphene(5), "6-31g(d)")
    monkeypatch.setattr(W, "EXACT_PAIR_LIMIT", 10)
    monkeypatch.setattr(W, "SAMPLE_TARGET", 100)
    wl_sampled = Workload.from_basis(basis, tau=1e-10)
    monkeypatch.setattr(W, "EXACT_PAIR_LIMIT", 10**9)
    wl_exact = Workload.from_basis(basis, tau=1e-10)

    assert wl_sampled.stride > 1
    # Sampled rows are the exact rows at the sampled indices.
    for name in ("task_count", "task_work", "task_max_unit"):
        np.testing.assert_array_equal(
            getattr(wl_sampled, name),
            getattr(wl_exact, name)[wl_sampled.task_index],
        )
    # Rescaled totals approximate the exact totals.
    assert wl_sampled.total_work == pytest.approx(
        wl_exact.total_work, rel=0.3
    )
