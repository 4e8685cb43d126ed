"""The central correctness claims: all three parallel algorithms produce
the dense-reference Fock matrix for every simulated geometry, and the
shared-Fock write pattern is race-free."""

import numpy as np
import pytest

from repro.core.fock_mpi import MPIOnlyFockBuilder
from repro.core.fock_private import PrivateFockBuilder
from repro.core.fock_shared import SharedFockBuilder
from repro.core.screening import Screening
from repro.scf.fock_dense import fock_from_eri

ALGOS = {
    "mpi-only": MPIOnlyFockBuilder,
    "private-fock": PrivateFockBuilder,
    "shared-fock": SharedFockBuilder,
}


@pytest.fixture(scope="module")
def reference(water_sto3g_reference):
    h, eri, d = water_sto3g_reference
    return h, d, fock_from_eri(h, eri, d)


@pytest.mark.parametrize("name", list(ALGOS))
@pytest.mark.parametrize("nranks", [1, 2, 5])
def test_matches_dense_across_ranks(name, nranks, water_sto3g, reference):
    h, d, fref = reference
    kwargs = {"nranks": nranks}
    if name != "mpi-only":
        kwargs["nthreads"] = 3
    f, stats = ALGOS[name](water_sto3g, h, **kwargs)(d)
    np.testing.assert_allclose(f, fref, atol=1e-10)
    assert stats.algorithm == name
    assert stats.nranks == nranks


@pytest.mark.parametrize("nthreads", [1, 2, 4, 7])
def test_shared_fock_thread_counts(nthreads, water_sto3g, reference):
    h, d, fref = reference
    f, stats = SharedFockBuilder(
        water_sto3g, h, nranks=2, nthreads=nthreads, track_races=True
    )(d)
    np.testing.assert_allclose(f, fref, atol=1e-10)
    assert stats.races == 0
    assert stats.writes_checked > 0


def test_shared_fock_race_free_is_verified(water_sto3g, reference):
    """The tracker actually checks a meaningful number of shared writes."""
    h, d, _ = reference
    _, stats = SharedFockBuilder(
        water_sto3g, h, nranks=1, nthreads=4, track_races=True
    )(d)
    assert stats.races == 0
    # Direct kl writes + flush writes were all recorded.
    assert stats.writes_checked >= stats.quartets_computed


def test_naive_threading_would_race(water_sto3g, reference):
    """Counter-example backing the paper's design: threading the stock
    algorithm over (j, k) with a single shared Fock produces write-write
    conflicts (this is why Algorithm 2 keeps private Fock replicas)."""
    from repro.core.indexing import unique_quartets
    from repro.core.quartets import QuartetEngine
    from repro.parallel.shared_array import WriteTracker

    h, d, _ = reference
    eng = QuartetEngine(water_sto3g)
    n = water_sto3g.nbf
    tracker = WriteTracker(n * n)
    W = np.zeros((n, n))
    # Two threads split quartets round-robin, all writing one shared W.
    for t_idx, (i, j, k, l) in enumerate(unique_quartets(water_sto3g.nshells)):
        thread = t_idx % 2
        X = eng.composite_block(i, j, k, l)
        for (rows, cols), val in eng.scatter_contributions(
            X, d, i, j, k, l
        ).values():
            W[rows, cols] += val
            r = np.arange(rows.start, rows.stop)
            c = np.arange(cols.start, cols.stop)
            tracker.record(thread, (r[:, None] * n + c[None, :]).ravel())
    assert not tracker.race_free, "naive shared-Fock threading must race"


def test_dlb_partition_invariance(water_sto3g, reference):
    """The reduced Fock matrix is independent of the DLB grant partition."""
    h, d, fref = reference
    f, _ = SharedFockBuilder(water_sto3g, h, nranks=3, nthreads=2)(d)
    np.testing.assert_allclose(f, fref, atol=1e-10)


def test_static_schedule_invariance(water_sto3g, reference):
    """Nor does it depend on the cost-weighted static pre-partition
    (``schedule="static"``, LPT over the builder's ``work_estimates()``)."""
    h, d, fref = reference
    builder = SharedFockBuilder(
        water_sto3g, h, nranks=3, nthreads=2, schedule="static"
    )
    shares = builder.make_scheduler().assignment()
    assert shares != SharedFockBuilder(
        water_sto3g, h, nranks=3, nthreads=2
    ).make_scheduler().assignment()
    f, _ = builder(d)
    np.testing.assert_allclose(f, fref, atol=1e-10)


@pytest.mark.parametrize("schedule", ["static", "dynamic"])
def test_thread_schedule_invariance(schedule, water_sto3g, reference):
    """Paper: 'no significant difference between OpenMP load balancer
    modes' — and bitwise the result must be the same Fock matrix."""
    h, d, fref = reference
    for cls in (PrivateFockBuilder, SharedFockBuilder):
        f, _ = cls(
            water_sto3g, h, nranks=2, nthreads=3, thread_schedule=schedule
        )(d)
        np.testing.assert_allclose(f, fref, atol=1e-10)


def test_screening_consistency_across_algorithms(water_sto3g, reference):
    """With a loose threshold all three algorithms drop the *same*
    quartets and still agree with each other."""
    h, d, _ = reference
    from repro.integrals.schwarz import schwarz_matrix

    scr = Screening(schwarz_matrix(water_sto3g), tau=1e-4)
    outs = []
    counts = []
    for name, cls in ALGOS.items():
        kwargs = {"nranks": 2, "screening": scr}
        if name != "mpi-only":
            kwargs["nthreads"] = 2
        f, stats = cls(water_sto3g, h, **kwargs)(d)
        outs.append(f)
        counts.append(stats.quartets_computed)
    assert counts[0] == counts[1] == counts[2]
    np.testing.assert_allclose(outs[0], outs[1], atol=1e-10)
    np.testing.assert_allclose(outs[0], outs[2], atol=1e-10)


def test_stats_quartet_accounting(water_sto3g, reference):
    h, d, _ = reference
    f, stats = MPIOnlyFockBuilder(water_sto3g, h, nranks=2)(d)
    from tests.oracles import n_unique_quartets

    assert stats.total_quartets == n_unique_quartets(water_sto3g.nshells)
    assert sum(stats.per_rank_quartets) == stats.quartets_computed


def test_mpi_only_rejects_threads(water_sto3g, reference):
    h, _, _ = reference
    with pytest.raises(ValueError):
        MPIOnlyFockBuilder(water_sto3g, h, nthreads=4)


def test_flush_counts_recorded(water_sto3g, reference):
    h, d, _ = reference
    _, stats = SharedFockBuilder(water_sto3g, h, nranks=1, nthreads=2)(d)
    # FJ flushes once per unskipped top iteration; FI at least once.
    assert stats.fj_flushes >= stats.fi_flushes >= 1


def test_reduce_bytes_scale_with_ranks(water_sto3g, reference):
    h, d, _ = reference
    _, s1 = MPIOnlyFockBuilder(water_sto3g, h, nranks=1)(d)
    _, s4 = MPIOnlyFockBuilder(water_sto3g, h, nranks=4)(d)
    assert s4.reduce_bytes == 4 * s1.reduce_bytes


@pytest.mark.slow
def test_631gd_all_algorithms(water_631gd):
    """Full agreement on a basis with L and d shells."""
    from repro.integrals.onee import kinetic_matrix, nuclear_matrix
    from repro.scf.fock_dense import eri_tensor

    h = kinetic_matrix(water_631gd) + nuclear_matrix(water_631gd)
    rng = np.random.default_rng(9)
    d = rng.standard_normal((water_631gd.nbf, water_631gd.nbf))
    d = d + d.T
    fref = fock_from_eri(h, eri_tensor(water_631gd), d)
    for name, cls in ALGOS.items():
        kwargs = {"nranks": 2}
        if name != "mpi-only":
            kwargs["nthreads"] = 4
        f, _ = cls(water_631gd, h, **kwargs)(d)
        np.testing.assert_allclose(f, fref, atol=1e-9, err_msg=name)
