"""Cross-cycle ERI cache: the bra store and semi-direct SCF identity.

The contract the cache must honor: with the cache on or off, every
algorithm produces **bitwise identical** Fock matrices and SCF
energies — the cache stores exactly the columns the engine computed,
and whichever way a request is met (the stored share itself, a gather
through the bra's ket index, a partial evaluation) the bits are those of
direct evaluation — and cycle 2+ of a cached workload re-evaluates zero
quartets while the screening decisions are unchanged.  Counters are in
quartets whatever the container.
"""

import numpy as np
import pytest

from repro.chem.basis import BasisSet
from repro.chem.graphene import bilayer_graphene
from repro.core.fock_mpi import MPIOnlyFockBuilder
from repro.core.fock_private import PrivateFockBuilder
from repro.core.fock_shared import SharedFockBuilder
from repro.core.quartets import QuartetEngine
from repro.core.scf_driver import ParallelSCF
from repro.integrals.cache import QuartetCache
from repro.integrals.onee import kinetic_matrix, nuclear_matrix
from repro.scf.incremental import IncrementalFockBuilder

ALGORITHMS = {
    "mpi-only": MPIOnlyFockBuilder,
    "private-fock": PrivateFockBuilder,
    "shared-fock": SharedFockBuilder,
}


@pytest.fixture(scope="module")
def graphene_sto3g():
    """Small-graphene fixture: 4 C atoms, 8 composite shells, 20 BFs."""
    basis = BasisSet(bilayer_graphene(2), "sto-3g")
    h = kinetic_matrix(basis) + nuclear_matrix(basis)
    rng = np.random.default_rng(17)
    d = rng.standard_normal((basis.nbf, basis.nbf))
    d = d + d.T
    return basis, h, d


# -- LRU unit behaviour: get / put, the one-ket case of the store -------------


def _block(value, shape=(2, 2, 2, 2)):
    return np.full(shape, float(value))


def test_cache_hit_miss_counters():
    cache = QuartetCache(max_bytes=1 << 20)
    assert cache.get((0, 0, 0, 0)) is None
    cache.put((0, 0, 0, 0), _block(1.0))
    got = cache.get((0, 0, 0, 0))
    # The quartet's slab: bra function pairs by ket function pairs.
    assert got.shape == (4, 4)
    np.testing.assert_array_equal(got.reshape(2, 2, 2, 2), _block(1.0))
    assert (cache.hits, cache.misses) == (1, 1)
    assert cache.hit_rate == 0.5


def test_cache_evicts_lru_under_byte_budget():
    one = _block(0).nbytes
    cache = QuartetCache(max_bytes=2 * one)
    cache.put((0, 0, 0, 0), _block(0))
    cache.put((1, 0, 0, 0), _block(1))
    cache.get((0, 0, 0, 0))  # refresh bra 0 -> bra (1, 0) is now LRU
    cache.put((2, 0, 0, 0), _block(2))
    assert (1, 0, 0, 0) not in cache
    assert (0, 0, 0, 0) in cache and (2, 0, 0, 0) in cache
    assert cache.evictions == 1
    assert cache.bytes == 2 * one


def test_cache_skips_oversized_blocks():
    cache = QuartetCache(max_bytes=64)
    cache.put((0, 0, 0, 0), np.zeros((4, 4, 4, 4)))
    assert len(cache) == 0 and cache.bytes == 0 and cache.evictions == 0


def test_cache_replace_same_key_updates_bytes():
    cache = QuartetCache(max_bytes=1 << 20)
    cache.put((0, 0, 0, 0), _block(1.0))
    cache.put((0, 0, 0, 0), _block(2.0, shape=(3, 3, 3, 3)))
    assert len(cache) == 1
    assert cache.bytes == _block(0, shape=(3, 3, 3, 3)).nbytes
    assert np.all(cache.get((0, 0, 0, 0)) == 2.0)


def test_cache_blocks_are_read_only():
    cache = QuartetCache(max_bytes=1 << 20)
    block = _block(1.0)
    cache.put((0, 0, 0, 0), block)
    got = cache.get((0, 0, 0, 0))
    with pytest.raises(ValueError):
        got[0, 0] = 7.0
    with pytest.raises(ValueError):
        block[0, 0, 0, 0] = 7.0  # nor through the array that was handed in


def test_cache_clear_and_stats():
    cache = QuartetCache.from_mb(1)
    cache.put((0, 0, 0, 0), _block(1.0))
    cache.clear()
    assert len(cache) == 0 and cache.bytes == 0
    stats = cache.stats()
    assert stats["entries"] == 0 and stats["max_bytes"] == 1 << 20


def test_cache_rejects_nonpositive_budget():
    with pytest.raises(ValueError):
        QuartetCache(max_bytes=0)


def test_one_bra_holds_many_kets_and_counts_them_in_quartets():
    """Kets put one by one under one bra are one LRU entry, counted,
    evicted and replaced as quartets."""
    one = _block(0).nbytes
    cache = QuartetCache(max_bytes=4 * one)
    for l in range(3):
        cache.put((2, 1, 1, l) if l < 2 else (2, 1, 2, 0), _block(l))
    assert len(cache) == cache.stats()["entries"] == 3
    assert len(cache._store) == 1
    cache.put((3, 0, 0, 0), _block(7))
    cache.put((3, 0, 1, 0), _block(8))  # over budget: bra (2, 1) goes, whole
    assert cache.evictions == 3 and len(cache) == 2
    assert cache.bytes == 2 * one
    assert (2, 1, 1, 0) not in cache and (3, 0, 1, 0) in cache


# -- engine integration: slab requests ----------------------------------------


D_L = 7  # water/6-31G(d): combined index of the bra (D, O L) = pair (3, 1)


@pytest.fixture()
def counting(monkeypatch):
    """Kernel rows (quartets) evaluated, counted under the engine."""
    import repro.core.quartets as quartets_mod

    rows = []
    kernel = quartets_mod.eri_bra_slab

    def counted(pairs, ij, kls):
        rows.append(kls.size)
        return kernel(pairs, ij, kls)

    monkeypatch.setattr(quartets_mod, "eri_bra_slab", counted)
    return rows


def _kls(*kets):
    return np.array(kets, dtype=np.int64)


def test_engine_serves_repeat_quartets_from_cache(water_sto3g):
    eng = QuartetEngine(water_sto3g, cache=QuartetCache.from_mb(8))
    first = eng.composite_block(1, 0, 1, 0)
    second = eng.composite_block(1, 0, 1, 0)
    # The stored columns, not a recomputation.
    assert np.shares_memory(second, first)
    assert second.base is first.base and not second.flags.writeable
    assert eng.quartets_computed == 1
    assert eng.quartets_from_cache == 1


def test_engine_positional_pair_keys_survive_rederived_shells(water_sto3g):
    """Pair data is addressed by position in the basis (the combined
    pair index), not by shell identity: every canonical pair has exactly
    one stack row, and an equal-but-distinct basis gives the same bits."""
    import copy

    from repro.core.indexing import npairs

    eng = QuartetEngine(water_sto3g)
    block = eng.composite_block(1, 0, 1, 0)
    pairs = eng.pairs
    n = npairs(water_sto3g.nshells)
    assert pairs.cls.size == pairs.row.size == n
    assert len(set(zip(pairs.cls.tolist(), pairs.row.tolist()))) == n
    assert sum(c.stack.npairs for c in pairs.classes) == n
    rederived = QuartetEngine(copy.deepcopy(water_sto3g))
    assert rederived.pairs is not pairs
    assert np.array_equal(rederived.composite_block(1, 0, 1, 0), block)


def test_exact_share_repeat_returns_the_stored_array(water_631gd, counting):
    eng = QuartetEngine(water_631gd, cache=QuartetCache.from_mb(8))
    mine, other = _kls(0, 2, 4, 6), _kls(1, 3, 5, 7)
    first = eng.slab(D_L, mine)
    eng.slab(D_L, other)  # a second thread's share: a second piece
    assert sum(counting) == 8
    assert eng.slab(D_L, mine) is first
    assert eng.slab(D_L, mine.copy()) is first  # equal kets, another array
    assert not first.flags.writeable
    assert sum(counting) == 8
    assert (eng.cache.hits, eng.cache.misses) == (8, 8)
    assert np.array_equal(first, QuartetEngine(water_631gd).slab(D_L, mine))


@pytest.mark.parametrize(
    "request_, evaluated",
    [
        ([0, 2, 4], 0),                      # subset of one piece
        ([6, 1, 0], 0),                      # subset across pieces, unsorted
        ([0, 1, 2, 3, 4, 5, 6, 7], 0),       # superset of either piece: the union
        ([0, 1, 2, 3], 0),                   # another partition of the same kets
        ([7, 7, 0, 7], 0),                   # duplicates of stored kets
        ([5, 6, 7, 8, 9], 2),                # partially present
        ([9, 3, 9, 8, 3], 2),                # ... unsorted, duplicates both sides
        ([8, 9, 10], 3),                     # nothing present, bra is
    ],
)
def test_any_request_equals_direct_evaluation_and_evaluates_only_the_missing(
    water_631gd, counting, request_, evaluated
):
    """Kets 0-7 of a D L bra (S, L and D kets mixed) arrive as two
    interleaved shares; whatever is asked next is bitwise what a
    cache-less engine evaluates, and only kets the bra does not hold
    reach the kernel — once, together."""
    cache = QuartetCache.from_mb(8)
    eng = QuartetEngine(water_631gd, cache=cache)
    eng.slab(D_L, _kls(0, 2, 4, 6))
    eng.slab(D_L, _kls(1, 3, 5, 7))
    want = QuartetEngine(water_631gd).slab(D_L, _kls(*request_))
    del counting[:]
    before = (cache.hits, cache.misses, len(cache), eng.quartets_computed)

    got = eng.slab(D_L, _kls(*request_))

    assert got.shape == want.shape and np.array_equal(got, want)
    assert sum(counting) == evaluated
    missing = sum(kl > 7 for kl in request_)
    assert cache.misses - before[1] == missing
    assert cache.hits - before[0] == len(request_) - missing
    assert len(cache) - before[2] == evaluated  # distinct kets, stored once
    assert eng.quartets_computed - before[3] == missing
    # What was missing is there now, whatever it was asked with.
    again = eng.slab(D_L, _kls(*request_))
    assert np.array_equal(again, want) and sum(counting) == evaluated


def test_blocks_are_the_column_split_of_the_slab(water_631gd):
    eng = QuartetEngine(water_631gd, cache=QuartetCache.from_mb(8))
    kls = _kls(5, 0, 7, 2)
    slab = eng.slab(D_L, kls)
    blocks = eng.composite_blocks(3, 1, kls)
    assert np.array_equal(
        np.concatenate([b.reshape(slab.shape[0], -1) for b in blocks], axis=1),
        slab,
    )
    for kl, block in zip(kls.tolist(), blocks):
        from repro.core.indexing import decode_pair

        assert np.array_equal(block, eng.composite_block(3, 1, *decode_pair(kl)))
        assert np.shares_memory(block, slab)


@pytest.mark.parametrize("budget", [1 << 26, 40_000, 6_000])
def test_lru_evicts_whole_bras_oldest_first(water_631gd, budget):
    """Two sweeps over every bra, two shares each: the budget holds at
    every step, bras leave whole and oldest first, evictions are counted
    in quartets — and every slab is bitwise the direct one throughout."""
    from repro.core.indexing import npairs

    cache = QuartetCache(budget)
    eng = QuartetEngine(water_631gd, cache=cache)
    direct = QuartetEngine(water_631gd)
    requested = 0
    for _cycle in range(2):
        for ij in range(npairs(water_631gd.nshells)):
            for kls in (np.arange(0, ij + 1, 2), np.arange(1, ij + 1, 2)):
                if not kls.size:
                    continue
                before = {b: bra.nquartets for b, bra in cache._store.items()}
                evicted = cache.evictions
                got = eng.slab(ij, kls)
                assert np.array_equal(got, direct.slab(ij, kls))
                requested += kls.size
                assert cache.bytes <= cache.max_bytes
                pieces = [
                    p for b in cache._store.values() for p in b.pieces.values()
                ]
                assert cache.bytes == sum(p.X.nbytes for p in pieces)
                assert len(cache) == sum(p.kls.size for p in pieces)
                # The bras that left were the oldest, the others keep
                # their order, and each leaver counts its quartets.
                others = [b for b in before if b != ij]
                left = [b for b in others if b not in cache._store]
                assert left == others[: len(left)]
                assert list(cache._store)[: len(others) - len(left)] == (
                    others[len(left):]
                )
                if ij in cache._store:
                    assert cache.evictions - evicted == sum(
                        before[b] for b in left
                    )
    assert cache.hits + cache.misses == requested
    assert eng.quartets_computed == cache.misses
    assert eng.quartets_from_cache == cache.hits
    if budget < 1 << 26:
        assert cache.evictions > 0
    else:
        assert cache.evictions == 0 and cache.hit_rate == 0.5  # cycle 2 all hits
    # Stored slabs own their memory and are read-only once stored.
    for bra in cache._store.values():
        for piece in bra.pieces.values():
            assert piece.X.flags.owndata and not piece.X.flags.writeable


def test_slab_larger_than_the_budget_is_served_but_not_stored(
    water_631gd, counting
):
    kls = np.arange(D_L + 1)
    want = QuartetEngine(water_631gd).slab(D_L, kls)
    cache = QuartetCache(want.nbytes - 8)
    eng = QuartetEngine(water_631gd, cache=cache)
    eng.slab(0, _kls(0))  # something small that must survive
    del counting[:]
    assert np.array_equal(eng.slab(D_L, kls), want)
    assert np.array_equal(eng.slab(D_L, kls), want)
    assert sum(counting) == 2 * kls.size  # evaluated again: it was not kept
    assert len(cache) == 1 and cache.evictions == 0
    assert (cache.hits, cache.misses) == (0, 1 + 2 * kls.size)


def test_get_put_share_the_store_with_slab_requests(water_631gd, counting):
    from repro.core.indexing import decode_pair

    cache = QuartetCache.from_mb(8)
    eng = QuartetEngine(water_631gd, cache=cache)
    direct = QuartetEngine(water_631gd)
    # A slab request stores; ``get`` finds each of its quartets ...
    kls = _kls(0, 3, 5)
    slab = eng.slab(D_L, kls)
    for kl, block in zip(kls.tolist(), direct.composite_blocks(3, 1, kls)):
        got = cache.get((3, 1, *decode_pair(kl)))
        assert np.array_equal(got, block.reshape(slab.shape[0], -1))
    assert cache.get((3, 1, *decode_pair(6))) is None
    # ... and a quartet that was ``put`` is not evaluated again by a slab.
    block = direct.composite_block(3, 1, *decode_pair(6))
    cache.put((3, 1, *decode_pair(6)), block.copy())
    assert (3, 1, *decode_pair(6)) in cache and len(cache) == 4
    del counting[:]
    assert np.array_equal(
        eng.slab(D_L, _kls(6, 5, 7)), direct.slab(D_L, _kls(6, 5, 7))
    )
    assert len(cache) == 5
    # A quartet put again replaces the piece that held it, also one it
    # shares with other kets.
    cache.put((3, 1, *decode_pair(3)), np.zeros((6, 4, 1, 1)))
    assert len(cache) == 3  # kets 0 and 5 left with the piece
    assert np.all(cache.get((3, 1, *decode_pair(3))) == 0.0)


# -- semi-direct SCF identity on the small-graphene fixtures -----------------


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_cached_fock_bitwise_identical_per_cycle(name, graphene_sto3g):
    basis, h, d = graphene_sto3g
    cls = ALGORITHMS[name]
    cached = cls(basis, h, eri_cache=QuartetCache.from_mb(64))
    direct = cls(basis, h)
    d2 = d + 0.01 * np.eye(basis.nbf)
    for cycle, dens in enumerate((d, d2, d), start=1):
        f_cached, s_cached = cached(dens)
        f_direct, s_direct = direct(dens)
        assert np.array_equal(f_cached, f_direct), f"cycle {cycle} differs"
        if cycle == 1:
            assert s_cached.eri_cache_misses == s_cached.quartets_computed > 0
        else:
            # Cycle 2+: zero quartets evaluated for unchanged screening.
            assert s_cached.eri_cache_misses == 0
            assert s_cached.eri_cache_hits == s_cached.quartets_computed
            assert s_cached.eri_cache_hit_rate == 1.0
        assert s_direct.eri_cache_hits == s_direct.eri_cache_misses == 0


def test_builders_of_different_geometry_share_one_cache(graphene_sto3g):
    """A pooled cache outlives its builder: another algorithm, another
    team, another partition of every bra — nothing is evaluated twice,
    the Fock matrix is bitwise the direct one, and on every builder a
    build's hits + misses are the quartets it did."""
    basis, h, d = graphene_sto3g
    cache = QuartetCache.from_mb(64)
    f_direct, _ = SharedFockBuilder(basis, h)(d)
    for n, (cls, geometry) in enumerate((
        (SharedFockBuilder, dict(nranks=2, nthreads=2)),
        (SharedFockBuilder, dict(nranks=1, nthreads=3)),
        (PrivateFockBuilder, dict(nranks=2, nthreads=2)),
        (MPIOnlyFockBuilder, dict(nranks=3)),
        (SharedFockBuilder, dict(nranks=2, nthreads=2)),
    )):
        builder = cls(basis, h, eri_cache=cache, **geometry)
        for _build in range(2):
            fock, stats = builder(d)
            assert np.abs(fock - f_direct).max() < 1e-12
            assert (
                stats.eri_cache_hits + stats.eri_cache_misses
                == stats.quartets_computed
            )
            assert (stats.eri_cache_misses == 0) == (n > 0 or _build > 0)
        if cls is SharedFockBuilder:
            assert np.array_equal(fock, cls(basis, h, **geometry)(d)[0])
    assert cache.misses == len(cache) == stats.quartets_computed


def test_rhf_energy_bitwise_identical_cache_on_off(graphene_sto3g):
    basis, _, _ = graphene_sto3g
    res_on = ParallelSCF(basis, "shared-fock", nranks=2, nthreads=2,
                         eri_cache_mb=64.0).run()
    res_off = ParallelSCF(basis, "shared-fock", nranks=2, nthreads=2).run()
    assert res_on.energy == res_off.energy
    assert res_on.converged and res_off.converged
    # Every post-first cycle was served entirely from the cache.
    for stats in res_on.fock_stats[1:]:
        assert stats.eri_cache_misses == 0


def test_uhf_energy_bitwise_identical_cache_on_off(graphene_sto3g):
    from repro.core.fock_uhf import UHFPrivateFockBuilder
    from repro.scf.uhf import UHF

    basis, h, _ = graphene_sto3g
    energies = []
    for cache_mb in (64.0, None):
        builder = UHFPrivateFockBuilder(basis, h, eri_cache_mb=cache_mb)
        # This triplet case doesn't converge within the default cycle
        # cap; strict=False keeps the partial result instead of raising.
        res = UHF(basis, multiplicity=3, fock_builder=builder).run(
            strict=False
        )
        energies.append(res.energy)
    assert energies[0] == energies[1]


def test_batched_path_matches_scalar_path_end_to_end(
    graphene_sto3g, monkeypatch
):
    """Fock matrices from the batched kernel match the scalar oracle's."""
    import repro.core.quartets as quartets_mod
    from tests.oracles import eri_bra_slab_scalar

    basis, h, d = graphene_sto3g
    f_batched, _ = SharedFockBuilder(basis, h)(d)
    monkeypatch.setattr(quartets_mod, "eri_bra_slab", eri_bra_slab_scalar)
    f_scalar, _ = SharedFockBuilder(basis, h)(d)
    np.testing.assert_allclose(f_batched, f_scalar, rtol=0.0, atol=1e-11)


def test_incremental_scf_compounds_with_cache(graphene_sto3g):
    """Density screening shrinks the quartet set -> later cycles all hit."""
    basis, h, d = graphene_sto3g
    inner = SharedFockBuilder(basis, h, eri_cache=QuartetCache.from_mb(64))
    inc = IncrementalFockBuilder(inner, rebuild_every=10)
    f1, s1 = inc(d)
    assert s1.eri_cache_misses > 0
    f2, s2 = inc(d + 1e-6 * np.eye(basis.nbf))
    assert s2.eri_cache_misses == 0
    assert s2.quartets_computed <= s1.quartets_computed
