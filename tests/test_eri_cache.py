"""Cross-cycle quartet cache: LRU semantics and semi-direct SCF identity.

The contract the cache must honor: with the cache on or off, every
algorithm produces **bitwise identical** Fock matrices and SCF
energies — the cache stores exactly the arrays the engine computed —
and cycle 2+ of a cached workload re-evaluates zero quartets while the
screening decisions are unchanged.
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


# -- LRU unit behaviour ------------------------------------------------------


def _block(value, shape=(2, 2, 2, 2)):
    return np.full(shape, float(value))


def test_cache_hit_miss_counters():
    cache = QuartetCache(max_bytes=1 << 20)
    assert cache.get((0, 0, 0, 0)) is None
    cache.put((0, 0, 0, 0), _block(1.0))
    got = cache.get((0, 0, 0, 0))
    np.testing.assert_array_equal(got, _block(1.0))
    assert (cache.hits, cache.misses) == (1, 1)
    assert cache.hit_rate == 0.5


def test_cache_evicts_lru_under_byte_budget():
    one = _block(0).nbytes
    cache = QuartetCache(max_bytes=2 * one)
    cache.put((0, 0, 0, 0), _block(0))
    cache.put((1, 0, 0, 0), _block(1))
    cache.get((0, 0, 0, 0))  # refresh key 0 -> key 1 is now LRU
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


def test_cache_blocks_are_read_only():
    cache = QuartetCache(max_bytes=1 << 20)
    cache.put((0, 0, 0, 0), _block(1.0))
    got = cache.get((0, 0, 0, 0))
    with pytest.raises(ValueError):
        got[0, 0, 0, 0] = 7.0


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


# -- engine integration ------------------------------------------------------


def test_engine_serves_repeat_quartets_from_cache(water_sto3g):
    eng = QuartetEngine(water_sto3g, cache=QuartetCache.from_mb(8))
    first = eng.composite_block(1, 0, 1, 0)
    second = eng.composite_block(1, 0, 1, 0)
    assert second is first  # the stored array, not a recomputation
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


@pytest.mark.parametrize("budget", [1 << 26, 40_000, 6_000])
def test_share_cache_sequence_equals_per_quartet_sequence(water_631gd, budget):
    """Batched shares drive the cache exactly as quartet-by-quartet
    evaluation does: same hits, misses, evictions, LRU order and bytes,
    same blocks — also when the budget evicts inside a share (40 kB holds
    part of the larger shares, 6 kB a handful of blocks)."""
    from repro.core.indexing import decode_pair, npairs

    shared = QuartetEngine(water_631gd, cache=QuartetCache(budget))
    single = QuartetEngine(water_631gd, cache=QuartetCache(budget))
    for _cycle in range(2):
        for ij in range(npairs(water_631gd.nshells)):
            i, j = decode_pair(ij)
            kls = np.arange(ij + 1)
            got = shared.composite_blocks(i, j, kls)
            want = [
                single.composite_block(i, j, *decode_pair(kl)) for kl in kls
            ]
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
            assert list(shared.cache._store) == list(single.cache._store)
    assert shared.cache.stats() == single.cache.stats()
    assert shared.quartets_computed == single.quartets_computed
    assert shared.quartets_from_cache == single.quartets_from_cache
    if budget < 1 << 26:
        assert shared.cache.evictions > 0
    else:
        assert shared.cache.hit_rate == 0.5  # cycle 2 all hits
    # Cached blocks own their memory: never a view into a batch array
    # that would pin the whole batch, and read-only once stored.
    for block in shared.cache._store.values():
        assert block.flags.owndata and block.base is None
        assert not block.flags.writeable


def test_block_evicted_inside_its_own_share_is_reevaluated(water_631gd):
    """A block present when the share starts but evicted by the share's
    own earlier puts is a miss at its turn, as in the per-quartet
    sequence, and its re-evaluation alone gives the same bits."""
    from repro.core.indexing import decode_pair, pair_index

    i, j = 3, 1  # D L bra
    kls = np.arange(pair_index(i, j) + 1)
    last = int(kls[-1])
    probe = QuartetEngine(water_631gd).composite_blocks(i, j, kls)
    budget = probe[-1].nbytes + sum(b.nbytes for b in probe[:2])

    shared = QuartetEngine(water_631gd, cache=QuartetCache(budget))
    single = QuartetEngine(water_631gd, cache=QuartetCache(budget))
    shared.composite_blocks(i, j, [last])
    single.composite_block(i, j, *decode_pair(last))

    evaluated = []
    inner = shared._evaluate_blocks
    shared._evaluate_blocks = lambda I, J, k: (
        evaluated.append(list(k)) or inner(I, J, k)
    )
    got = shared.composite_blocks(i, j, kls)
    want = [single.composite_block(i, j, *decode_pair(kl)) for kl in kls]
    # Absent at entry: all but the primed last ket; then the last alone.
    assert evaluated == [list(kls[:-1]), [last]]
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    assert np.array_equal(got[-1], probe[-1])
    assert shared.cache.stats() == single.cache.stats()
    assert list(shared.cache._store) == list(single.cache._store)
    assert shared.quartets_computed == single.quartets_computed == kls.size + 1


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
    from tests.oracles import eri_class_batch_scalar

    basis, h, d = graphene_sto3g
    f_batched, _ = SharedFockBuilder(basis, h)(d)
    monkeypatch.setattr(
        quartets_mod, "eri_class_batch", eri_class_batch_scalar
    )
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
