"""The bra-slab digestion primitive and the builders that run on it.

``QuartetEngine.digest_bra`` digests one thread's whole share of kets
under one bra; ``scatter_general`` — the per-quartet spelling the
distributed-data builder still uses — is the independent oracle.  The
fixture gates pin, inside tier-1, what the end-to-end ledger checks:
the counters of one Fock build and the energies *and iteration counts*
of the three committed direct workloads.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chem.basis import BasisSet
from repro.chem.molecule import Molecule
from repro.config import SCFConfig
from repro.core.fock_distributed import DistributedDataFockBuilder
from repro.core.fock_uhf import UHFPrivateFockBuilder
from repro.core.indexing import decode_pair, pair_index
from repro.core.quartets import QuartetEngine
from repro.core.scf_driver import build_scf, make_fock_builder
from repro.integrals.cache import QuartetCache
from repro.integrals.onee import kinetic_matrix, nuclear_matrix

FIXTURES = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "fixtures"
FAMILIES = ("ji", "ki", "li", "kj", "lj", "kl")


def _fixture_basis(xyz: str, basis: str, charge: int = 0) -> BasisSet:
    mol = Molecule.from_xyz((FIXTURES / xyz).read_text(), charge=charge)
    return BasisSet(mol, basis)


# -- (a) the slab primitive against the per-quartet oracle ------------------


@pytest.fixture(scope="module")
def engine(water_631gd) -> QuartetEngine:
    """Water/6-31G(d): S, L and D composites; every block evaluated once."""
    return QuartetEngine(water_631gd, cache=QuartetCache(1 << 28))


def _check_share(engine, i, j, kls, seed, nchannels):
    """Every family of ``digest_bra`` equals the oracle summed per quartet."""
    n = engine.basis.nbf
    rng = np.random.default_rng(seed)
    dj = rng.standard_normal((n, n))  # deliberately not symmetric
    dk = rng.standard_normal((nchannels, n, n))
    jw, kw = rng.uniform(0.5, 3.0), -rng.uniform(0.25, 2.0)
    kls = np.asarray(kls, dtype=np.int64)

    want = {f: np.zeros((nchannels, n, n)) for f in FAMILIES}
    want_hit = {f: np.zeros((n, n), dtype=bool) for f in FAMILIES}
    for kl in kls.tolist():
        k, l = decode_pair(kl)
        X = engine.composite_block(i, j, k, l)
        for c in range(nchannels):
            for fam, (dest, val) in engine.scatter_general(
                X, dj, dk[c], jw, kw, i, j, k, l
            ).items():
                want[fam][c][dest] += val
                want_hit[fam][dest] = True

    plan = engine.share_plan(i, j, kls)
    d = engine.digest_bra(plan, dj, dk, jw, kw)
    assert d.plan is plan
    M = plan.kfun.size
    assert np.array_equal(plan.rows, np.concatenate((plan.kfun, plan.lfun)))
    got = {f: np.zeros((nchannels, n, n)) for f in FAMILIES}
    got_hit = {f: np.zeros((n, n), dtype=bool) for f in FAMILIES}
    for c in range(nchannels):
        got["ji"][c][plan.sj, plan.si] += d.ji
        got["kl"][c][plan.kfun, plan.lfun] += d.kl
        # kli / klj stack the kfun rows on the lfun rows.
        for fam, rows, cols, values in (
            ("ki", plan.kfun, plan.si, d.kli[c, :M]),
            ("li", plan.lfun, plan.si, d.kli[c, M:]),
            ("kj", plan.kfun, plan.sj, d.klj[c, :M]),
            ("lj", plan.lfun, plan.sj, d.klj[c, M:]),
        ):
            np.add.at(got[fam][c][:, cols], rows, values)
            got_hit[fam][rows, cols] = True
    got_hit["ji"][plan.sj, plan.si] = True
    got_hit["kl"][plan.kfun, plan.lfun] = True
    # The (kfun, lfun) pairs of a share are distinct — what lets the
    # builders use a plain fancy ``+=`` for the (k, l) family.
    assert np.unique(plan.kfun * n + plan.lfun).size == M

    for fam in FAMILIES:
        assert np.array_equal(got_hit[fam], want_hit[fam]), fam
        scale = np.abs(want[fam]).max() or 1.0
        assert np.abs(got[fam] - want[fam]).max() <= 1e-13 * scale, fam


# Water/6-31G(d) shells: 0 = O S, 1-2 = O L, 3 = O D, 4-7 = H S.
@pytest.mark.parametrize(
    "i, j, kls",
    [
        (3, 1, [pair_index(2, 0)]),                      # one quartet, D L|L S
        (3, 3, [pair_index(2, 1)]),                      # i == j
        (3, 1, [pair_index(2, 2)]),                      # k == l
        (3, 1, [pair_index(3, 1)]),                      # (ij) == (kl)
        (3, 3, [pair_index(3, 3)]),                      # all three at once
        (0, 0, [0]),                                     # the (SS|SS) corner
        (5, 3, list(range(pair_index(5, 3) + 1))),       # a whole task, mixed classes
        (3, 3, [0, pair_index(1, 1), pair_index(3, 0), pair_index(3, 3)]),
    ],
)
@pytest.mark.parametrize("nchannels", [1, 2])
def test_slab_matches_per_quartet_oracle_degeneracy_cases(
    engine, i, j, kls, nchannels
):
    _check_share(engine, i, j, kls, seed=17, nchannels=nchannels)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_slab_matches_per_quartet_oracle_random_shares(engine, data):
    """Property: any share of any task, any channels, any weights."""
    nshells = engine.basis.nshells
    i = data.draw(st.integers(0, nshells - 1), label="i")
    j = data.draw(st.integers(0, i), label="j")
    kls = data.draw(
        st.lists(
            st.integers(0, pair_index(i, j)), min_size=1, max_size=12,
            unique=True,
        ),
        label="kls",
    )
    seed = data.draw(st.integers(0, 2**31 - 1), label="seed")
    nchannels = data.draw(st.integers(1, 2), label="nchannels")
    _check_share(engine, i, j, kls, seed, nchannels)


# -- (b) one Fock build per fixture: the parent's counters, literally --------


def _stats(builder, *densities):
    return builder(*densities)[-1]


def test_allene_shared_fock_counters_repeat():
    basis = _fixture_basis("allene.xyz", "sto-3g")
    h = kinetic_matrix(basis) + nuclear_matrix(basis)
    d = np.eye(basis.nbf)
    cache = QuartetCache(1 << 26)  # evaluate the 1482 blocks once for all three

    s = _stats(make_fock_builder(
        "shared-fock", basis, h, nranks=2, nthreads=2, eri_cache=cache), d)
    assert (s.quartets_computed, s.quartets_screened) == (1482, 58)
    assert (s.fi_flushes, s.fj_flushes) == (19, 54)
    assert s.per_thread_quartets == [717, 765]
    assert s.per_rank_quartets == [748, 734]

    s = _stats(make_fock_builder(
        "shared-fock", basis, h, nranks=1, nthreads=1, eri_cache=cache), d)
    assert (s.quartets_computed, s.quartets_screened) == (1482, 58)
    assert (s.fi_flushes, s.fj_flushes) == (10, 54)

    s = _stats(make_fock_builder(
        "shared-fock", basis, h, nranks=3, nthreads=2, eri_cache=cache,
        track_races=True), d)
    assert (s.fi_flushes, s.fj_flushes) == (26, 54)
    assert s.per_rank_quartets == [504, 479, 499]
    assert s.per_thread_quartets == [717, 765]
    assert s.races == 0
    assert s.writes_checked == 10370


def test_hydroxide_mpi_only_counters_repeat():
    basis = _fixture_basis("hydroxide.xyz", "6-31g(d)", charge=-1)
    h = kinetic_matrix(basis) + nuclear_matrix(basis)
    s = _stats(make_fock_builder("mpi-only", basis, h, nranks=4),
               np.eye(basis.nbf))
    assert (s.quartets_computed, s.quartets_screened) == (231, 0)
    assert s.per_rank_quartets == [66, 50, 55, 60]
    assert s.per_thread_quartets == []
    assert (s.fi_flushes, s.fj_flushes) == (0, 0)


def test_ethyl_uhf_private_counters_repeat():
    basis = _fixture_basis("ethyl.xyz", "sto-3g")
    h = kinetic_matrix(basis) + nuclear_matrix(basis)
    d = np.eye(basis.nbf)
    s = _stats(UHFPrivateFockBuilder(basis, h, nranks=2, nthreads=2), d, 0.5 * d)
    assert (s.quartets_computed, s.quartets_screened) == (1034, 1)
    assert s.per_rank_quartets == [624, 410]
    assert s.per_thread_quartets == [514, 520]


# -- (c) one digestion spelling on the production path ------------------------


def test_production_builders_never_reach_the_per_quartet_scatter(
    water_sto3g, monkeypatch
):
    def forbidden(self, *args, **kwargs):
        raise AssertionError("per-quartet scatter on the production path")

    monkeypatch.setattr(QuartetEngine, "scatter_general", forbidden)
    h = kinetic_matrix(water_sto3g) + nuclear_matrix(water_sto3g)
    d = np.eye(water_sto3g.nbf)
    for algorithm, threads in (
        ("mpi-only", 1), ("private-fock", 2), ("shared-fock", 2),
    ):
        _, stats = make_fock_builder(
            algorithm, water_sto3g, h, nranks=2, nthreads=threads)(d)
        assert stats.quartets_computed == 55
    *_, stats = UHFPrivateFockBuilder(
        water_sto3g, h, nranks=2, nthreads=2)(d, 0.5 * d)
    assert stats.quartets_computed == 55
    # ... while the distributed-data builder is *about* that traffic.
    with pytest.raises(AssertionError, match="per-quartet scatter"):
        DistributedDataFockBuilder(water_sto3g, h, nranks=2)(d)


# -- (c') a cache-served build plans nothing and assembles nothing -------------


def test_cache_served_builds_replan_nothing(monkeypatch):
    """Structure, not seconds: with a cache attached, the builds after
    the first evaluate no integral, screen and partition nothing and
    digest the stored slabs as they are; the plan belongs to one
    ``Screening`` instance; direct SCF keeps none."""
    import repro.core.quartets as quartets_mod
    from repro.core.screening import Screening
    from repro.parallel.threads import ThreadTeam

    calls = dict.fromkeys(
        ("kernel", "partition", "survivors", "slab_assembly", "digested"), 0
    )

    def counting(owner, name, key):
        inner = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counting(quartets_mod, "eri_bra_slab", "kernel")
    counting(ThreadTeam, "partition", "partition")
    counting(Screening, "surviving_kl_pairs", "survivors")
    counting(Screening, "surviving_kl_under", "survivors")
    concatenate = np.concatenate

    def concatenate_counting_blocks(arrays, *args, **kwargs):
        calls["slab_assembly"] += np.ndim(arrays[0]) == 2
        return concatenate(arrays, *args, **kwargs)

    monkeypatch.setattr(np, "concatenate", concatenate_counting_blocks)

    basis = _fixture_basis("allene.xyz", "sto-3g")
    h = kinetic_matrix(basis) + nuclear_matrix(basis)
    rng = np.random.default_rng(3)
    densities = [d + d.T for d in rng.standard_normal((3, basis.nbf, basis.nbf))]
    geometry = dict(nranks=2, nthreads=2)
    builder = make_fock_builder(
        "shared-fock", basis, h, eri_cache_mb=64, **geometry)
    fresh = make_fock_builder("shared-fock", basis, h, **geometry)

    # Every slab a build digests: the stored array itself, or a new one?
    cache_slab = builder.eri_cache.slab

    def slab_watching_for_copies(ij, kls, *args):
        X = cache_slab(ij, kls, *args)
        stored = builder.eri_cache._store[ij].pieces.values()
        calls["digested"] += 1
        calls["slab_assembly"] += not any(X is piece.X for piece in stored)
        return X

    monkeypatch.setattr(builder.eri_cache, "slab", slab_watching_for_copies)

    _, cold = builder(densities[0])
    assert cold.eri_cache_misses == 1482
    planned = dict(calls)
    assert planned["kernel"] and planned["partition"] and planned["survivors"]
    assert planned["digested"] == 107
    assert builder._plans_for is builder.screening
    assert len(builder._plans) == cold.fj_flushes == 54  # one per task drawn

    focks = []
    for density in densities[1:]:
        fock, warm = builder(density)
        focks.append(fock)
        assert (warm.eri_cache_hits, warm.eri_cache_misses) == (1482, 0)
        assert (warm.quartets_computed, warm.quartets_screened) == (1482, 58)
        assert warm.per_thread_quartets == cold.per_thread_quartets
    # Nothing moved but the number of slabs digested.
    assert calls == {**planned, "digested": 3 * 107}
    for density, fock in zip(densities[1:], focks):
        assert np.array_equal(fock, fresh(density)[0])
    # ``fresh`` is direct: it plans every build and keeps none of it.
    assert calls["partition"] == planned["partition"] * 3
    assert not fresh._plans and fresh._plans_for is None

    # Another Screening instance — what incremental SCF and the process
    # backend's tau retune install — is planned afresh ...
    base = builder.screening
    builder.screening = base.with_tau(1e-6)
    before = dict(calls)
    fock, loose = builder(densities[0])
    assert builder._plans_for is builder.screening is not base
    assert calls["partition"] > before["partition"]
    assert calls["survivors"] > before["survivors"]
    assert calls["kernel"] == before["kernel"]  # subsets of stored slabs
    assert loose.quartets_computed < 1482 and loose.eri_cache_misses == 0
    assert loose.quartets_computed + loose.quartets_screened == 1540
    assert np.array_equal(
        fock,
        make_fock_builder(
            "shared-fock", basis, h, screening=base.with_tau(1e-6), **geometry
        )(densities[0])[0],
    )
    # ... and the original instance gets the original plan back.
    builder.screening = base
    fock, again = builder(densities[1])
    assert np.array_equal(fock, fresh(densities[1])[0])
    assert (again.quartets_computed, again.quartets_screened) == (1482, 58)
    assert again.per_thread_quartets == cold.per_thread_quartets
    assert (again.fi_flushes, again.fj_flushes) == (19, 54)


# -- (d) the ledger's gate: energies and iteration counts ---------------------


@pytest.mark.parametrize(
    "name, xyz, config",
    [
        ("allene_semidirect", "allene.xyz", SCFConfig(
            basis="sto-3g", algorithm="shared-fock", nranks=2, nthreads=2,
            eri_cache_mb=64)),
        ("hydroxide_d_direct", "hydroxide.xyz", SCFConfig(
            basis="6-31g(d)", charge=-1, algorithm="mpi-only", nranks=4,
            eri_cache_mb=None)),
        ("ethyl_uhf_private", "ethyl.xyz", SCFConfig(
            basis="sto-3g", method="uhf", multiplicity=2,
            algorithm="private-fock", nranks=2, nthreads=2)),
    ],
)
def test_direct_fixtures_reproduce_reference_energy_and_iterations(
    name, xyz, config
):
    """An order-of-summation accident must show up here, not in the ledger.

    Allene (D2d, degenerate orbitals, DIIS) turns 1e-15 differences in F
    into a different convergence trace; a 15th iteration is a failed
    operation for the benchmark driver.
    """
    want = json.loads((FIXTURES / "references.json").read_text())["direct"][name]
    basis = _fixture_basis(xyz, config.basis, config.charge)
    with build_scf(config, basis) as scf:
        result = scf.run()
    assert result.converged
    assert abs(result.energy - want["energy"]) <= 1e-8
    assert result.scf.niterations == want["iterations"]
