"""Batched digestion moves no bit.

``QuartetEngine.digest`` digests the plans of one bra shape together;
the rank programs apply what a run of tasks adds in program order.  So
a plan's six families must be the same bits alone and inside any batch,
and a rank's accumulator the same bits however its grants are blocked
— the property the cache on/off, kill-replay and process-parity gates
rest on.  Water/6-31G(d) has L and d shells; the ``spdf`` hydroxide
adds an f shell, whose 10 functions make bra sums of 8 terms and more
(where a NumPy reduction would switch to pairwise summation).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chem.basis import BasisSet
from repro.chem.molecule import Molecule
from repro.core.fock_uhf import UHFPrivateFockBuilder
from repro.core.indexing import decode_pair, npairs
from repro.core.quartets import QuartetEngine
from repro.core.scf_driver import make_fock_builder
from repro.integrals.cache import QuartetCache
from repro.integrals.onee import kinetic_matrix, nuclear_matrix
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.resilience.faults import FaultPlan

from .conftest import ledger_fixture_basis


@pytest.fixture(scope="module")
def spdf_hydroxide():
    """OH- with an L, a d and a contracted f shell on O, s + p on H."""
    from repro.chem.basis import data

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setitem(data._BASIS_LIBRARY, "test-spdf", {
            "O": (
                ("S", ((130.70932, 0.15432897), (23.808861, 0.53532814),
                       (6.4436083, 0.44463454))),
                ("L", ((5.0331513, -0.09996723, 0.15591627),
                       (1.1695961, 0.39951283, 0.60768372),
                       (0.3803890, 0.70011547, 0.39195739))),
                ("D", ((0.8, 1.0),)),
                ("F", ((1.4, 0.6), (0.5, 0.5))),
            ),
            "H": (
                ("S", ((3.42525091, 0.15432897), (0.62391373, 0.53532814),
                       (0.16885540, 0.44463454))),
                ("P", ((1.1, 1.0),)),
            ),
        })
        mol = Molecule(["O", "H"], [(0, 0, 0), (0, 0, 1.83)], charge=-1)
        yield BasisSet(mol, "test-spdf")


@pytest.fixture(scope="module", params=["water_631gd", "spdf"])
def engine(request):
    basis = request.getfixturevalue(
        "spdf_hydroxide" if request.param == "spdf" else request.param
    )
    return QuartetEngine(basis, cache=QuartetCache(1 << 28))


def _bras_by_shape(engine):
    shapes: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for ij in range(npairs(engine.basis.nshells)):
        i, j = decode_pair(ij)
        shapes.setdefault(engine.share_plan(i, j, [0]).shape, []).append((i, j))
    return shapes


@st.composite
def _batches(draw, engine):
    """Plans of one bra shape — random bras, random kets of their
    tasks, single-column (s|s)-ket plans among them — and a split of
    them into consecutive batches."""
    shapes = _bras_by_shape(engine)
    bras = shapes[draw(st.sampled_from(sorted(shapes)))]
    plans = []
    for _ in range(draw(st.integers(1, 6))):
        i, j = draw(st.sampled_from(bras))
        top = i * (i + 1) // 2 + j
        kls = draw(st.lists(st.integers(0, top), min_size=1, max_size=5,
                            unique=True))
        plans.append(engine.share_plan(i, j, kls))
    cuts = draw(st.lists(st.integers(1, len(plans)), max_size=3, unique=True))
    return plans, sorted({0, *cuts, len(plans)})


def _digest(engine, plans, dj, dk):
    """The families of ``plans`` digested as one batch, RHF weights."""
    batch = engine.bra_batch(plans)
    return engine.digest(batch, 2.0 * dj, -0.5 * dk, engine.batch_slab(batch))


def _plan_families(fam, p):
    """Plan ``p``'s slices of a digest: (ji, kl, kli, klj)."""
    a = int(fam.batch.starts[p])
    z = a + fam.batch.plans[p].fac.size
    return fam.ji[p], fam.kl[a:z], fam.kli[..., a:z], fam.klj[..., a:z]


@given(data=st.data(), seed=st.integers(0, 2**31 - 1),
       nchannels=st.integers(1, 2))
@settings(max_examples=30, deadline=None)
def test_families_are_bitwise_alone_and_in_any_batch(
    engine, data, seed, nchannels
):
    plans, cuts = data.draw(_batches(engine))
    n = engine.basis.nbf
    rng = np.random.default_rng(seed)
    dj = rng.standard_normal((n, n))
    dk = rng.standard_normal((nchannels, n, n))
    alone = [
        _plan_families(_digest(engine, [p], dj, dk), 0)
        for p in plans
    ]
    for a, z in zip(cuts, cuts[1:]):
        fam = _digest(engine, plans[a:z], dj, dk)
        for p in range(z - a):
            for got, want in zip(_plan_families(fam, p), alone[a + p]):
                assert got.shape == want.shape
                assert np.array_equal(got, want)
    # The same plans in reverse order: the same bits again.
    fam = _digest(engine, plans[::-1], dj, dk)
    for p, want in enumerate(alone[::-1]):
        for got, w in zip(_plan_families(fam, p), want):
            assert np.array_equal(got, w)


@pytest.mark.parametrize("widest", [False, True])
def test_single_column_plans_batch_with_wide_ones(engine, widest):
    """A plan on the (s s| ket has one column: alone, its sums run over
    arrays with an axis of length one, which is where a NumPy reduction
    takes another path than in a batch — pairwise instead of in order
    once a bra has 8 function pairs or more (the widest bra here)."""
    shapes = _bras_by_shape(engine)
    shape = max(shapes, key=lambda s: s[0] * s[1]) if widest else (1, 1)
    *_, (i, j) = shapes[shape]
    narrow = engine.share_plan(i, j, [0])
    wide = engine.share_plan(i, j, list(range(i * (i + 1) // 2 + j + 1)))
    assert narrow.fac.size == 1 and wide.fac.size > 8
    assert not widest or shape[0] * shape[1] >= 8
    n = engine.basis.nbf
    d = np.random.default_rng(3).standard_normal((n, n))
    fam = _digest(engine, [wide, narrow, wide], d, d[None])
    alone = _digest(engine, [narrow], d, d[None])
    for got, want in zip(_plan_families(fam, 1), _plan_families(alone, 0)):
        assert np.array_equal(got, want)


# -- grant blocks ---------------------------------------------------------


def _one_task_blocks(builder):
    """Hand every grant over as a block of its own."""
    whole = builder._grants

    def grants(dlb, rank):
        for block in whole(dlb, rank):
            for task in block:
                yield [task]

    builder._grants = grants


@pytest.mark.parametrize("fault", [None, "kill:rank=1:cycle=1:after=3"])
@pytest.mark.parametrize(
    "algorithm", ["mpi-only", "private-fock", "shared-fock", "uhf"]
)
def test_whole_queue_and_one_task_blocks_give_the_same_bits(algorithm, fault):
    basis = ledger_fixture_basis("allene.xyz", "sto-3g")
    h = kinetic_matrix(basis) + nuclear_matrix(basis)
    rng = np.random.default_rng(11)
    d = rng.standard_normal((2, basis.nbf, basis.nbf))
    d = d + d.transpose(0, 2, 1)

    def build(blocked):
        kw = dict(nranks=2, nthreads=1 if algorithm == "mpi-only" else 2)
        if fault is not None:
            kw["fault_plan"] = FaultPlan.from_spec(fault, nranks=2)
        if algorithm == "uhf":
            builder = UHFPrivateFockBuilder(basis, h, **kw)
        else:
            builder = make_fock_builder(algorithm, basis, h, **kw)
        if blocked:
            _one_task_blocks(builder)
        out = builder(d[0], d[1]) if algorithm == "uhf" else builder(d[0])
        return out[:-1], out[-1]

    (whole, whole_stats), (single, single_stats) = build(False), build(True)
    for a, b in zip(whole, single):
        assert np.array_equal(a, b)
    assert whole_stats.as_dict() == single_stats.as_dict()


# -- the registry, once per build -------------------------------------------


def _snapshot(xyz, basis_name, charge, algorithm, **kw):
    basis = ledger_fixture_basis(xyz, basis_name, charge=charge)
    h = kinetic_matrix(basis) + nuclear_matrix(basis)
    d = np.eye(basis.nbf)
    registry = MetricsRegistry()
    with use_metrics(registry):
        if algorithm == "uhf":
            UHFPrivateFockBuilder(basis, h, **kw)(d, 0.5 * d)
        else:
            make_fock_builder(algorithm, basis, h, **kw)(d)
    return registry.snapshot()


def _fock(algorithm, **counters):
    return {f"fock.{k}{{algorithm={algorithm}}}": v for k, v in counters.items()}


def test_a_builds_registry_snapshot_is_the_parents():
    """Flushes publish their ``reduction.*`` totals once a build, and
    every counter of one build on the three ledger fixtures keeps the
    value it had when each flush published its own."""
    zero = dict(eri_cache_evictions=0, races=0, writes_checked=0)
    allene = _snapshot("allene.xyz", "sto-3g", 0, "shared-fock",
                       nranks=2, nthreads=2, eri_cache_mb=64)
    assert allene == {
        "dlb.grants{rank=0}": 28, "dlb.grants{rank=1}": 27,
        "eri.batch_size": {
            "count": 112, "sum": 124497.0, "min": 81.0, "max": 2349.0,
            "mean": 124497.0 / 112, "std": 642.9366864851032,
            "buckets": allene["eri.batch_size"]["buckets"],
        },
        "eri.boys_calls": 112, "eri.quartets": 1537,
        **_fock("shared-fock", builds=1, eri_cache_hits=0,
                eri_cache_misses=1482, fi_flushes=19, fj_flushes=54,
                quartets_computed=1482, quartets_screened=58,
                reduce_bytes=5776, **zero),
        "reduction.cooperative_flushes": 73, "reduction.flush_chunks": 219,
    }
    assert allene["eri.batch_size"]["buckets"][-3:] == [
        [120.0, 5], [300.0, 15], ["+Inf", 112]]

    hydroxide = _snapshot("hydroxide.xyz", "6-31g(d)", -1, "mpi-only",
                          nranks=4)
    assert {k: v for k, v in hydroxide.items() if k != "eri.batch_size"} == {
        "dlb.grants{rank=0}": 6, "dlb.grants{rank=1}": 5,
        "dlb.grants{rank=2}": 5, "dlb.grants{rank=3}": 5,
        "eri.boys_calls": 29, "eri.quartets": 252,
        **_fock("mpi-only", builds=1, eri_cache_hits=0, eri_cache_misses=0,
                fi_flushes=0, fj_flushes=0, quartets_computed=231,
                quartets_screened=0, reduce_bytes=9248, **zero),
    }
    assert (hydroxide["eri.batch_size"]["count"],
            hydroxide["eri.batch_size"]["sum"]) == (29, 13473.0)

    ethyl = _snapshot("ethyl.xyz", "sto-3g", 0, "uhf",
                      nranks=2, nthreads=2, eri_cache_mb=64)
    assert {k: v for k, v in ethyl.items() if k != "eri.batch_size"} == {
        "dlb.grants{rank=0}": 5, "dlb.grants{rank=1}": 4,
        "eri.boys_calls": 93, "eri.quartets": 1079,
        **_fock("uhf-private-fock", builds=1, eri_cache_hits=0,
                eri_cache_misses=1034, fi_flushes=0, fj_flushes=0,
                quartets_computed=1034, quartets_screened=1,
                reduce_bytes=7200, **zero),
    }
    assert (ethyl["eri.batch_size"]["count"],
            ethyl["eri.batch_size"]["sum"]) == (93, 87399.0)
