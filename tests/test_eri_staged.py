"""What the staged fixed-bra kernel rests on.

:func:`~repro.integrals.eri.eri_bra_slab` evaluates the Boys function
once per share at the share's highest order, runs the Hermite recursion
once per distinct ket order on a prefix of those rows, and only the ket
transform per class.  That is exact — bitwise — because (1) row ``m`` of
``boys(M, x)`` does not depend on ``M``, and (2) nothing reduces across
kets, so a ket's columns are the same alone, in any sub-share, in any
order, and wherever the one memory cap splits either stage.  The
reference throughout is the *paired* kernel one quartet at a time.
The count tests pin how often each stage runs in one Fock build.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.quartets as quartets_module
from repro.chem.basis import BasisSet
from repro.chem.graphene import bilayer_graphene
from repro.chem.molecule import Molecule
from repro.core.scf_driver import make_fock_builder
from repro.integrals import eri as eri_module
from repro.integrals.boys import GRID_MAX, boys
from repro.integrals.eri import eri_bra_slab, eri_class_batch, pair_stacks
from repro.integrals.hermite import hermite_from_boys
from repro.integrals.onee import core_hamiltonian
from repro.obs.metrics import MetricsRegistry, use_metrics
from tests import oracles

FIXTURES = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "fixtures"


def _basis(name):
    if name == "graphene_d":
        return BasisSet(bilayer_graphene(1), "6-31g(d)")
    basis, charge = {
        "allene": ("sto-3g", 0), "hydroxide": ("6-31g(d)", -1), "ethyl": ("sto-3g", 0),
    }[name]
    xyz = (FIXTURES / f"{name}.xyz").read_text()
    return BasisSet(Molecule.from_xyz(xyz, charge=charge), basis)


# -- stage 1: one Boys evaluation serves every lower order -----------------------


@given(
    st.integers(1, 12).flatmap(lambda M: st.tuples(st.just(M), st.integers(0, M - 1))),
    st.sampled_from(["grid", "asymptotic", "straddling"]),
    st.integers(2, 40),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_boys_rows_do_not_depend_on_the_highest_order(orders, regime, n, seed):
    """``boys(M, x)[: m + 1]`` is bitwise ``boys(m, x)`` for ``m < M <= 12``
    on arrays below, above and straddling ``GRID_MAX``: the Taylor rows
    and the upward recursion are per order and per element."""
    M, m = orders
    rng = np.random.default_rng(seed)
    lo, hi = {
        "grid": (0.0, GRID_MAX), "asymptotic": (GRID_MAX, 400.0),
        "straddling": (GRID_MAX - 4.0, GRID_MAX + 4.0),
    }[regime]
    x = rng.uniform(lo, hi, n)
    if regime == "straddling":
        x[: 2] = GRID_MAX - 1.0, GRID_MAX  # both branches, whatever the draw
    assert np.array_equal(boys(M, x)[: m + 1], boys(m, x))


@given(
    st.integers(0, 12),
    st.sampled_from(["grid", "asymptotic", "straddling"]),
    st.integers(1, 40),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_running_products_are_the_accumulate_spelling(lmax, regime, n, seed):
    """The Taylor weights of the Boys grid and the powers ``(-2p)^m`` of
    the Hermite recursion, taken a row at a time, are bitwise the
    ``np.multiply.accumulate`` spelling (:mod:`tests.oracles`): the same
    products in the same order, in both Boys regimes and across them."""
    rng = np.random.default_rng(seed)
    lo, hi = {
        "grid": (0.0, GRID_MAX), "asymptotic": (GRID_MAX, 400.0),
        "straddling": (GRID_MAX - 4.0, GRID_MAX + 4.0),
    }[regime]
    x = rng.uniform(lo, hi, n)
    if regime == "straddling":
        x[-1] = GRID_MAX  # the asymptotic branch, whatever the draw
    F = boys(lmax, x)
    assert np.array_equal(F, oracles.boys_accumulate(lmax, x))
    p = rng.uniform(0.05, 40.0, n)
    X = rng.standard_normal((3, n))
    assert np.array_equal(
        hermite_from_boys(lmax, p, X, F),
        oracles.hermite_from_boys_accumulate(lmax, p, X, F),
    )


# -- the independence invariant on whole fixtures ---------------------------------


@pytest.fixture(
    scope="module", params=["allene", "hydroxide", "ethyl", "graphene_d"]
)
def pairs_and_singles(request):
    """The pair data of a fixture and every canonical quartet's block
    from the paired kernel, one quartet per call."""
    pairs = pair_stacks(_basis(request.param))
    singles = {
        (ij, kl): eri_class_batch(pairs.pair(ij), pairs.pair(kl))[0]
        for ij in range(pairs.cls.size)
        for kl in range(ij + 1)
    }
    return pairs, singles


def _columns(singles, ij, kls):
    return np.concatenate([singles[ij, int(kl)] for kl in kls], axis=1)


def test_every_share_is_the_paired_kernel_one_quartet_at_a_time(pairs_and_singles):
    """For every bra: each ket alone, the whole Algorithm-1 share and the
    share back to front are bitwise the paired one-quartet blocks."""
    pairs, singles = pairs_and_singles
    for ij in range(pairs.cls.size):
        kls = np.arange(ij + 1)
        for order in (kls, kls[::-1]):
            assert np.array_equal(
                eri_bra_slab(pairs, ij, order), _columns(singles, ij, order)
            ), ij
        for kl in (0, ij // 2, ij):
            assert np.array_equal(
                eri_bra_slab(pairs, ij, np.array([kl])), singles[ij, kl]
            ), (ij, kl)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_any_sub_share_in_any_order_under_any_cap(pairs_and_singles, data):
    """Property: a ket's columns do not depend on which kets share the
    call, on their order, or on where ``MAX_BATCH_DOUBLES`` splits."""
    pairs, singles = pairs_and_singles
    ij = data.draw(st.integers(0, pairs.cls.size - 1), label="ij")
    kls = data.draw(
        st.lists(st.integers(0, ij), min_size=1, max_size=12, unique=True),
        label="kls",
    )
    cap = data.draw(
        st.sampled_from([1, 300, 2_000, 12_000, 60_000, eri_module.MAX_BATCH_DOUBLES]),
        label="cap",
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(eri_module, "MAX_BATCH_DOUBLES", cap)
        slab = eri_bra_slab(pairs, ij, np.array(kls))
    assert np.array_equal(slab, _columns(singles, ij, kls))


def _stage_calls(monkeypatch):
    """Count the calls of the three stages' working functions."""
    calls = dict.fromkeys(("boys", "hermite_from_boys", "_ket_transform"), 0)

    def counting(name):
        inner = getattr(eri_module, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(eri_module, name, wrapper)

    for name in calls:
        counting(name)
    return calls


def test_a_split_at_every_ket_boundary_of_both_stages(pairs_and_singles, monkeypatch):
    """A cap of one double leaves every ket alone in stage 1 and in
    stage 2 (at least one ket each): as many Boys evaluations and
    recursions as kets, not a bit changed.  Larger caps split both
    stages in fewer places, then stage 2 alone, then nothing."""
    pairs, singles = pairs_and_singles
    calls = _stage_calls(monkeypatch)

    def slab_under(cap, ij, kls):
        monkeypatch.setattr(eri_module, "MAX_BATCH_DOUBLES", cap)
        calls.update(dict.fromkeys(calls, 0))
        assert np.array_equal(
            eri_bra_slab(pairs, ij, kls), _columns(singles, ij, kls)
        ), (cap, ij)

    for ij in range(pairs.cls.size):
        kls = np.arange(ij + 1)
        slab_under(1, ij, kls)
        assert calls == dict.fromkeys(calls, kls.size)

    # Between the two: the fixture's most contracted pair against every
    # pair, under caps from 64 doubles up.
    ij = int(pairs.prim_count.argmax())
    kls = np.arange(pairs.cls.size)
    whole = eri_bra_slab(pairs, ij, kls)
    orders = len(set(pairs.ltot.tolist()))
    seen = set()
    for quarter_log2 in range(4 * 6, 4 * 20):
        cap = int(2 ** (quarter_log2 / 4))
        monkeypatch.setattr(eri_module, "MAX_BATCH_DOUBLES", cap)
        calls.update(dict.fromkeys(calls, 0))
        assert np.array_equal(eri_bra_slab(pairs, ij, kls), whole), cap
        seen.add((calls["boys"] > 1, calls["hermite_from_boys"] > orders))
    assert seen == {(True, True), (False, True), (False, False)}


# -- how often each stage runs in one Fock build ----------------------------------


def _builds(name, algorithm, nranks, nthreads, monkeypatch):
    """Successive builds of one builder on one density: per build the
    stage calls, the share sizes and the stats, plus how often the
    engine planned a share (``share_plan``) and scheduled one for the
    kernel (``ket_schedule``)."""
    basis = _basis(name)
    builder = make_fock_builder(
        algorithm, basis, core_hamiltonian(basis), nranks=nranks, nthreads=nthreads
    )
    rng = np.random.default_rng(0)
    density = rng.standard_normal((basis.nbf, basis.nbf))
    calls = _stage_calls(monkeypatch)
    shares = []
    slab = quartets_module.eri_bra_slab
    monkeypatch.setattr(
        quartets_module, "eri_bra_slab",
        lambda pairs, ij, kls, *schedule: (
            shares.append(kls.size) or slab(pairs, ij, kls, *schedule)
        ),
    )
    planned = dict.fromkeys(("share_plan", "ket_schedule"), 0)
    for owner, name in (
        (quartets_module.QuartetEngine, "share_plan"),
        (quartets_module, "ket_schedule"),
    ):
        def wrapper(*args, inner=getattr(owner, name), name=name):
            planned[name] += 1
            return inner(*args)

        monkeypatch.setattr(owner, name, wrapper)
    while True:
        calls.update(dict.fromkeys(calls, 0))
        planned.update(dict.fromkeys(planned, 0))
        shares.clear()
        registry = MetricsRegistry()
        with use_metrics(registry):
            _, stats = builder(density + density.T)
        assert registry.counter("eri.boys_calls").value == calls["boys"]
        assert registry.counter("eri.quartets").value == stats.quartets_computed
        assert registry.histogram("eri.batch_size").count == calls["boys"]
        yield dict(calls), list(shares), stats, dict(planned)


def test_direct_hydroxide_build_stage_counts(monkeypatch):
    """hydroxide/6-31G(d), mpi-only on 4 ranks, no cache: one build is
    231 quartets in 21 non-empty shares — 21 Boys evaluations (119
    before the stages were split: one per bra and ket class), 86 Hermite
    recursions (one per share and distinct ket order; 119 before) and
    119 ket transforms (one per share and ket class; unchanged).  The
    first build plans and schedules every share; the second only runs
    the same stages — nothing is planned or scheduled again."""
    builds = _builds("hydroxide", "mpi-only", 4, 1, monkeypatch)
    counts = {"boys": 21, "hermite_from_boys": 86, "_ket_transform": 119}
    calls, shares, stats, planned = next(builds)
    assert stats.quartets_computed == sum(shares) == 231
    assert len(shares) == 21 and min(shares) > 0
    assert calls == counts
    assert planned == {"share_plan": 21, "ket_schedule": 21}
    calls, shares, stats, planned = next(builds)
    assert stats.quartets_computed == sum(shares) == 231
    assert len(shares) == 21
    assert calls == counts
    assert planned == {"share_plan": 0, "ket_schedule": 0}


def test_cold_allene_build_is_one_boys_evaluation_per_share(monkeypatch):
    """allene/STO-3G, shared-fock 2x2: the cold build's 1482 quartets
    arrive in 107 thread shares, each ONE Boys evaluation (385 kernel
    calls — one per share and ket class, each with its own — before)."""
    calls, shares, stats, _ = next(_builds("allene", "shared-fock", 2, 2, monkeypatch))
    assert stats.quartets_computed == sum(shares) == 1482
    assert len(shares) == 107 and min(shares) > 0
    assert calls["boys"] == 107
