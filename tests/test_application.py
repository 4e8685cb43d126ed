"""The kept application index adds exactly what the per-plan oracle adds.

Each thread's :class:`~repro.core.fock_base.Layout` keeps one flat
target index of every term its plans add, in the order they are added,
built with the layout in the cold build.  Every build then adds a
layout's families (a replica's whole layout, or a shared-fock thread's
plans of one task) with one ``np.add.at``.  The reference is
:func:`tests.oracles.add_into`, plan by plan with its index arithmetic
done afresh: swapped in for the stream, every build of every algorithm
must give the same bits, under a budget that keeps every layout and
under one that keeps none (a layout built, used and dropped each build).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.fock_base import Layout, ParallelFockBuilderBase
from repro.core.fock_uhf import UHFPrivateFockBuilder
from repro.core.scf_driver import make_fock_builder
from repro.integrals.onee import kinetic_matrix, nuclear_matrix
from tests import oracles

from .conftest import ledger_fixture_basis

GEOMETRIES = [
    ("mpi-only", 4, 1), ("private-fock", 2, 2), ("shared-fock", 2, 2),
    ("shared-fock", 3, 1), ("uhf", 2, 2),
]
#: label -> ``eri_cache_mb``: 64 MB keeps every plan and layout; 20 kB
#: (``benchmarks/fock_bits.py``'s thrashing cache) keeps almost none.
BUDGETS = {"kept": 64.0, "thrashing": 20_000 / 1048576}


@pytest.fixture(scope="module")
def ethyl():
    basis = ledger_fixture_basis("ethyl.xyz", "sto-3g")
    h = kinetic_matrix(basis) + nuclear_matrix(basis)
    rng = np.random.default_rng(7)
    d = rng.standard_normal((3, 2, basis.nbf, basis.nbf))
    return basis, h, d + d.transpose(0, 1, 3, 2)


def _builder(basis, h, algorithm, nranks, nthreads, cache_mb):
    kw = dict(nranks=nranks, nthreads=nthreads, eri_cache_mb=cache_mb)
    if algorithm == "uhf":
        return UHFPrivateFockBuilder(basis, h, **kw)
    return make_fock_builder(algorithm, basis, h, **kw)


def _build(builder, d):
    out = builder(d[0], d[1]) if builder.algorithm_name.startswith("uhf") else builder(d[0])
    return out[:-1]


def _per_plan_oracle(monkeypatch):
    """Swap every layout's stream for :func:`tests.oracles.add_into`,
    told where the layout's thread puts its families."""
    where: dict[int, tuple] = {}
    layout_of = ParallelFockBuilderBase._layout

    def layout(self, run, t):
        built = layout_of(self, run, t)
        where[id(built)] = self._target(t)
        return built

    def apply(self, digested, target, kl_target=None, lo=0, hi=None):
        row_stride, channel_stride, _, *rest = where[id(self)]
        bases = rest[0] if rest else None
        for fam, p in digested[lo:hi]:
            plan = fam.batch.plans[p]
            oracles.add_into(
                fam, p, target, bases or (plan.si.start, plan.sj.start),
                row_stride, channel_stride, kl_target,
            )

    monkeypatch.setattr(ParallelFockBuilderBase, "_layout", layout)
    monkeypatch.setattr(Layout, "apply", apply)


@pytest.mark.parametrize("budget", sorted(BUDGETS))
@pytest.mark.parametrize("algorithm, nranks, nthreads", GEOMETRIES)
def test_the_stream_is_bitwise_the_per_plan_oracle(
    ethyl, monkeypatch, algorithm, nranks, nthreads, budget
):
    basis, h, densities = ethyl
    geometry = (algorithm, nranks, nthreads, BUDGETS[budget])
    stream = _builder(basis, h, *geometry)
    got = [_build(stream, d) for d in densities]
    if budget == "kept":
        assert stream._prepared
    with monkeypatch.context() as patch:
        _per_plan_oracle(patch)
        oracle = _builder(basis, h, *geometry)
        want = [_build(oracle, d) for d in densities]
    for g, w in zip(got, want):
        for a, b in zip(g, w):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("algorithm, nranks, nthreads", GEOMETRIES)
def test_a_kept_layout_builds_its_stream_once(
    ethyl, monkeypatch, algorithm, nranks, nthreads
):
    basis, h, densities = ethyl
    built = []
    layout_of = Layout.of.__func__

    def of(cls, *args, **kwargs):
        layout = layout_of(cls, *args, **kwargs)
        built.append(layout)
        return layout

    monkeypatch.setattr(Layout, "of", classmethod(of))
    kept = _builder(basis, h, algorithm, nranks, nthreads, BUDGETS["kept"])
    counts = []
    for d in densities:
        before = len(built)
        _build(kept, d)
        counts.append(len(built) - before)
    assert counts[0] == len(kept._prepared) > 0
    assert counts[1:] == [0, 0]
    assert all(any(k is b for b in built) for k in kept._prepared.values())

    # Under a thrashing budget a layout is built, used and dropped: the
    # same code, every build.
    thrashing = _builder(basis, h, algorithm, nranks, nthreads, BUDGETS["thrashing"])
    counts = []
    for d in densities:
        before = len(built)
        _build(thrashing, d)
        counts.append(len(built) - before)
    assert counts[1] == counts[2] > len(thrashing._prepared)


@pytest.mark.parametrize("algorithm, nranks, nthreads", GEOMETRIES)
def test_stream_bytes_are_counted_under_the_plan_budget(
    ethyl, algorithm, nranks, nthreads
):
    basis, h, densities = ethyl
    builder = _builder(basis, h, algorithm, nranks, nthreads, BUDGETS["kept"])
    _build(builder, densities[0])
    layouts = list(builder._prepared.values())
    assert layouts
    plans = sum(
        plan.nbytes for plan in builder._plans.values()
        if plan is not builder._plan_last
    )
    assert builder._plan_bytes == plans + sum(layout.nbytes for layout in layouts)
    for layout in layouts:
        assert layout.index.dtype == np.int32
        assert layout.index.size == layout.ends[-1]
        assert layout.nbytes >= layout.index.nbytes + sum(
            batch.nbytes for batch in layout.batches
        )
    # One index entry per added term: per plan, its (i, j) block per
    # channel and, per column, a record over both bra blocks per
    # channel, plus its (k, l) element per channel in a replica.
    C = 2 if algorithm == "uhf" else 1
    kl = 0 if algorithm == "shared-fock" else C
    terms = sum(
        len(batch.plans) * C * batch.ni * batch.nj
        + batch.ncols * (2 * C * (batch.ni + batch.nj) + kl)
        for layout in layouts for batch in layout.batches
    )
    assert sum(layout.index.size for layout in layouts) == terms
