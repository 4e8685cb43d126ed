"""Batched ERI path: property tests against the scalar reference.

The kernel (one vectorized Boys call per share of quartets, compact
level-planned Hermite recursion, per-primitive stacked GEMMs) must
match the scalar primitive-loop path — kept in
:mod:`tests.oracles` — to tight absolute tolerance over random
exponents and centers up to f shells, a composite quartet's block must
be the pure sub-shell quartets at their offsets, and a quartet's block
must not depend, **bitwise**, on what else shared its batch.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chem.basis import BasisSet
from repro.chem.basis.shell import CompositeShell, Shell, normalize_contracted
from repro.chem.molecule import Molecule
from repro.core.indexing import decode_pair, npairs, pair_index
from repro.core.quartets import QuartetEngine
from repro.integrals import eri as eri_module
from repro.integrals.eri import (
    PairSet,
    ShellPair,
    eri_bra_slab,
    eri_class_batch,
    eri_shell_quartet,
)
from repro.integrals.hermite import (
    hermite_coulomb_batch,
    hermite_index,
    hermite_tuv,
)
from repro.obs.metrics import MetricsRegistry, use_metrics
from tests.oracles import (
    concat_stacks,
    eri_bra_slab_scalar,
    eri_class_batch_scalar,
    eri_shell_quartet_scalar,
    hermite_coulomb,
    take_pairs,
)

#: Angular momenta covered by the randomized quartet sweep (s..f).
LMAX = 3


def _random_shell(rng, l, nprim, box=1.5):
    exps = rng.uniform(0.08, 4.0, nprim)
    raw = rng.uniform(0.2, 1.0, nprim)
    coefs = normalize_contracted(l, exps, raw)
    center = rng.uniform(-box, box, 3)
    return Shell(l, exps, coefs, center)


# -- the Hermite recursion ---------------------------------------------------


@pytest.mark.parametrize("lmax", [0, 1, 2, 4, 6, 9, 4 * LMAX])
def test_hermite_coulomb_batch_matches_scalar(lmax):
    """Compact, level-planned R^0_{tuv} == the per-point scalar recursion,
    bitwise (same floating-point order), at every stored component."""
    rng = np.random.default_rng(lmax)
    n = 37
    p = rng.uniform(0.05, 8.0, n)
    PC = rng.uniform(-2.5, 2.5, (n, 3))
    PC[0] = 0.0  # include the coincident-centers corner case
    batch = hermite_coulomb_batch(lmax, p, PC)
    t, u, v = hermite_tuv(lmax).T
    assert batch.shape == (n, (lmax + 1) * (lmax + 2) * (lmax + 3) // 6)
    assert batch.flags.c_contiguous
    for i in range(n):
        ref = hermite_coulomb(lmax, float(p[i]), PC[i])
        np.testing.assert_array_equal(batch[i], ref[t, u, v])


def test_hermite_compact_order_is_a_prefix_and_inverts():
    """Only t+u+v <= lmax is stored; lmax's order is a prefix of lmax+1's."""
    for lmax in range(7):
        tuv, index = hermite_tuv(lmax), hermite_index(lmax)
        assert (tuv.sum(axis=1) <= lmax).all()
        assert np.array_equal(hermite_tuv(lmax + 1)[: len(tuv)], tuv)
        assert np.array_equal(
            index[tuv[:, 0], tuv[:, 1], tuv[:, 2]], np.arange(len(tuv))
        )
        assert (index >= 0).sum() == len(tuv)


def test_hermite_coulomb_batch_rejects_bad_shapes():
    with pytest.raises(ValueError):
        hermite_coulomb_batch(2, np.ones((2, 2)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        hermite_coulomb_batch(2, np.ones(3), np.zeros((2, 3)))


# -- one quartet against the oracle ------------------------------------------


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_batched_quartet_matches_scalar_reference(seed):
    """Property: batched == scalar quartet to <= 1e-13 up to f shells."""
    rng = np.random.default_rng(seed)
    ls = rng.integers(0, LMAX + 1, size=4)
    nprims = rng.integers(1, 4, size=4)
    sh = [_random_shell(rng, int(l), int(n)) for l, n in zip(ls, nprims)]
    bra = ShellPair(sh[0], sh[1])
    ket = ShellPair(sh[2], sh[3])
    batched = eri_shell_quartet(bra, ket)
    scalar = eri_shell_quartet_scalar(bra, ket)
    assert batched.shape == scalar.shape
    np.testing.assert_allclose(batched, scalar, rtol=0.0, atol=1e-13)


def test_high_contraction_batched_matches_scalar():
    """Deep contractions (the batching payoff case) stay exact."""
    rng = np.random.default_rng(99)
    sa = _random_shell(rng, 0, 6)
    sb = _random_shell(rng, 1, 6)
    bra = ShellPair(sa, sb)
    batched = eri_shell_quartet(bra, bra)
    scalar = eri_shell_quartet_scalar(bra, bra)
    np.testing.assert_allclose(batched, scalar, rtol=0.0, atol=1e-13)


def test_one_boys_call_per_quartet_metric():
    """One-ket calls: ONE Boys call per quartet; a share: one per share,
    with ``eri.quartets`` advanced by the share's quartets."""
    rng = np.random.default_rng(5)
    shells = [
        _random_shell(rng, l, nprim) for _ in range(4) for l, nprim in ((0, 3), (1, 2))
    ]
    pairs = PairSet(shells, [0, 2, 4, 6], [1, 3, 5, 7])
    registry = MetricsRegistry()
    with use_metrics(registry):
        for bra in range(4):
            for ket in range(4):
                eri_shell_quartet(pairs.pair(bra), pairs.pair(ket))
    nquartets = 4 ** 2
    assert registry.counter("eri.quartets").value == nquartets
    assert registry.counter("eri.boys_calls").value == nquartets
    hist = registry.histogram("eri.batch_size")
    assert hist.count == nquartets
    assert hist.min == hist.max == 6 * 6  # 3x2 bra prims x 3x2 ket prims

    registry = MetricsRegistry()
    with use_metrics(registry):
        eri_bra_slab(pairs, 0, np.arange(4))
    assert registry.counter("eri.quartets").value == 4
    assert registry.counter("eri.boys_calls").value == 1
    assert registry.histogram("eri.batch_size").max == 4 * 36


def test_signed_ket_matrices_cached_on_pair():
    """The ket parity is one vector per pair, in the compact Hermite
    order — no signed copy of the E tensor, no per-quartet sign pass —
    and it is what makes (ab|cd) and (cd|ab) transposes of each other."""
    rng = np.random.default_rng(3)
    pair = ShellPair(_random_shell(rng, 1, 2), _random_shell(rng, 2, 2))
    other = ShellPair(_random_shell(rng, 0, 3), _random_shell(rng, 1, 1))
    np.testing.assert_array_equal(
        pair.parity, (-1.0) ** hermite_tuv(pair.ltot).sum(axis=1)
    )
    assert pair.ebra.shape == (4, 3 * 6, len(hermite_tuv(3)))
    np.testing.assert_allclose(
        eri_shell_quartet(pair, other),
        eri_shell_quartet(other, pair).transpose(2, 3, 0, 1),
        rtol=0.0, atol=1e-14,
    )


# -- shares and paired stacks: oracle, memory cap ------------------------------


def _random_class(rng, la, lb, npairs_):
    return [
        ShellPair(
            _random_shell(rng, la, int(rng.integers(1, 5))),
            _random_shell(rng, lb, int(rng.integers(1, 5))),
        )
        for _ in range(npairs_)
    ]


def _random_pair_set(rng, classes):
    """A :class:`PairSet` of random pairs: one pair of fresh shells per
    ``(la, lb)`` of ``classes`` (pure momenta, or tuples for composite
    sides), 1..4 primitives a side."""
    sides = [
        _random_composite(rng, l, int(rng.integers(1, 5))) if isinstance(l, tuple)
        else _random_shell(rng, l, int(rng.integers(1, 5)))
        for pair in classes for l in pair
    ]
    n = len(classes)
    return PairSet(sides, 2 * np.arange(n), 2 * np.arange(n) + 1)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_class_batch_matches_scalar_oracle(seed):
    """A ragged share (1..16 primitive pairs per ket, two ket classes of
    one order and one of another) against the scalar loops to 1e-12: one
    bra against the share, and one bra per ket."""
    rng = np.random.default_rng(seed)
    la, lb, lc, ld = (int(l) for l in rng.integers(0, 3, size=4))
    pairs = _random_pair_set(
        rng, [(la, lb)] + [(lc, ld), (ld, lc)] * 2 + [(lc, 0)] * 2
    )
    kls = rng.permutation(np.arange(1, 7))
    np.testing.assert_allclose(
        eri_bra_slab(pairs, 0, kls), eri_bra_slab_scalar(pairs, 0, kls),
        rtol=0.0, atol=1e-12,
    )
    bras = concat_stacks(_random_class(rng, la, lb, 5))
    kets = concat_stacks(_random_class(rng, lc, ld, 5))
    np.testing.assert_allclose(
        eri_class_batch(bras, kets), eri_class_batch_scalar(bras, kets),
        rtol=0.0, atol=1e-12,
    )


def test_class_batch_rejects_mismatched_stacks():
    rng = np.random.default_rng(1)
    three = concat_stacks(_random_class(rng, 0, 1, 3))
    for nbra in (1, 2):
        with pytest.raises(ValueError, match="one bra per ket"):
            eri_class_batch(concat_stacks(_random_class(rng, 0, 1, nbra)), three)


def test_memory_cap_chunks_without_changing_a_bit(monkeypatch):
    """The one budget splits a share at ket boundaries — stage 1 (one
    Boys call per piece) and, inside a piece, stage 2 (one Hermite
    recursion per piece and ket order) — and the paired kernel into
    chunks of quartets, always at least one ket each; the blocks are
    bitwise unchanged."""
    rng = np.random.default_rng(11)
    pairs = _random_pair_set(rng, [(2, 1)] + [(1, 2)] * 6 + [(2, 1)] * 3)
    kls = np.arange(1, 10)
    bras = concat_stacks(_random_class(rng, 2, 1, 9))
    kets = concat_stacks(_random_class(rng, 1, 2, 9))
    whole, whole_paired = eri_bra_slab(pairs, 0, kls), eri_class_batch(bras, kets)

    recursions = []
    hermite = eri_module.hermite_from_boys
    monkeypatch.setattr(
        eri_module, "hermite_from_boys",
        lambda *args: recursions.append(1) or hermite(*args),
    )

    def counted(evaluate, *args):
        registry = MetricsRegistry()
        del recursions[:]
        with use_metrics(registry):
            out = evaluate(*args)
        assert registry.counter("eri.quartets").value == kls.size
        return out, registry.counter("eri.boys_calls").value, len(recursions)

    assert counted(eri_bra_slab, pairs, 0, kls)[1:] == (1, 1)
    seen = set()
    for budget in (1, 5_000, 10_000, 25_000, 400_000):
        monkeypatch.setattr(eri_module, "MAX_BATCH_DOUBLES", budget)
        chunked, boys_calls, hermite_calls = counted(eri_bra_slab, pairs, 0, kls)
        assert np.array_equal(chunked, whole)
        assert 1 <= boys_calls <= hermite_calls <= kls.size
        seen.add((boys_calls, hermite_calls))
        chunked, boys_calls, hermite_calls = counted(eri_class_batch, bras, kets)
        assert np.array_equal(chunked, whole_paired)
        assert boys_calls == hermite_calls
        if budget in (1, 400_000):
            assert boys_calls == kls.size if budget == 1 else 1 < boys_calls < kls.size
    # Every ket alone in both stages; stage 2 split under one stage 1;
    # both split, differently.
    assert (kls.size, kls.size) in seen
    assert any(b == 1 < h for b, h in seen)
    assert any(1 < b < h for b, h in seen)


# -- composite stacks ------------------------------------------------------------


def _random_composite(rng, ls, nprim, box=1.5):
    """Sub-shells of the given momenta on one center over one exponent
    array, each with its own contraction coefficients."""
    exps = rng.uniform(0.08, 4.0, nprim)
    center = rng.uniform(-box, box, 3)
    subs = tuple(
        Shell(l, exps, normalize_contracted(l, exps, rng.uniform(0.2, 1.0, nprim)),
              center)
        for l in ls
    )
    return CompositeShell(subs, atom_index=0)


def _assembled_from_pure_quartets(ca, cb, cc, cd):
    """The composite block from the scalar oracle, one pure sub-shell
    quartet at a time, each written at its sub-shell offsets."""
    out = np.full((ca.nfunc, cb.nfunc, cc.nfunc, cd.nfunc), np.nan)
    oa = 0
    for sa in ca.subshells:
        ob = 0
        for sb in cb.subshells:
            bra = ShellPair(sa, sb)
            oc = 0
            for sc in cc.subshells:
                od = 0
                for sd in cd.subshells:
                    out[
                        oa : oa + sa.nfunc, ob : ob + sb.nfunc,
                        oc : oc + sc.nfunc, od : od + sd.nfunc,
                    ] = eri_shell_quartet_scalar(bra, ShellPair(sc, sd))
                    od += sd.nfunc
                oc += sc.nfunc
            ob += sb.nfunc
        oa += sa.nfunc
    return out


S, P, L, D, SPD = (0,), (1,), (0, 1), (2,), (0, 1, 2)


@pytest.mark.parametrize(
    "classes",
    [(S, L, L, S), (L, L, L, L), (D, L, L, D), (L, D, S, L),
     (SPD, L, D, SPD), (SPD, SPD, P, S)],
    ids=lambda c: "".join("SPLD"[(S, P, L, D).index(x)] if x != SPD else "X" for x in c),
)
def test_composite_quartet_is_pure_quartets_at_subshell_offsets(classes):
    """(LL|LL) is ONE kernel quartet: its block equals the sixteen pure
    quartets of the scalar oracle at their offsets to 1e-12 — also for
    S|L, D|L and a three-sub-shell composite — and it costs one Boys
    call."""
    rng = np.random.default_rng(sum(map(len, classes)) + len(classes[0]))
    ca, cb, cc, cd = (
        _random_composite(rng, ls, int(rng.integers(1, 4))) for ls in classes
    )
    registry = MetricsRegistry()
    with use_metrics(registry):
        block = eri_shell_quartet(ShellPair(ca, cb), ShellPair(cc, cd))
    assert registry.counter("eri.boys_calls").value == 1
    assert registry.counter("eri.quartets").value == 1
    np.testing.assert_allclose(
        block, _assembled_from_pure_quartets(ca, cb, cc, cd),
        rtol=0.0, atol=1e-12,
    )


def test_pure_pair_is_the_single_subshell_composite():
    """One builder: a pure shell and the composite of that one shell
    give the same pair data, bitwise."""
    rng = np.random.default_rng(8)
    sa, sb = _random_shell(rng, 2, 3), _random_shell(rng, 1, 2)
    pure = ShellPair(sa, sb)
    comp = ShellPair(CompositeShell((sa,), 0), CompositeShell((sb,), 0))
    for name in ("p", "P", "ebra", "counts"):
        assert np.array_equal(getattr(pure, name), getattr(comp, name)), name
    assert (pure.las, pure.lbs, pure.ltot) == ((2,), (1,), 3)


@pytest.fixture(scope="module")
def composite_class():
    """A fixed L|L bra and ragged kets (1..16 primitive pairs each) of
    D|L, L|D — another class of the same order — and L|S, with every
    ket's block evaluated alone."""
    rng = np.random.default_rng(21)
    pairs = _random_pair_set(rng, [(L, L)] + [(D, L)] * 4 + [(L, D)] * 2 + [(L, S)] * 2)
    singles = [None] + [eri_bra_slab(pairs, 0, np.array([n])) for n in range(1, 9)]
    return pairs, singles


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_composite_stack_sub_share_equals_singles_bitwise(composite_class, data):
    """The independence invariant on composite stacks: a block is
    identical alone and in any sub-share of mixed classes, in any order,
    and the paired kernel (one bra per ket) returns the same bits."""
    pairs, singles = composite_class
    rows = data.draw(
        st.lists(st.integers(1, 8), min_size=1, max_size=8, unique=True),
        label="rows",
    )
    slab = eri_bra_slab(pairs, 0, np.array(rows))
    assert np.array_equal(slab, np.concatenate([singles[n] for n in rows], axis=1))
    d_l = np.array([n for n in rows if n <= 4])
    if d_l.size:
        stack = pairs.classes[pairs.cls[1]].stack
        share = take_pairs(stack, pairs.row[d_l])
        bras = concat_stacks([pairs.pair(0)] * d_l.size)
        for n, block in zip(d_l, eri_class_batch(bras, share)):
            assert np.array_equal(block, singles[n]), n


def test_padded_entries_are_exact_zeros_at_the_largest_exponents():
    """Rows of a lower sub-pair order are exactly 0.0 beyond that order
    (never ``0 * inf``, never round-off) and everything stays finite at
    the largest exponents of the basis library: one atom of every
    element of 6-31G(d), whose 1s cores (5484.67 on O) meet the L and D
    shells in mixed classes."""
    from repro.integrals.eri import class_rows, pair_stacks
    from repro.integrals.schwarz import schwarz_matrix

    mol = Molecule(
        ["O", "N", "C", "H"],
        [[0.0, 0.0, 0.0], [2.3, 0.0, 0.0], [0.0, 2.6, 0.0], [0.0, 0.0, 1.8]],
    )
    basis = BasisSet(mol, "6-31g(d)")
    padded = 0
    for cls in pair_stacks(basis).classes:
        stack = cls.stack
        assert np.isfinite(stack.ebra).all()
        rows = class_rows(stack.las, stack.lbs)
        order = rows.powa.sum(axis=1) + rows.powb.sum(axis=1)
        level = hermite_tuv(stack.ltot).sum(axis=1)
        beyond = level[None, :] > order[:, None]
        assert not stack.ebra[:, beyond].any()
        padded += int(beyond.sum()) * (len(stack.las) * len(stack.lbs) > 1)
    assert padded > 0  # the mixed classes really are padded
    assert np.isfinite(schwarz_matrix(basis)).all()
    engine = QuartetEngine(basis)
    n = basis.nshells
    for block in engine.composite_blocks(n - 1, 0, np.arange(npairs(n))):
        assert np.isfinite(block).all()


# -- batch-composition independence on real shares ----------------------------


def _fixture_engine(name):
    if name == "water":
        from repro.chem.molecule import water

        return QuartetEngine(BasisSet(water(), "6-31g(d)"))
    from pathlib import Path

    xyz = Path(__file__).resolve().parents[1] / (
        "benchmarks/e2e/fixtures/hydroxide.xyz"
    )
    mol = Molecule.from_xyz(xyz.read_text(), charge=-1)
    return QuartetEngine(BasisSet(mol, "6-31g(d)"))


@pytest.fixture(scope="module", params=["water", "hydroxide"])
def engine_and_singles(request):
    """An engine (no cache) and every block of every bra, one ket at a
    time — the batch-of-one reference."""
    engine = _fixture_engine(request.param)
    singles = {}
    for ij in range(npairs(engine.basis.nshells)):
        i, j = decode_pair(ij)
        for kl in range(ij + 1):
            singles[ij, kl] = engine.composite_blocks(i, j, [kl])[0]
    return engine, singles


def test_whole_share_equals_singles_bitwise(engine_and_singles):
    """Every quartet of the fixture, in its full Algorithm-1 share."""
    engine, singles = engine_and_singles
    for ij in range(npairs(engine.basis.nshells)):
        i, j = decode_pair(ij)
        blocks = engine.composite_blocks(i, j, np.arange(ij + 1))
        for kl, block in enumerate(blocks):
            assert np.array_equal(block, singles[ij, kl]), (ij, kl)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_any_sub_share_equals_singles_bitwise(engine_and_singles, data):
    """Property: a block is identical alone and in any sub-share, in any
    order — what keeps cache on/off, kill-replay and resume bitwise."""
    engine, singles = engine_and_singles
    ij = data.draw(st.integers(0, npairs(engine.basis.nshells) - 1), label="ij")
    kls = data.draw(
        st.lists(st.integers(0, ij), min_size=1, max_size=10, unique=True),
        label="kls",
    )
    i, j = decode_pair(ij)
    for kl, block in zip(kls, engine.composite_blocks(i, j, kls)):
        assert np.array_equal(block, singles[ij, kl]), (ij, kl)


def test_composite_blocks_match_scalar_oracle(engine_and_singles, monkeypatch):
    """Whole shares through the kernel vs the same shares through the
    scalar oracle, to 1e-12."""
    import repro.core.quartets as quartets_module

    engine, singles = engine_and_singles
    monkeypatch.setattr(quartets_module, "eri_bra_slab", eri_bra_slab_scalar)
    n = engine.basis.nshells
    for i, j in ((n - 1, n - 1), (3, 1), (3, 3), (2, 0)):
        ij = pair_index(i, j)
        for kl, block in enumerate(
            engine.composite_blocks(i, j, np.arange(ij + 1))
        ):
            np.testing.assert_allclose(
                block, singles[ij, kl], rtol=0.0, atol=1e-12
            )


def test_composite_blocks_eightfold_symmetry(engine_and_singles):
    """(IJ|KL) = (JI|KL) = (KL|IJ) = (LK|IJ) to 1e-13: all three
    generators of the 8-fold group (bra swap, ket swap seen from the
    other side, bra-ket swap).  The engine evaluates canonical pairs
    only; the swapped bras are composite pairs built for the occasion."""
    engine, _ = engine_and_singles
    n = engine.basis.nshells
    comps = engine.basis.composite_shells

    def block(bra_shells, ket):
        a, b = bra_shells
        return eri_shell_quartet(
            ShellPair(comps[a], comps[b]), engine.pairs.pair(ket)
        )

    for (i, j), (k, l) in (
        ((3, 1), (2, 0)), ((3, 2), (3, 1)), ((n - 1, 3), (2, 1)),
        ((3, 3), (1, 0)), ((2, 1), (2, 1)), ((1, 0), (n - 1, 3)),
    ):
        ij, kl = pair_index(i, j), pair_index(k, l)
        X = engine.composite_blocks(i, j, [kl])[0]
        images = {
            "(JI|KL)": block((j, i), kl).transpose(1, 0, 2, 3),
            "(KL|IJ)": engine.composite_blocks(k, l, [ij])[0].transpose(2, 3, 0, 1),
            "(LK|IJ)": block((l, k), ij).transpose(2, 3, 1, 0),
        }
        for name, image in images.items():
            np.testing.assert_allclose(
                image, X, rtol=0.0, atol=1e-13, err_msg=name
            )
    with pytest.raises(ValueError, match="i >= j"):
        engine.composite_blocks(1, 3, [0])
