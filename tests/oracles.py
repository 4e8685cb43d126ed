"""Scalar reference implementations the array integral kernels are
tested against.

These are the seed's primitive-loop spellings — one primitive pair, one
point, one Boys call, one ``(t, u, v)`` target at a time — kept out of
``src/`` because nothing on a run path calls them.  The E recursion
(:func:`e_coefficients_1d`), the per-pair overlap / kinetic / nuclear
kernels and the Hermite-Coulomb recursion share only the Boys function
with the production code; the scalar ERI loops
(:func:`eri_class_batch_scalar`) additionally read the production pair
data (:class:`~repro.integrals.eri.PairStack`) and are independent of
the kernel in their recursion, primitive loops and contraction order.
:func:`concat_stacks` / :func:`take_pairs` assemble the stacks the
paired kernel is tested on; no run path builds a stack that way.
:func:`mp2_correlation_energy` reads a converged RHF result's virtual
orbitals, which no SCF energy does, against a literature value.

The rest are small references the tests compare the product against:
one-point Boys (:func:`boys_single`), one shell quartet from bare shells
(:func:`eri_quartet_shells`), the dense ``G(D) = J - K/2``
(:func:`two_electron_fock_dense`), the closed-form quartet count
(:func:`n_unique_quartets`), and the log-space least-squares fit that
gave the Schwarz model its default amplitudes
(:func:`calibrate_schwarz_model`).  Two are the spellings the product
replaced with the same bits: the running products of the Boys grid and
of the Hermite recursion as ``np.multiply.accumulate``
(:func:`boys_accumulate`, :func:`hermite_from_boys_accumulate`), and
the per-plan application of digested Fock families with its index
arithmetic done afresh (:func:`add_into`), where the builders now read
each layout's kept application index.

Last, the spellings the one least-loaded list scheduler
(``repro.parallel.scheduler.least_loaded``) and the strategy names
replaced: the LPT partition's ``argmin`` loop (:func:`lpt_partition`),
the thread team's ``loads.index(min(loads))`` loop
(:func:`thread_partition`), perfsim's two heap makespans
(:func:`assign_dynamic`, :func:`assign_static`), the ``dlb`` and
``static`` scheduler subclasses (:class:`DynamicLoadBalancer`,
:class:`StaticScheduler`) and the batch planner's per-policy window hook
(:func:`batch_plan`).
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro.chem.basis.shell import Shell
from repro.core.indexing import npairs
from repro.core.screening import SchwarzModelParams
from repro.integrals.boys import boys
from repro.integrals.eri import (
    PairSet,
    PairStack,
    ShellPair,
    eri_shell_quartet,
    ragged_arange,
)
from repro.integrals.hermite import hermite_tuv


def e_coefficients_1d(
    la: int, lb: int, pa: float, pb: float, p: float, mu_xab2: float
) -> np.ndarray:
    """1-D Hermite expansion coefficients ``E[i, j, t]`` of one primitive
    pair, one entry at a time: the loop the array recursion of
    ``repro.integrals.hermite`` must equal bitwise."""
    E = np.zeros((la + 1, lb + 1, la + lb + 1))
    E[0, 0, 0] = np.exp(-mu_xab2)
    one_over_2p = 0.5 / p

    # Build up in i with j = 0.
    for i in range(1, la + 1):
        tmax = i
        for t in range(tmax + 1):
            val = pa * E[i - 1, 0, t]
            if t > 0:
                val += one_over_2p * E[i - 1, 0, t - 1]
            if t + 1 <= i - 1:
                val += (t + 1) * E[i - 1, 0, t + 1]
            E[i, 0, t] = val

    # Then increment j for every i.
    for j in range(1, lb + 1):
        for i in range(la + 1):
            tmax = i + j
            for t in range(tmax + 1):
                val = pb * E[i, j - 1, t]
                if t > 0:
                    val += one_over_2p * E[i, j - 1, t - 1]
                if t + 1 <= i + j - 1:
                    val += (t + 1) * E[i, j - 1, t + 1]
                E[i, j, t] = val
    return E


def e_coefficients_3d(
    la: int, lb: int, a: float, b: float, A: np.ndarray, B: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-axis ``(Ex, Ey, Ez)`` of a primitive pair, each shaped
    ``(la+1, lb+1, la+lb+1)``; the Gaussian-product prefactor is spread
    over the axes so that ``Ex * Ey * Ez`` carries it once."""
    p = a + b
    mu = a * b / p
    P = (a * A + b * B) / p
    return tuple(
        e_coefficients_1d(
            la, lb, P[d] - A[d], P[d] - B[d], p, mu * (A[d] - B[d]) ** 2
        )
        for d in range(3)
    )


def overlap_shell_pair(sha: Shell, shb: Shell) -> np.ndarray:
    """Overlap block ``<a|b>``, shape ``(sha.nfunc, shb.nfunc)``."""
    A, B = sha.center, shb.center
    comps_a, comps_b = sha.components, shb.components
    out = np.zeros((sha.nfunc, shb.nfunc))

    for a, ca in zip(sha.exps, sha.coefs):
        for b, cb in zip(shb.exps, shb.coefs):
            p = a + b
            Ex, Ey, Ez = e_coefficients_3d(sha.l, shb.l, a, b, A, B)
            pref = ca * cb * (math.pi / p) ** 1.5
            for ia, (ax, ay, az) in enumerate(comps_a):
                for ib, (bx, by, bz) in enumerate(comps_b):
                    out[ia, ib] += (
                        pref * Ex[ax, bx, 0] * Ey[ay, by, 0] * Ez[az, bz, 0]
                    )
    return out


def kinetic_shell_pair(sha: Shell, shb: Shell) -> np.ndarray:
    """Kinetic-energy block ``<a| -nabla^2/2 |b>`` from
    ``T = Tx Sy Sz + Sx Ty Sz + Sx Sy Tz`` with
    ``T^{ij} = -2 b^2 s^{i,j+2} + b (2j+1) s^{ij} - j (j-1)/2 s^{i,j-2}``."""
    A, B = sha.center, shb.center
    comps_a, comps_b = sha.components, shb.components
    out = np.zeros((sha.nfunc, shb.nfunc))

    for a, ca in zip(sha.exps, sha.coefs):
        for b, cb in zip(shb.exps, shb.coefs):
            p = a + b
            # E tensors with ket angular momentum raised by 2 so the
            # s^{i, j+2} terms are available.
            Es = e_coefficients_3d(sha.l, shb.l + 2, a, b, A, B)
            pref = ca * cb * (math.pi / p) ** 1.5

            def s1d(E: np.ndarray, i: int, j: int) -> float:
                if j < 0:
                    return 0.0
                return E[i, j, 0]

            def t1d(E: np.ndarray, i: int, j: int) -> float:
                val = -2.0 * b * b * s1d(E, i, j + 2)
                val += b * (2 * j + 1) * s1d(E, i, j)
                if j >= 2:
                    val -= 0.5 * j * (j - 1) * s1d(E, i, j - 2)
                return val

            for ia, (ax, ay, az) in enumerate(comps_a):
                for ib, (bx, by, bz) in enumerate(comps_b):
                    sx = s1d(Es[0], ax, bx)
                    sy = s1d(Es[1], ay, by)
                    sz = s1d(Es[2], az, bz)
                    tx = t1d(Es[0], ax, bx)
                    ty = t1d(Es[1], ay, by)
                    tz = t1d(Es[2], az, bz)
                    out[ia, ib] += pref * (tx * sy * sz + sx * ty * sz + sx * sy * tz)
    return out


def nuclear_shell_pair(
    sha: Shell, shb: Shell, charges: np.ndarray, centers: np.ndarray
) -> np.ndarray:
    """Nuclear-attraction block ``<a| sum_C -Z_C/r_C |b>`` of one pure
    pair: ``sum_tuv E_tuv R_tuv(p, P - C)`` per primitive pair and
    nucleus, every term in Python."""
    A, B = sha.center, shb.center
    comps_a, comps_b = sha.components, shb.components
    ltot = sha.l + shb.l
    out = np.zeros((sha.nfunc, shb.nfunc))

    for a, ca in zip(sha.exps, sha.coefs):
        for b, cb in zip(shb.exps, shb.coefs):
            p = a + b
            P = (a * A + b * B) / p
            Ex, Ey, Ez = e_coefficients_3d(sha.l, shb.l, a, b, A, B)
            pref = ca * cb * 2.0 * math.pi / p
            for Z, C in zip(charges, centers):
                R = hermite_coulomb(ltot, p, P - np.asarray(C, dtype=float))
                for ia, (ax, ay, az) in enumerate(comps_a):
                    for ib, (bx, by, bz) in enumerate(comps_b):
                        val = 0.0
                        for t in range(ax + bx + 1):
                            for u in range(ay + by + 1):
                                for v in range(az + bz + 1):
                                    val += (
                                        Ex[ax, bx, t] * Ey[ay, by, u]
                                        * Ez[az, bz, v] * R[t, u, v]
                                    )
                        out[ia, ib] -= Z * pref * val
    return out


def hermite_coulomb(lmax: int, p: float, PC: np.ndarray) -> np.ndarray:
    """Dense Hermite Coulomb tensor :math:`R^0_{tuv}(p, \\mathbf{PC})`.

    ``R[t, u, v]`` of shape ``(lmax+1,)*3``; only entries with
    ``t + u + v <= lmax`` are populated.  Same floating-point order as
    ``hermite_coulomb_batch``, so the two agree bitwise.
    """
    x2 = float(PC[0] * PC[0] + PC[1] * PC[1] + PC[2] * PC[2])
    F = boys(lmax, p * x2)

    # R^n_{000} = (-2p)^n F_n.
    Rn = np.zeros((lmax + 1, lmax + 1, lmax + 1, lmax + 1))
    minus_2p = -2.0 * p
    fac = 1.0
    for n in range(lmax + 1):
        Rn[n, 0, 0, 0] = fac * F[n]
        fac *= minus_2p

    X, Y, Z = float(PC[0]), float(PC[1]), float(PC[2])
    # Raise t, then u, then v, lowering the auxiliary order n each time.
    for total in range(1, lmax + 1):
        for t in range(total + 1):
            for u in range(total - t + 1):
                v = total - t - u
                for n in range(lmax + 1 - total):
                    if t > 0:
                        val = X * Rn[n + 1, t - 1, u, v]
                        if t > 1:
                            val += (t - 1) * Rn[n + 1, t - 2, u, v]
                    elif u > 0:
                        val = Y * Rn[n + 1, t, u - 1, v]
                        if u > 1:
                            val += (u - 1) * Rn[n + 1, t, u - 2, v]
                    else:
                        val = Z * Rn[n + 1, t, u, v - 1]
                        if v > 1:
                            val += (v - 1) * Rn[n + 1, t, u, v - 2]
                    Rn[n, t, u, v] = val
    return Rn[0]


def eri_class_batch_scalar(bra: PairStack, ket: PairStack) -> np.ndarray:
    """``eri_class_batch`` one quartet, one primitive combination, one
    Boys call at a time: ``ebra @ M @ eket.T`` per combination."""
    tb, tk = hermite_tuv(bra.ltot), hermite_tuv(ket.ltot)
    ti, ui, vi = (tb[:, None, :] + tk[None, :, :]).transpose(2, 0, 1)
    ket_parity = (-1.0) ** tk.sum(axis=1)
    two_pi_pow = 2.0 * math.pi ** 2.5

    out = np.zeros((ket.npairs, bra.nfunc_pair, ket.nfunc_pair))
    for n in range(ket.npairs):
        for i in range(bra.ptr[n], bra.ptr[n + 1]):
            p, P = bra.p[i], bra.P[i]
            for j in range(ket.ptr[n], ket.ptr[n + 1]):
                q, Q = ket.p[j], ket.P[j]
                R = hermite_coulomb(
                    bra.ltot + ket.ltot, p * q / (p + q), P - Q
                )
                pref = two_pi_pow / (p * q * math.sqrt(p + q))
                eket = ket.ebra[j] * ket_parity
                out[n] += pref * (bra.ebra[i] @ R[ti, ui, vi] @ eket.T)
    return out


def concat_stacks(stacks: list[PairStack]) -> PairStack:
    """One stack holding the pairs of ``stacks`` (all of one class)."""
    first = stacks[0]
    assert all((s.las, s.lbs) == (first.las, first.lbs) for s in stacks)
    return PairStack(
        first.las,
        first.lbs,
        *(
            np.concatenate([getattr(s, name) for s in stacks])
            for name in ("p", "P", "ebra", "counts")
        ),
    )


def take_pairs(stack: PairStack, rows: np.ndarray) -> PairStack:
    """The sub-stack of the pairs ``rows`` of ``stack``, in that order."""
    counts = stack.counts[rows]
    prim = ragged_arange(stack.ptr[rows], counts)
    return PairStack(
        stack.las, stack.lbs,
        stack.p[prim], stack.P[prim], stack.ebra[prim], counts,
    )


def eri_bra_slab_scalar(
    pairs: PairSet, ij: int, kls: np.ndarray, schedule=None
) -> np.ndarray:
    """``eri_bra_slab`` one quartet at a time through the scalar loops:
    ket ``n``'s block is the columns ``n`` of the slab (``schedule``, the
    kernel's, is accepted and ignored)."""
    bra = pairs.pair(ij)
    return np.concatenate(
        [eri_class_batch_scalar(bra, pairs.pair(kl))[0] for kl in kls]
        or [np.empty((bra.nfunc_pair, 0))],
        axis=1,
    )


def eri_shell_quartet_scalar(bra: PairStack, ket: PairStack) -> np.ndarray:
    """One quartet ``(ab|cd)`` by the scalar loops, shape
    ``(nfa, nfb, nfc, nfd)``."""
    return eri_class_batch_scalar(bra, ket).reshape(
        bra.nfa, bra.nfb, ket.nfa, ket.nfb
    )


def mp2_correlation_energy(
    eri_ao: np.ndarray,
    coefficients: np.ndarray,
    orbital_energies: np.ndarray,
    nocc: int,
) -> float:
    """Closed-shell MP2 correlation energy of an RHF reference,
    ``sum (ia|jb) [2 (ia|jb) - (ib|ja)] / (e_i + e_j - e_a - e_b)`` over
    occupied ``i, j`` and virtual ``a, b``."""
    occ, vir = coefficients[:, :nocc], coefficients[:, nocc:]
    ovov = np.einsum(
        "mnls,mi,na,lj,sb->iajb", eri_ao, occ, vir, occ, vir, optimize=True
    )
    e_occ, e_vir = orbital_energies[:nocc], orbital_energies[nocc:]
    denom = (
        e_occ[:, None, None, None] - e_vir[None, :, None, None]
        + e_occ[None, None, :, None] - e_vir[None, None, None, :]
    )
    exchange = ovov.transpose(0, 3, 2, 1)  # (ib|ja)
    return float(np.sum(ovov * (2.0 * ovov - exchange) / denom))


def boys_single(m: int, x: float) -> float:
    """:math:`F_m(x)` at a single point."""
    return float(boys(m, np.float64(x))[m])


def eri_quartet_shells(sa: Shell, sb: Shell, sc: Shell, sd: Shell) -> np.ndarray:
    """One quartet from bare shells, without a pair cache."""
    return eri_shell_quartet(ShellPair(sa, sb), ShellPair(sc, sd))


def two_electron_fock_dense(eri: np.ndarray, density: np.ndarray) -> np.ndarray:
    """Two-electron part only: ``G(D) = J - K/2`` (no core Hamiltonian)."""
    J = np.einsum("mnls,ls->mn", eri, density, optimize=True)
    K = np.einsum("mlns,ls->mn", eri, density, optimize=True)
    return J - 0.5 * K


def n_unique_quartets(nshells: int) -> int:
    """Closed-form count of symmetry-unique quartets: ``P(P+1)/2``."""
    p = npairs(nshells)
    return p * (p + 1) // 2


def calibrate_schwarz_model(basis, exact_Q: np.ndarray) -> SchwarzModelParams:
    """Fit the Schwarz decay model's per-type amplitudes to an exact Q.

    Linear least squares in log space:
    ``log Q_ij + mu_ij R_ij^2 = a_{t_i} + a_{t_j}``.
    """
    comps = basis.composite_shells
    centers = np.array([c.center for c in comps])
    types = [c.stype for c in comps]
    zetas = np.array([c.min_exponent() for c in comps])
    labels = sorted(set(types))
    col = {t: c for c, t in enumerate(labels)}
    rows, rhs = [], []
    for i in range(len(types)):
        for j in range(i + 1):
            q = exact_Q[i, j]
            if q <= 0:
                continue
            r2 = float(np.sum((centers[i] - centers[j]) ** 2))
            mu = zetas[i] * zetas[j] / (zetas[i] + zetas[j])
            row = np.zeros(len(labels))
            row[col[types[i]]] += 1.0
            row[col[types[j]]] += 1.0
            rows.append(row)
            rhs.append(np.log(q) + mu * r2)
    A = np.array(rows)
    b = np.array(rhs)
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    resid = A @ sol - b
    return SchwarzModelParams(
        amplitudes={t: float(sol[col[t]]) for t in labels},
        residual_std=float(np.std(resid)),
    )


# -- running products as accumulates ------------------------------------------


def boys_accumulate(m_max: int, x: np.ndarray) -> np.ndarray:
    """:func:`~repro.integrals.boys.boys` with the Taylor weights of the
    tabulated regime as one ``np.multiply.accumulate`` down the rows —
    the spelling the production code replaced by a row at a time."""
    from repro.integrals.boys import (
        _GRID_DENSITY, _INV_K, _TAYLOR_TERMS, GRID_MAX, _boys_asymptotic,
        _grid_table,
    )

    xf = np.ascontiguousarray(x, dtype=np.float64).ravel()
    far = xf >= GRID_MAX
    out = np.empty((m_max + 1, xf.size))
    out[:, far] = _boys_asymptotic(m_max, xf[far])
    near = xf[~far]
    node = np.rint(near * _GRID_DENSITY).astype(np.intp)
    norders = m_max + _TAYLOR_TERMS + 1
    T = _grid_table(max(norders, 32))[:norders].take(node, axis=1)
    d = node / _GRID_DENSITY - near
    w = np.multiply.accumulate(_INV_K[:, None] * d, axis=0)
    grid = T[1 : m_max + 2] * w[0]
    for k in range(1, _TAYLOR_TERMS):
        grid += T[k + 1 : m_max + k + 2] * w[k]
    grid += T[: m_max + 1]
    out[:, ~far] = grid
    return out


def hermite_from_boys_accumulate(
    lmax: int, p: np.ndarray, X: np.ndarray, F: np.ndarray
) -> np.ndarray:
    """:func:`~repro.integrals.hermite.hermite_from_boys` with the powers
    ``(-2p)^m`` as one in-place ``np.multiply.accumulate`` down the rows."""
    from repro.integrals.hermite import _level_plan, _level_start, _lowered_axis

    power = np.empty((lmax + 1, p.size))
    power[0] = 1.0
    power[1:] = -2.0 * p
    np.multiply.accumulate(power, axis=0, out=power)
    power *= F[: lmax + 1]
    levels = [power[:, None, :]]
    Xa = X.take(_lowered_axis(lmax), axis=0)
    for level in range(1, lmax + 1):
        src1, src2, weight2 = _level_plan(level)
        start = _level_start(level) - 1
        cur = levels[-1][1:].take(src1, axis=1)
        cur *= Xa[start : start + src1.size]
        if src2.size:
            second = levels[-2][1:-1].take(src2, axis=1)
            second *= weight2
            cur[:, : src2.size] += second
        levels.append(cur)
    return np.ascontiguousarray(np.concatenate([a[0] for a in levels]).T)


# -- the per-plan application of digested families -----------------------------


def add_into(
    fam,
    p: int,
    target: np.ndarray,
    bases: tuple[int, int],
    row_stride: int,
    channel_stride: int = 0,
    kl_target: np.ndarray | None = None,
) -> None:
    """Accumulate plan ``p`` of the digested families ``fam``
    (:class:`~repro.core.quartets.Families`) into the flat ``target``,
    with the plan's index arithmetic done afresh.

    ``bases`` are the flat offsets of element ``(0, 0)`` of the plan's
    ``i`` and ``j`` column blocks, rows ``row_stride`` apart; channel
    ``c`` adds ``c * channel_stride``.  The ``(i, j)`` block goes first,
    then column after column its exchange record and its ``(k, l)``
    element per channel — one ``np.add.at``, which adds repeated indices
    in order — or, with ``kl_target``, the records alone and then the
    ``(k, l)`` elements into ``kl_target``.  The per-plan spelling the
    layouts' kept application index replaced.
    """
    batch = fam.batch
    plan = batch.plans[p]
    a = int(batch.starts[p])
    z = a + plan.fac.size
    C = fam.kli.shape[0]
    h, side, offset, ji_at = _record_terms(
        C, batch.ni, batch.nj, row_stride, channel_stride
    )
    target[ji_at + (bases[0] + plan.sj.start * row_stride)] += fam.ji[p]
    index = batch.rows[h, a:z].T * row_stride
    index += offset + np.array(bases)[side]
    values = np.concatenate(
        (fam.kli[..., a:z].reshape(-1, z - a), fam.klj[..., a:z].reshape(-1, z - a))
    ).T
    kl_at = batch.kl_at[a:z]
    if kl_target is None:
        index = np.concatenate(
            (index, kl_at[:, None] + np.arange(C) * channel_stride), axis=1
        )
        values = np.concatenate(
            (values, np.broadcast_to(fam.kl[a:z, None], (z - a, C))), axis=1
        )
    np.add.at(target, index.ravel(), values.ravel())
    if kl_target is not None:
        kl_target[kl_at] += fam.kl[a:z]


def _record_terms(
    nchannels: int, ni: int, nj: int, row_stride: int, channel_stride: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """For :func:`add_into`: per term of an exchange record, whether it
    adds into the ``kfun`` or the ``lfun`` row (``h``), of the ``i`` or
    the ``j`` block (``side``), and its offset in the row (channel and
    column in the block); the offsets of an ``(i, j)`` block, per
    channel, from its first element."""
    h, side, offset = [], [], []
    for s, n in ((0, ni), (1, nj)):
        c, hh, k = np.meshgrid(
            np.arange(nchannels), np.arange(2), np.arange(n), indexing="ij"
        )
        h.append(hh.ravel())
        side.append(np.full(c.size, s))
        offset.append((c * channel_stride + k).ravel())
    ji_at = (
        np.arange(nchannels)[:, None, None] * channel_stride
        + np.arange(nj)[:, None] * row_stride + np.arange(ni)
    )
    return np.concatenate(h), np.concatenate(side), np.concatenate(offset), ji_at


# -- the least-loaded decisions and strategy classes the schedulers replaced ----


def lpt_partition(costs: np.ndarray, nranks: int) -> list[list[int]]:
    """The static LPT partition as a NumPy ``argmin`` loop: tasks in
    descending cost order (stable) to the first least-loaded rank, each
    share then in ascending index order."""
    shares: list[list[int]] = [[] for _ in range(nranks)]
    loads = np.zeros(nranks)
    for t in np.argsort(-costs, kind="stable"):
        r = int(np.argmin(loads))
        shares[r].append(int(t))
        loads[r] += costs[t]
    for share in shares:
        share.sort()
    return shares


def thread_partition(nthreads: int, costs: np.ndarray) -> list[list[int]]:
    """``ThreadTeam.partition``'s dynamic schedule with costs as a
    ``loads.index(min(loads))`` loop over plain floats: iterations in
    loop order to the first least-loaded thread."""
    shares: list[list[int]] = [[] for _ in range(nthreads)]
    loads = [0.0] * nthreads
    for it, cost in enumerate(costs.tolist()):
        t = loads.index(min(loads))
        shares[t].append(it)
        loads[t] += cost
    return shares


def assign_dynamic(
    costs: np.ndarray, nranks: int, *, per_task_overhead: float = 0.0,
    multiplicity: int = 1,
):
    """perfsim's ``dlb`` makespan with a heap of bare rank-free times."""
    from repro.perfsim.engine import EXACT_SIM_LIMIT, AssignmentResult

    n = costs.size
    if n == 0:
        return AssignmentResult(0.0, 0.0, 1.0, 0, True)
    eff = costs + per_task_overhead
    total = float(eff.sum()) * multiplicity
    mean = total / nranks
    if n * multiplicity > EXACT_SIM_LIMIT or multiplicity > 1:
        makespan = mean + float(eff.max()) * (1.0 - 1.0 / nranks)
        return AssignmentResult(
            makespan, mean, makespan / mean if mean > 0 else 1.0, n, False
        )
    if nranks >= n:
        makespan = float(eff.max())
    else:
        free = [0.0] * nranks
        heapq.heapify(free)
        for c in eff:
            t = heapq.heappop(free)
            heapq.heappush(free, t + float(c))
        makespan = float(max(free))
    return AssignmentResult(
        makespan, mean, makespan / mean if mean > 0 else 1.0, n, True
    )


def assign_static(costs: np.ndarray, nranks: int, *, multiplicity: int = 1):
    """perfsim's ``static`` makespan with a heap of ``(load, rank)`` over
    the costs sorted descending."""
    from repro.perfsim.engine import EXACT_SIM_LIMIT, AssignmentResult

    n = costs.size
    if n == 0:
        return AssignmentResult(0.0, 0.0, 1.0, 0, True)
    mean = float(costs.sum()) * multiplicity / nranks
    if n * multiplicity > EXACT_SIM_LIMIT or multiplicity > 1:
        makespan = max(mean, float(costs.max()))
        return AssignmentResult(
            makespan, mean, makespan / mean if mean > 0 else 1.0, n, False
        )
    loads = [(0.0, r) for r in range(nranks)]
    heapq.heapify(loads)
    for c in np.sort(costs)[::-1]:
        t, r = heapq.heappop(loads)
        heapq.heappush(loads, (t + float(c), r))
    makespan = float(max(t for t, _ in loads))
    return AssignmentResult(
        makespan, mean, makespan / mean if mean > 0 else 1.0, n, True
    )


class GrantScheduler:
    """The grant cursor the strategy subclasses shared: per-rank queues,
    ``dlb.rank_done`` on first exhaustion, ``dlb.grants{rank}`` metered
    per drained share and on reset."""

    schedule_name = "static"

    def __init__(self, ntasks: int, nranks: int) -> None:
        self.ntasks, self.nranks = ntasks, nranks
        self._queues: list[list[int]] = [[] for _ in range(nranks)]
        self._cursor = [0] * nranks
        self._published = [0] * nranks
        self._done_logged: set[int] = set()

    def _emit_reset(self, **fields) -> None:
        from repro.obs.events import get_event_log

        log = get_event_log()
        if log is not None:
            log.emit("dlb.reset", ntasks=self.ntasks, nranks=self.nranks,
                     schedule=self.schedule_name, **fields)

    def counter_traffic(self) -> int:
        return 0

    def next(self, rank: int) -> int | None:
        from repro.obs.events import get_event_log

        cur, queue = self._cursor[rank], self._queues[rank]
        if cur >= len(queue):
            if rank not in self._done_logged:
                self._done_logged.add(rank)
                self._publish_grants(rank)
                log = get_event_log()
                if log is not None:
                    log.emit("dlb.rank_done", rank=rank, grants=cur)
            return None
        self._cursor[rank] = cur + 1
        return queue[cur]

    def _publish_grants(self, rank: int) -> None:
        from repro.obs.metrics import get_metrics

        drawn = self._cursor[rank] - self._published[rank]
        self._published[rank] = self._cursor[rank]
        registry = get_metrics()
        if drawn and registry is not None:
            registry.counter("dlb.grants", rank=rank).inc(drawn)

    def assignment(self) -> list[list[int]]:
        return [list(q) for q in self._queues]

    def reset(self) -> None:
        for rank in range(self.nranks):
            self._publish_grants(rank)
        self._cursor = [0] * self.nranks
        self._published = [0] * self.nranks
        self._done_logged.clear()


class DynamicLoadBalancer(GrantScheduler):
    """The ``dlb`` subclass: round-robin queues, one RPC per grant."""

    schedule_name = "dlb"

    def __init__(self, ntasks: int, nranks: int) -> None:
        super().__init__(ntasks, nranks)
        self._emit_reset()
        for t in range(ntasks):
            self._queues[t % nranks].append(t)

    def counter_traffic(self) -> int:
        return sum(self._cursor)


class StaticScheduler(GrantScheduler):
    """The ``static`` subclass: round-robin, or :func:`lpt_partition`
    under costs."""

    def __init__(self, ntasks: int, nranks: int, *, costs=None) -> None:
        super().__init__(ntasks, nranks)
        self.weighted = costs is not None
        if costs is None:
            for t in range(ntasks):
                self._queues[t % nranks].append(t)
        else:
            self._queues = lpt_partition(
                np.asarray(costs, dtype=np.float64), nranks
            )
        self._emit_reset(weighted=self.weighted)


def batch_plan(policy: str, specs, window: int):
    """A batch plan through the per-policy ``_order_window`` hook: the
    ``binned`` subclass bins each window by setup key, bins in order of
    first occurrence; ``fifo`` keeps the window."""
    from repro.workload.manifest import manifest_fingerprint
    from repro.workload.scheduler import Batch, BatchPlan

    def order_window(pairs):
        if policy == "fifo":
            return pairs
        bins, first = {}, {}
        for index, spec in pairs:
            key = spec.setup_key()
            bins.setdefault(key, []).append((index, spec))
            first.setdefault(key, index)
        return [pair for key in sorted(bins, key=first.__getitem__)
                for pair in bins[key]]

    ordered = []
    for start in range(0, len(specs), window):
        ordered.extend(order_window(
            [(i, specs[i]) for i in range(start, min(start + window, len(specs)))]
        ))
    batches, run, run_key = [], [], ""
    for index, spec in ordered:
        key = spec.setup_key()
        if key != run_key and run:
            batches.append(Batch(key=run_key, jobs=tuple(run)))
            run = []
        run_key = key
        run.append(index)
    if run:
        batches.append(Batch(key=run_key, jobs=tuple(run)))
    return BatchPlan(policy=policy, window=window,
                     manifest=manifest_fingerprint(list(specs)),
                     batches=tuple(batches))
