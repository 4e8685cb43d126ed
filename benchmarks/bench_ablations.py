"""Ablation studies of the design choices DESIGN.md calls out.

1. OpenMP schedule (paper: "no significant difference between the
   various OpenMP load balancer modes") — functional + simulated.
2. The ``iold`` flush optimization of Algorithm 3 (flush FI on i-change
   only) vs flushing every top iteration.
3. Schwarz screening on/off — work reduction per dataset.
4. DLB grant policy vs imbalance at scale.
5. Bra prescreening (the combined-index top-loop skip) payoff.
"""

import numpy as np
import pytest

from repro.analysis.tables import render_table
from repro.chem.basis import BasisSet
from repro.chem.molecule import water
from repro.core.fock_shared import SharedFockBuilder
from repro.core.screening import Screening
from repro.integrals.onee import kinetic_matrix, nuclear_matrix
from repro.integrals.schwarz import schwarz_matrix
from repro.machine.system import THETA
from repro.perfsim.engine import assign_schedule
from repro.perfsim.simulate import RunConfig, simulate_fock_build
from repro.perfsim.workload import Workload


@pytest.fixture(scope="module")
def water_setup():
    basis = BasisSet(water(), "sto-3g")
    h = kinetic_matrix(basis) + nuclear_matrix(basis)
    rng = np.random.default_rng(0)
    d = rng.standard_normal((basis.nbf, basis.nbf))
    d = d + d.T
    return basis, h, d


def test_ablation_openmp_schedule(benchmark, emit, bench_meta, water_setup):
    """Static vs dynamic thread schedule: same Fock, similar balance."""
    basis, h, d = water_setup

    def run():
        out = {}
        for schedule in ("static", "dynamic"):
            builder = SharedFockBuilder(
                basis, h, nranks=2, nthreads=4, thread_schedule=schedule
            )
            f, stats = builder(d)
            out[schedule] = (f, stats)
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    f_s, st_s = out["static"]
    f_d, st_d = out["dynamic"]
    np.testing.assert_allclose(f_s, f_d, atol=1e-10)
    bench_meta(quartets=st_s.quartets_computed + st_d.quartets_computed)
    rows = [
        [sched, str(st.quartets_computed), str(st.per_thread_quartets)]
        for sched, (_f, st) in out.items()
    ]
    emit(
        "ablation_openmp_schedule",
        render_table(["schedule", "quartets", "per-thread split"], rows)
        + "\npaper: 'No significant difference between the various "
        "OpenMP load balancer modes was observed.'",
    )


def test_ablation_iold_flush(benchmark, emit, water_setup):
    """The flush-on-i-change optimization cuts FI flushes dramatically."""
    basis, h, d = water_setup

    def run():
        out = {}
        for every in (False, True):
            builder = SharedFockBuilder(
                basis, h, nranks=1, nthreads=4,
                flush_fi_every_iteration=every,
            )
            f, stats = builder(d)
            out[every] = (f, stats)
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    f_opt, st_opt = out[False]
    f_all, st_all = out[True]
    np.testing.assert_allclose(f_opt, f_all, atol=1e-10)
    assert st_opt.fi_flushes < st_all.fi_flushes
    emit(
        "ablation_iold_flush",
        render_table(
            ["FI flush policy", "FI flushes", "FJ flushes"],
            [
                ["on i-change (paper)", str(st_opt.fi_flushes),
                 str(st_opt.fj_flushes)],
                ["every iteration", str(st_all.fi_flushes),
                 str(st_all.fj_flushes)],
            ],
        ),
    )


def test_ablation_schwarz_screening(benchmark, emit):
    """Screening removes 77-99% of the quartet space (dataset-dependent)."""

    def run():
        rows = []
        for label in ("0.5nm", "1.0nm", "1.5nm", "2.0nm"):
            wl = Workload.for_dataset(label)
            full = wl.npair_tasks * (wl.npair_tasks + 1) / 2
            rows.append(
                [label, f"{full:.3e}", f"{wl.total_quartets:.3e}",
                 f"{100 * wl.screening_fraction():.2f}%"]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "ablation_schwarz_screening",
        render_table(
            ["dataset", "all quartets", "surviving", "screened out"], rows
        ),
    )
    fracs = [float(r[3].rstrip("%")) for r in rows]
    assert fracs == sorted(fracs)  # sparsity grows with system size


def test_ablation_functional_screening_consistency(benchmark):
    """Loose vs tight tau: quartet count drops, Fock error stays small.

    Uses a small graphene patch — water is too compact for any quartet
    to fall below a meaningful threshold.
    """
    from repro.chem.graphene import bilayer_graphene
    from repro.integrals.onee import kinetic_matrix, nuclear_matrix

    basis = BasisSet(bilayer_graphene(2), "sto-3g")
    h = kinetic_matrix(basis) + nuclear_matrix(basis)
    rng = np.random.default_rng(5)
    d = rng.standard_normal((basis.nbf, basis.nbf))
    d = d + d.T
    q = schwarz_matrix(basis)

    def run():
        tight, _ = SharedFockBuilder(
            basis, h, nthreads=2, screening=Screening(q, 1e-12)
        )(d)
        loose, stats = SharedFockBuilder(
            basis, h, nthreads=2, screening=Screening(q, 1e-5)
        )(d)
        return tight, loose, stats

    tight, loose, stats = benchmark.pedantic(run, rounds=1, iterations=1)
    assert stats.quartets_screened > 0
    assert np.max(np.abs(loose - tight)) < 1e-3


def test_ablation_dlb_policy_imbalance(benchmark, emit, cost_model):
    """Dynamic (cost-aware) vs static block assignment at 256 nodes."""
    wl = Workload.for_dataset("2.0nm")

    def run():
        sig = wl.task_significant
        times = wl.task_work[sig] * cost_model.seconds_per_unit
        R = 256 * 4
        dynamic = assign_schedule(times, R)
        # Static block partition: contiguous slabs of the task list.
        bounds = np.linspace(0, times.size, R + 1).astype(int)
        loads = np.array(
            [times[a:b].sum() for a, b in zip(bounds[:-1], bounds[1:])]
        )
        return dynamic, loads

    dynamic, static_loads = benchmark.pedantic(run, rounds=1, iterations=1)
    static_imbalance = static_loads.max() / static_loads.mean()
    emit(
        "ablation_dlb_policy",
        render_table(
            ["assignment", "imbalance (makespan/mean)"],
            [
                ["dynamic (DDI DLB)", f"{dynamic.imbalance:.2f}"],
                ["static block", f"{static_imbalance:.2f}"],
            ],
        ),
    )
    assert dynamic.imbalance < static_imbalance


def test_ablation_bra_prescreening(benchmark, emit, cost_model):
    """Skipping insignificant top-loop iterations is nearly free work.

    The paper: partitioning "allows the user to completely skip the
    most costly top-loop iterations" for sparse systems.
    """

    def run():
        rows = []
        for label in ("0.5nm", "2.0nm"):
            wl = Workload.for_dataset(label)
            sig = int(wl.task_significant.sum() * wl.stride)
            rows.append(
                [label, str(wl.npair_tasks), str(sig),
                 f"{100 * (1 - sig / wl.npair_tasks):.1f}%"]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "ablation_bra_prescreening",
        render_table(
            ["dataset", "ij iterations", "significant", "skipped"], rows
        ),
    )
    # The larger system skips a larger fraction of bra iterations.
    assert float(rows[1][3].rstrip("%")) > float(rows[0][3].rstrip("%"))
