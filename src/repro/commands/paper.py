"""The paper verbs: ``dataset``, ``simulate``, ``reproduce`` — the
graphene datasets, the KNL performance model and the tables/figures."""

from __future__ import annotations

import argparse

from repro.commands import add_verb
from repro.config import ALGORITHMS, SCHEDULES

DATASETS = ("0.5nm", "1.0nm", "1.5nm", "2.0nm", "5.0nm")
TARGETS = (
    "table2", "table3", "table4",
    "fig3", "fig4", "fig5", "fig6", "fig7",
    "all",
)


def register(sub) -> None:
    ds = add_verb(sub, "dataset", cmd_dataset,
                  help="describe a benchmark dataset")
    ds.add_argument("label", choices=DATASETS)

    sim = add_verb(sub, "simulate", cmd_simulate,
                   help="predict a run's Fock-build time")
    sim.add_argument("--dataset", choices=DATASETS, default="2.0nm")
    sim.add_argument("--algorithm", choices=ALGORITHMS, default="shared-fock")
    sim.add_argument("--nodes", type=int, default=4)
    sim.add_argument("--ranks-per-node", type=int, default=None)
    sim.add_argument("--threads", type=int, default=64)
    sim.add_argument("--system", choices=("theta", "jlse"), default="theta")
    sim.add_argument("--cluster-mode", default="quadrant")
    sim.add_argument("--memory-mode", default="cache")
    sim.add_argument(
        "--schedule", choices=SCHEDULES, default="dlb",
        help="task distribution strategy for the grant model",
    )

    rep = add_verb(sub, "reproduce", cmd_reproduce,
                   help="regenerate a paper table/figure")
    rep.add_argument("target", choices=TARGETS)


def cmd_dataset(args: argparse.Namespace) -> int:
    from repro.chem.graphene import PAPER_DATASETS
    from repro.perfsim.workload import Workload

    spec = PAPER_DATASETS[args.label]
    print(f"dataset {args.label}: {spec.natoms} atoms, {spec.nshells} "
          f"shells, {spec.nbf} basis functions (6-31G(d), bilayer graphene)")
    wl = Workload.for_dataset(args.label)
    print(f"bra (ij) tasks          : {wl.npair_tasks:,}")
    print(f"significant after prescr: {wl.n_significant_tasks:,}")
    print(f"surviving quartets      : {wl.total_quartets:.3e}")
    print(f"screened fraction       : {100 * wl.screening_fraction():.2f}%")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.machine.system import JLSE, THETA
    from repro.perfsim.cost_model import calibrated_cost_model
    from repro.perfsim.simulate import RunConfig, simulate_fock_build
    from repro.perfsim.workload import Workload

    system = THETA if args.system == "theta" else JLSE
    wl = Workload.for_dataset(args.dataset)
    if args.algorithm == "mpi-only":
        cfg = RunConfig.mpi_only(
            system=system, nodes=args.nodes,
            ranks_per_node=args.ranks_per_node,
            cluster_mode=args.cluster_mode, memory_mode=args.memory_mode,
            schedule=args.schedule,
        )
    else:
        cfg = RunConfig.hybrid(
            args.algorithm, system=system, nodes=args.nodes,
            ranks_per_node=args.ranks_per_node or 4,
            threads_per_rank=args.threads,
            cluster_mode=args.cluster_mode, memory_mode=args.memory_mode,
            schedule=args.schedule,
        )
    sim = simulate_fock_build(wl, cfg, calibrated_cost_model())
    if not sim.feasible:
        print(f"INFEASIBLE: {sim.infeasible_reason}")
        return 1
    print(f"{args.algorithm} on {args.nodes} {system.name} node(s): "
          f"{sim.ranks_per_node} ranks/node, "
          f"{sim.hardware_threads_per_node} hw threads/node")
    print(f"Fock-build time         : {sim.total_seconds:.1f} s "
          f"({sim.per_iteration_seconds:.2f} s/iteration)")
    print(f"node memory             : {sim.node_memory_gb:.1f} GB")
    print(f"effective bandwidth     : {sim.effective_bandwidth_gbs:.0f} GB/s")
    print(f"load imbalance          : {sim.imbalance:.2f}")
    for k, v in sorted(sim.breakdown.items()):
        print(f"  {k:<12s}: {v:10.2f} s")
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.analysis import figures, tables
    from repro.analysis.plots import ascii_loglog
    from repro.analysis.report import render_series
    from repro.perfsim.cost_model import calibrated_cost_model

    t = args.target
    if t == "all":
        rc = 0
        for target in ("table4", "table2", "table3", "fig3", "fig4",
                       "fig5", "fig6", "fig7"):
            print(f"\n========== {target} ==========")
            rc |= cmd_reproduce(argparse.Namespace(target=target))
        return rc
    if t == "table4":
        rows = tables.table4_system_sizes()
        print(tables.render_table(
            ["dataset", "atoms", "shells", "BFs"],
            [[r.dataset, str(r.natoms), str(r.nshells), str(r.nbf)]
             for r in rows],
        ))
        return 0
    if t == "table2":
        rows = tables.table2_memory_footprints()
        print(tables.render_table(
            ["dataset", "MPI GB", "Pr.F GB", "Sh.F GB",
             "paper MPI", "paper Pr.F", "paper Sh.F"],
            [[r.dataset, f"{r.mpi_gb:.2f}", f"{r.private_gb:.2f}",
              f"{r.shared_gb:.3f}", f"{r.paper_mpi_gb:g}",
              f"{r.paper_private_gb:g}", f"{r.paper_shared_gb:g}"]
             for r in rows],
        ))
        return 0

    cost = calibrated_cost_model()
    if t == "table3":
        rows = tables.table3_multinode(cost)
        print(tables.render_table(
            ["nodes", "MPI s", "Pr.F s", "Sh.F s",
             "MPI eff%", "Pr.F eff%", "Sh.F eff%"],
            [[str(r.nodes)]
             + [f"{r.times[a]:.0f}" for a in ALGORITHMS]
             + [f"{r.efficiencies[a]:.0f}" for a in ALGORITHMS]
             for r in rows],
        ))
        return 0
    if t == "fig3":
        series = figures.figure3_affinity(cost)
        print(render_series(series, "Figure 3: affinity sweep (seconds)"))
        return 0
    if t == "fig4":
        series = figures.figure4_single_node(cost)
        print(ascii_loglog(series, title="Figure 4: single-node scaling "
                                         "(1.0 nm)", xlabel="hw threads"))
        return 0
    if t == "fig5":
        out = figures.figure5_modes(cost)
        for label, recs in out.items():
            print(f"\n{label}:")
            print(tables.render_table(
                ["cluster", "memory", "algorithm", "seconds"],
                [[r["cluster"], r["memory"], r["algorithm"],
                  f"{r['seconds']:.0f}" if r["feasible"] else "(mem)"]
                 for r in recs],
            ))
        return 0
    if t == "fig6":
        series = figures.figure6_scaling_curves(cost)
        print(ascii_loglog(series, title="Figure 6: multi-node scaling "
                                         "(2.0 nm, Theta)", xlabel="nodes"))
        return 0
    if t == "fig7":
        series = figures.figure7_5nm_scaling(cost)
        print(ascii_loglog([series], title="Figure 7: 5.0 nm shared-Fock "
                                           "scaling", xlabel="nodes"))
        return 0
    raise AssertionError(f"unhandled target {t}")
