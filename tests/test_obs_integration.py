"""Observability wired through the SCF stack: determinism, CLI, stats."""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.core.fock_base import FockBuildStats
from repro.core.fock_mpi import MPIOnlyFockBuilder
from repro.core.fock_private import PrivateFockBuilder
from repro.core.fock_shared import SharedFockBuilder
from repro.core.scf_driver import ParallelSCF
from repro.integrals.onee import kinetic_matrix, nuclear_matrix
from repro.obs import MetricsRegistry, Tracer, use_metrics, use_tracer
from repro.parallel.ddi import DDIRuntime
from repro.parallel.dlb import DynamicLoadBalancer

ALGORITHMS = {
    "mpi-only": (MPIOnlyFockBuilder, {"nranks": 3, "nthreads": 1}),
    "private-fock": (PrivateFockBuilder, {"nranks": 2, "nthreads": 4}),
    "shared-fock": (SharedFockBuilder, {"nranks": 2, "nthreads": 4}),
}


@pytest.fixture(scope="module")
def water_problem(water_sto3g):
    h = kinetic_matrix(water_sto3g) + nuclear_matrix(water_sto3g)
    rng = np.random.default_rng(7)
    d = rng.standard_normal((water_sto3g.nbf, water_sto3g.nbf))
    d = d + d.T
    return water_sto3g, h, d


# -- FockBuildStats as a metrics view ----------------------------------------


def test_stats_is_view_over_registry():
    s = FockBuildStats("x", 2, 4)
    s.quartets_computed += 10
    s.per_rank_quartets.append(6)
    s.per_rank_quartets.append(4)
    assert s.metrics.counter("fock.quartets_computed").value == 10
    assert list(s.metrics.series("fock.per_rank_quartets")) == [6, 4]
    # Writing through the registry is visible through the attribute.
    s.metrics.counter("fock.quartets_computed").inc(5)
    assert s.quartets_computed == 15


def test_thread_imbalance_mirrors_rank_imbalance():
    s = FockBuildStats("x", 1, 4, per_thread_quartets=[10, 10, 10, 30])
    assert s.thread_imbalance == pytest.approx(30 / 15)
    assert FockBuildStats("x", 1, 4).thread_imbalance == 1.0
    assert FockBuildStats(
        "x", 1, 2, per_thread_quartets=[0, 0]
    ).thread_imbalance == 1.0


def test_stats_as_dict_round_trips_json():
    s = FockBuildStats("shared-fock", 2, 4, quartets_computed=3,
                       per_thread_quartets=[1, 2, 0, 0])
    d = json.loads(json.dumps(s.as_dict()))
    assert d["algorithm"] == "shared-fock"
    assert d["quartets_computed"] == 3
    assert d["thread_imbalance"] == pytest.approx(2 / 0.75)


def test_parallel_scf_result_surfaces_imbalances(water_sto3g):
    res = ParallelSCF(water_sto3g, "shared-fock", nranks=2, nthreads=4).run()
    assert res.rank_imbalance >= 1.0
    assert res.thread_imbalance >= 1.0
    assert res.thread_imbalance == max(
        s.thread_imbalance for s in res.fock_stats
    )


# -- determinism -------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_counters_deterministic_across_runs(name, water_problem):
    """Repeated identical builds produce identical metric snapshots."""
    basis, h, d = water_problem
    cls, geom = ALGORITHMS[name]
    snaps = []
    for _ in range(2):
        _, stats = cls(basis, h, **geom)(d)
        snaps.append(stats.metrics.snapshot())
    assert snaps[0] == snaps[1]
    assert snaps[0]["fock.quartets_computed"] > 0


def test_total_quartet_space_agrees_across_algorithms(water_problem):
    """computed + screened covers the same unique space for all three."""
    basis, h, d = water_problem
    totals = set()
    for cls, geom in ALGORITHMS.values():
        _, stats = cls(basis, h, **geom)(d)
        totals.add(stats.total_quartets)
    assert len(totals) == 1


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_tracing_is_bitwise_invisible(name, water_problem):
    """Enabling the tracer+metrics changes no bit of the Fock matrix."""
    basis, h, d = water_problem
    cls, geom = ALGORITHMS[name]
    f_off, _ = cls(basis, h, **geom)(d)
    tracer = Tracer()
    with use_tracer(tracer), use_metrics(MetricsRegistry()):
        f_on, _ = cls(basis, h, **geom)(d)
    assert tracer.nspans > 0  # tracing really was live
    assert np.array_equal(f_off, f_on)  # bitwise identical


# -- layer instrumentation ----------------------------------------------------


def test_dlb_grants_counted_per_rank():
    reg = MetricsRegistry()
    with use_metrics(reg):
        dlb = DynamicLoadBalancer(10, 3)
        for rank in range(3):
            list(dlb.iter_rank(rank))
    snap = reg.snapshot()
    assert snap["dlb.grants{rank=0}"] == 4
    assert snap["dlb.grants{rank=1}"] == 3
    assert snap["dlb.grants{rank=2}"] == 3


def test_ddi_ops_and_bytes_counted():
    reg = MetricsRegistry()
    with use_metrics(reg):
        ddi = DDIRuntime(2)
        arr = ddi.create(4, 4)
        data = np.ones((4, 4))
        arr.put(0, slice(0, 4), slice(0, 4), data)
        arr.acc(1, slice(0, 4), slice(0, 4), data)
        arr.get(0, slice(0, 4), slice(0, 4))
    snap = reg.snapshot()
    assert snap["ddi.ops{op=put}"] == 1
    assert snap["ddi.ops{op=acc}"] == 1
    assert snap["ddi.ops{op=get}"] == 1
    assert snap["ddi.bytes_moved"] == ddi.stats.bytes_moved
    assert snap["ddi.remote_bytes"] > 0


def test_global_registry_accumulates_build_totals(water_problem):
    basis, h, d = water_problem
    reg = MetricsRegistry()
    with use_metrics(reg):
        _, stats = SharedFockBuilder(basis, h, nranks=2, nthreads=2)(d)
    snap = reg.snapshot()
    assert snap["fock.builds{algorithm=shared-fock}"] == 1
    assert (
        snap["fock.quartets_computed{algorithm=shared-fock}"]
        == stats.quartets_computed
    )
    assert snap["reduction.cooperative_flushes"] > 0


def test_perfsim_assignment_metered():
    from repro.perfsim.engine import assign_dynamic

    reg = MetricsRegistry()
    tracer = Tracer()
    with use_tracer(tracer), use_metrics(reg):
        result = assign_dynamic(np.array([1.0, 2.0, 3.0]), 2)
    snap = reg.snapshot()
    assert snap["perfsim.assignments"] == 1
    assert snap["perfsim.tasks_assigned"] == 3
    assert snap["perfsim.last_makespan_s"] == result.makespan
    assert [s.name for s in tracer.walk()] == ["perfsim/assign_dynamic"]


# -- SCF tracing + CLI --------------------------------------------------------


@pytest.mark.parametrize("method, algorithm, fock_spans", [
    pytest.param("rhf", "shared-fock",
                 {"fock/kl", "fock/flush_fi", "fock/flush_fj"}, id="rhf"),
    pytest.param("uhf", "private-fock",
                 {"fock/jk", "fock/thread_reduce"}, id="uhf"),
])
def test_scf_trace_covers_run(method, algorithm, fock_spans, water_sto3g):
    tracer = Tracer()
    scf = ParallelSCF(
        water_sto3g, algorithm, method=method, nranks=2, nthreads=2
    )
    with use_tracer(tracer):
        res = scf.run()
    assert res.converged
    roots = [s.name for s in tracer.roots]
    assert roots == ["scf/run"]
    names = Counter(s.name for s in tracer.walk())
    assert {"scf/fock_build", "fock/build", *fock_spans} <= set(names)
    # The loop's own spans, once a cycle, whichever front-end drives it.
    for name in ("scf/iteration", "scf/diis", "scf/diagonalize"):
        assert names[name] == res.scf.niterations
    run_span = tracer.roots[0]
    # Iterations account for nearly all of the run span.
    iter_total = sum(c.duration for c in run_span.children)
    assert iter_total <= run_span.duration
    assert iter_total >= 0.9 * run_span.duration


def test_uhf_run_is_visible_to_the_timeline():
    """A traced UHF doublet draws both ranks, both threads, and its waits.

    The UHF builder used to open none of the ``fock/*`` spans: the
    timeline saw one rank, no wait, and an imbalance of exactly 1.000
    next to build statistics that said otherwise.
    """
    from repro.chem.basis import BasisSet
    from repro.chem.molecule import Molecule
    from repro.config import SCFConfig
    from repro.core.scf_driver import build_scf
    from repro.obs.analysis import analyze_tracer

    basis = BasisSet(
        Molecule(["O", "H"], [(0, 0, 0), (0, 0, 1.83)], name="OH"), "sto-3g"
    )
    config = SCFConfig(method="uhf", multiplicity=2, nranks=2, nthreads=2)
    tracer = Tracer()
    with use_tracer(tracer), build_scf(config, basis) as scf:
        res = scf.run()
    assert res.converged

    spans = list(tracer.walk())
    names = {s.name for s in spans}
    assert {"fock/build", "fock/jk", "fock/thread_reduce",
            "fock/gsumf"} <= names
    lanes = {
        (s.effective_attr("rank"), s.effective_attr("thread"))
        for s in spans if s.name == "fock/jk"
    }
    assert lanes == {(0, 0), (0, 1), (1, 0), (1, 1)}

    analysis = analyze_tracer(tracer)
    assert [r.rank for r in analysis.ranks] == [0, 1]
    assert all(r.busy_s > 0 and r.wait_s > 0 for r in analysis.ranks)
    # Seconds here, quartets in FockBuildStats — the two imbalances
    # cannot be equal to the digit, but they must tell the same story:
    # the DLB deals shells 0 and 2 to rank 0, three quarters of the work.
    quartets = np.sum([s.per_rank_quartets for s in res.fock_stats], axis=0)
    assert res.rank_imbalance > 1.05 and analysis.rank_imbalance > 1.0
    assert int(np.argmax(analysis.rank_busy)) == int(np.argmax(quartets)) == 0


def test_profile_cli_emits_valid_artifacts(tmp_path, capsys):
    rc = main([
        "profile", "--algorithm", "shared-fock",
        "--ranks", "2", "--threads", "2",
        "--output-dir", str(tmp_path),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "-74.94207995" in out

    doc = json.loads((tmp_path / "trace.json").read_text())
    events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert events and all(
        {"name", "ph", "ts", "dur", "pid", "tid"} <= set(e) for e in events
    )
    assert {e["pid"] for e in events} == {0, 1}

    report = (tmp_path / "profile.txt").read_text()
    assert "scf/run" in report and "fock/build" in report

    # Span total within 5% of the measured SCF wall (both printed).
    wall_line = next(ln for ln in out.splitlines() if "SCF wall" in ln)
    wall = float(wall_line.split(":")[1].split("s;")[0])
    traced = float(wall_line.split("traced")[1].split("s")[0])
    assert traced <= wall
    assert traced >= 0.95 * wall

    metrics_lines = (tmp_path / "metrics.ndjson").read_text().splitlines()
    recs = [json.loads(ln) for ln in metrics_lines]
    assert any(r.get("metric") == "dlb.grants" for r in recs)
    assert any("fock_build" in r for r in recs)


FIXTURES = Path(__file__).resolve().parents[1] / "benchmarks/e2e/fixtures"


@pytest.mark.parametrize("xyz, flags, cycles", [
    pytest.param("allene.xyz", ["--algorithm", "shared-fock"], 14, id="rhf"),
    pytest.param("ethyl.xyz", ["--uhf", "--multiplicity", "2"], 15, id="uhf"),
])
def test_profile_cli_writes_one_span_and_event_per_cycle(
    xyz, flags, cycles, tmp_path, capsys
):
    """A UHF run is as visible as an RHF one: both front-ends run the
    one instrumented loop (a UHF profile used to write none of these)."""
    rc = main([
        "profile", str(FIXTURES / xyz), *flags, "--ranks", "2",
        "--threads", "2", "--output-dir", str(tmp_path),
        "--runs-dir", str(tmp_path / "runs"),
    ])
    assert rc == 0
    assert f"{cycles} iterations" in capsys.readouterr().out

    def count(path, key):
        return Counter(
            json.loads(line)[key]
            for line in (tmp_path / path).read_text().splitlines()
        )

    spans = count("spans.ndjson", "span")
    assert [spans[name] for name in (
        "scf/run", "scf/iteration", "scf/diis", "scf/diagonalize",
    )] == [1, cycles, cycles, cycles]
    events = count("events.ndjson", "event")
    assert (events["scf.cycle"], events["scf.converged"]) == (cycles, 1)


def test_profile_cli_mpi_only_forces_single_thread(tmp_path, capsys):
    rc = main([
        "profile", "--algorithm", "mpi-only", "--ranks", "2",
        "--output-dir", str(tmp_path),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "2 rank(s) x 1 thread(s)" in out
