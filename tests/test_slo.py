"""SLO report: target parsing, burn-rate math, breach edges, replay."""

import json

import pytest

from repro.obs.slo import (
    DEFAULT_SLO_TARGETS,
    SLOEngine,
    SLOTarget,
    SLOTargetError,
    engine_from_telemetry,
    render_slo_report,
)
from repro.obs.events import Event
from repro.service.jobs import JobSpec, job_class


class TestTargetParsing:
    def test_latency_target(self):
        t = SLOTarget.parse("total:p95<60")
        assert t.metric == "total"
        assert t.quantile == pytest.approx(0.95)
        assert t.threshold == pytest.approx(60.0)
        assert t.budget == pytest.approx(0.05)

    def test_queue_wait_and_run_metrics(self):
        assert SLOTarget.parse("queue_wait:p99<5").metric == "queue_wait"
        assert SLOTarget.parse("run:p50<1.5").threshold == pytest.approx(1.5)

    def test_error_rate_target(self):
        t = SLOTarget.parse("error_rate<0.1")
        assert t.metric == "error_rate"
        assert t.quantile is None
        assert t.budget == pytest.approx(0.1)

    def test_whitespace_tolerated(self):
        assert SLOTarget.parse(" total : p95 < 60 ").spec == "total : p95 < 60"

    @pytest.mark.parametrize("bad", [
        "total:p0<60",       # q=0 has no budget
        "total:p100<60",     # q=1 likewise (and >2 digits)
        "walltime:p95<60",   # unknown metric
        "error_rate<0",      # empty budget
        "error_rate<1.5",    # over 1
        "total<60",          # missing quantile
        "garbage",
    ])
    def test_malformed_specs_raise(self, bad):
        with pytest.raises(SLOTargetError):
            SLOTarget.parse(bad)

    def test_defaults_all_parse(self):
        for spec in DEFAULT_SLO_TARGETS:
            SLOTarget.parse(spec)


def test_job_class_from_dict_and_jobspec():
    assert job_class({"algorithm": "shared-fock", "backend": "sim"}) \
        == "shared-fock/sim"
    spec = JobSpec(xyz="", algorithm="mpi-only", backend="process")
    assert job_class(spec) == "mpi-only/process"
    assert job_class({}) == "?/?"


def _observe(engine, n, *, total=1.0, failed=False):
    for _ in range(n):
        engine.observe_job(
            "shared-fock/sim",
            queue_wait_s=0.1, run_s=total - 0.1, total_s=total,
            failed=failed,
        )


class TestBurnRate:
    def test_no_violations_zero_burn(self):
        engine = SLOEngine(["total:p95<60"])
        _observe(engine, 10, total=1.0)
        stats = engine.classes["shared-fock/sim"]
        assert stats.burn_rate(engine.targets[0]) == pytest.approx(0.0)

    def test_latency_burn_is_violating_fraction_over_budget(self):
        # 2 of 10 jobs over the threshold against a 5% budget:
        # burn = 0.2 / 0.05 = 4.
        engine = SLOEngine(["total:p95<60"])
        _observe(engine, 8, total=1.0)
        _observe(engine, 2, total=120.0)
        stats = engine.classes["shared-fock/sim"]
        assert stats.burn_rate(engine.targets[0]) == pytest.approx(4.0)

    def test_error_rate_burn(self):
        # 1 failure in 4 against a 25% budget: burn = 0.25/0.25 = 1.
        engine = SLOEngine(["error_rate<0.25"])
        _observe(engine, 3)
        _observe(engine, 1, failed=True)
        stats = engine.classes["shared-fock/sim"]
        assert stats.burn_rate(engine.targets[0]) == pytest.approx(1.0)

    def test_missing_latency_fields_cannot_violate(self):
        engine = SLOEngine(["total:p95<60"])
        engine.observe_job("c", queue_wait_s=None, run_s=None, total_s=None)
        assert engine.classes["c"].burn_rate(engine.targets[0]) \
            == pytest.approx(0.0)


class TestBreachEdges:
    def test_breach_fires_once_and_rearms(self):
        engine = SLOEngine(["error_rate<0.5"])

        # 1/1 failed: burn 2.0 -> breach fires.
        engine.observe_job("c", queue_wait_s=0, run_s=0, total_s=0,
                           failed=True)
        assert engine.breaches == 1
        # Still burning: no second breach.
        engine.observe_job("c", queue_wait_s=0, run_s=0, total_s=0,
                           failed=True)
        assert engine.breaches == 1
        # Recover below 1.0 (2 fails / 6 total = 0.33 < 0.5 budget).
        for _ in range(4):
            engine.observe_job("c", queue_wait_s=0, run_s=0, total_s=0)
        # Breach again after re-arm: fail until the burn crosses 1.0.
        for _ in range(5):
            engine.observe_job("c", queue_wait_s=0, run_s=0, total_s=0,
                               failed=True)
        assert engine.breaches == 2


class TestReporting:
    def test_report_shape_and_quantiles(self):
        engine = SLOEngine(["total:p95<60"])
        _observe(engine, 20, total=1.0)
        rep = engine.report()
        assert rep["targets"] == ["total:p95<60"]
        cls = rep["classes"]["shared-fock/sim"]
        assert cls["done"] == 20 and cls["failed"] == 0
        assert cls["error_rate"] == pytest.approx(0.0)
        for metric in ("queue_wait", "run", "total"):
            for q in ("p50", "p95", "p99"):
                assert cls["latency"][metric][q] is not None
        assert cls["latency"]["total"]["p50"] == pytest.approx(1.0, rel=0.5)
        assert cls["targets"][0]["burn_rate"] == pytest.approx(0.0)
        assert not cls["targets"][0]["breached"]
        json.dumps(rep)  # must be JSON-serializable as-is

    def test_report_text_and_renderer_agree(self):
        engine = SLOEngine()
        _observe(engine, 3, total=0.5)
        text = engine.report_text()
        assert text == render_slo_report(engine.report())
        assert "shared-fock/sim" in text
        assert "p95" in text

    def test_breach_flag_in_text(self):
        engine = SLOEngine(["error_rate<0.25"])
        _observe(engine, 1, failed=True)
        assert "BREACH" in engine.report_text()

    def test_empty_report(self):
        text = SLOEngine().report_text()
        assert "no terminal jobs" in text


class TestTelemetryReplay:
    def test_engine_from_telemetry_folds_terminal_records(self):
        records = [
            Event("job.submitted", 0.0, fields={"job": "j0"}),
            Event("job.done", 1.0, fields={
                "job": "j0", "job_class": "shared-fock/sim",
                "queue_wait_s": 0.1, "run_s": 0.4, "total_s": 0.5}),
            Event("job.failed", 2.0, fields={
                "job": "j1", "job_class": "shared-fock/sim",
                "queue_wait_s": 0.2, "run_s": 99.0, "total_s": 99.2}),
            Event("job.done", 3.0, fields={
                "job": "j2", "job_class": "mpi-only/process",
                "queue_wait_s": 0.0, "run_s": 1.0, "total_s": 1.0}),
        ]
        engine = engine_from_telemetry(records, targets=["total:p95<60"])
        assert set(engine.classes) == {"shared-fock/sim", "mpi-only/process"}
        sf = engine.classes["shared-fock/sim"]
        assert sf.done == 1 and sf.failed == 1
        assert sf.burn_rate(engine.targets[0]) == pytest.approx(10.0)

    def test_records_without_class_are_skipped(self):
        engine = engine_from_telemetry(
            [Event("job.done", 0.0, fields={"job": "j0"})])
        assert not engine.classes
