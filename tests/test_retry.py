"""Retry policy: seeded-deterministic backoff + failure classification."""

from __future__ import annotations

import pytest

from repro.resilience.errors import SCFConvergenceError
from repro.service.errors import JobSpecError, WorkerLostError
from repro.service.retry import (
    RETRYABLE,
    TERMINAL,
    RetryPolicy,
    classify,
)


class TestBackoffDeterminism:
    def test_same_seed_same_schedule(self):
        a = RetryPolicy(max_retries=5, seed=42)
        b = RetryPolicy(max_retries=5, seed=42)
        assert a.schedule("j000007") == b.schedule("j000007")

    def test_schedule_is_stable_across_calls(self):
        policy = RetryPolicy(max_retries=4, seed=3)
        assert policy.schedule("j000001") == policy.schedule("j000001")

    def test_different_seed_different_schedule(self):
        a = RetryPolicy(max_retries=5, seed=0)
        b = RetryPolicy(max_retries=5, seed=1)
        assert a.schedule("j000007") != b.schedule("j000007")

    def test_different_jobs_get_different_jitter(self):
        policy = RetryPolicy(max_retries=3, seed=0)
        assert policy.schedule("j000001") != policy.schedule("j000002")

    def test_exponential_growth_without_jitter(self):
        policy = RetryPolicy(
            max_retries=4, backoff_base_s=0.5, backoff_cap_s=100.0,
            jitter=0.0,
        )
        assert policy.schedule("j") == [0.5, 1.0, 2.0, 4.0]

    def test_cap_bounds_every_delay(self):
        policy = RetryPolicy(
            max_retries=10, backoff_base_s=1.0, backoff_cap_s=3.0,
            jitter=0.0,
        )
        assert policy.schedule("j") == [1.0, 2.0, 3.0, 3.0, 3.0, 3.0,
                                        3.0, 3.0, 3.0, 3.0]

    def test_jitter_stays_in_band(self):
        policy = RetryPolicy(
            max_retries=1, backoff_base_s=1.0, jitter=0.25, seed=9,
        )
        for job in (f"j{i:06d}" for i in range(50)):
            assert 0.75 <= policy.delay_s(job, 1) <= 1.25

    def test_attempt_must_be_positive(self):
        with pytest.raises(ValueError):
            RetryPolicy().delay_s("j", 0)


class TestPolicyValidation:
    @pytest.mark.parametrize("kwargs", [
        {"max_retries": -1},
        {"backoff_base_s": 0.0},
        {"backoff_base_s": -1.0},
        {"backoff_base_s": 2.0, "backoff_cap_s": 1.0},
        {"jitter": -0.1},
        {"jitter": 1.0},
    ])
    def test_rejects_bad_configuration(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


class TestClassification:
    @pytest.mark.parametrize("name", [
        "SCFConvergenceError", "JobSpecError", "FaultSpecError",
        "NonFiniteDensityError", "ValueError", "JobCancelled",
    ])
    def test_terminal_names(self, name):
        assert classify(name) == TERMINAL

    @pytest.mark.parametrize("name", [
        "WorkerLostError", "JobTimeoutError", "OSError", "MemoryError",
    ])
    def test_retryable_names(self, name):
        assert classify(name) == RETRYABLE

    def test_unknown_defaults_to_retryable(self):
        assert classify("SomeMysteryError") == RETRYABLE
        assert classify(None) == RETRYABLE

    def test_live_exception_classified_by_mro(self):
        # WorkerLostError subclasses ServiceError (unknown) but its own
        # name is in the retryable set.
        assert classify(WorkerLostError("died")) == RETRYABLE
        # JobSpecError is also a ValueError; either name is terminal.
        assert classify(JobSpecError("bad")) == TERMINAL
        assert classify(SCFConvergenceError("no")) == TERMINAL

    def test_subclass_of_known_type_inherits_verdict(self):
        class CustomSpecProblem(ValueError):
            pass

        assert classify(CustomSpecProblem("x")) == TERMINAL


class TestShouldRetry:
    def test_budget_counts_attempts(self):
        policy = RetryPolicy(max_retries=2)
        assert policy.should_retry(1, "WorkerLostError")
        assert policy.should_retry(2, "WorkerLostError")
        assert not policy.should_retry(3, "WorkerLostError")

    def test_terminal_never_retries(self):
        policy = RetryPolicy(max_retries=5)
        assert not policy.should_retry(1, "SCFConvergenceError")

    def test_zero_budget_disables_retries(self):
        policy = RetryPolicy(max_retries=0)
        assert not policy.should_retry(1, "WorkerLostError")
