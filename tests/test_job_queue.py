"""Durable job queue: write-ahead journaling, replay, admission control."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.service.errors import JobNotFound, JobSpecError, ServiceOverloaded
from repro.service.jobs import Job, JobSpec, sha256
from repro.service.queue import DurableJobQueue

H2_XYZ = "2\nh2\nH 0.0 0.0 0.0\nH 0.0 0.0 0.74\n"
JOURNAL_TWO_RECORDS = (
    Path(__file__).parent / "golden" / "journal_two_running_records.ndjson"
)


def spec(**kwargs) -> JobSpec:
    return JobSpec(xyz=H2_XYZ, **kwargs)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.binary(max_size=200), max_size=8))
def test_fingerprint_digest_is_hashlibs(chunks):
    """Job, manifest and plan fingerprints hash with CPython's built-in
    SHA-256 (no OpenSSL); its bytes must be ``hashlib``'s, whole or fed
    in pieces, or every stored fingerprint would stop matching."""
    want = hashlib.sha256(b"".join(chunks)).hexdigest()
    assert sha256(b"".join(chunks)).hexdigest() == want
    h = sha256()
    for chunk in chunks:
        h.update(chunk)
    assert h.hexdigest() == want


@pytest.fixture
def journal(tmp_path):
    return tmp_path / "journal.ndjson"


class TestJournaling:
    def test_submit_is_journaled_before_acknowledgement(self, journal):
        with DurableJobQueue(journal, fsync=False) as q:
            job = q.submit(spec(tag="a"))
        lines = journal.read_text().strip().splitlines()
        rec = json.loads(lines[0])
        assert rec["op"] == "submit"
        assert rec["job"]["id"] == job.id
        assert rec["job"]["spec"]["tag"] == "a"

    def test_every_transition_appends_a_line(self, journal):
        with DurableJobQueue(journal, fsync=False) as q:
            job = q.submit(spec())
            q.transition(job.id, "running", attempt=1)
            q.transition(job.id, "done", result={"energy": -1.0})
        ops = [json.loads(ln)["op"]
               for ln in journal.read_text().strip().splitlines()]
        assert ops == ["submit", "state", "state"]

    def test_replay_rebuilds_state(self, journal):
        with DurableJobQueue(journal, fsync=False) as q:
            a = q.submit(spec(tag="a"))
            b = q.submit(spec(tag="b"))
            q.transition(a.id, "running", attempt=1)
            q.transition(a.id, "done", result={"energy": -1.125})
        with DurableJobQueue(journal, fsync=False) as q2:
            assert len(q2) == 2
            assert q2.get(a.id).state == "done"
            assert q2.get(a.id).result == {"energy": -1.125}
            assert q2.get(b.id).state == "pending"
            assert [j.id for j in q2] == [a.id, b.id]

    def test_acknowledged_done_jobs_survive_replay_verbatim(self, journal):
        """'done' is the acknowledged state: replay never re-opens it."""
        with DurableJobQueue(journal, fsync=False) as q:
            job = q.submit(spec())
            q.transition(job.id, "running", attempt=1)
            q.transition(job.id, "done", result={"energy": -1.0})
        with DurableJobQueue(journal, fsync=False) as q2:
            replayed = q2.get(job.id)
            assert replayed.state == "done"
            assert not replayed.interrupted
            assert q2.claim_next(now=1e12) is None  # nothing to re-run

    def test_running_jobs_recover_as_interrupted_pending(self, journal):
        with DurableJobQueue(journal, fsync=False) as q:
            job = q.submit(spec())
            q.transition(job.id, "running", attempt=1)
            # SIGKILL here: no terminal transition ever lands.
        with DurableJobQueue(journal, fsync=False) as q2:
            recovered = q2.get(job.id)
            assert recovered.state == "pending"
            assert recovered.interrupted
            assert recovered.attempt == 1
            assert q2.recovered_jobs == [job.id]

    def test_retrying_jobs_keep_their_backoff_gate(self, journal):
        with DurableJobQueue(journal, fsync=False) as q:
            job = q.submit(spec())
            q.transition(job.id, "running", attempt=1)
            q.transition(job.id, "retrying", not_before=123.5,
                         error="boom", error_type="WorkerLostError")
        with DurableJobQueue(journal, fsync=False) as q2:
            j = q2.get(job.id)
            assert j.state == "pending"
            assert j.not_before == 123.5

    def test_torn_tail_is_dropped(self, journal):
        with DurableJobQueue(journal, fsync=False) as q:
            a = q.submit(spec())
            q.transition(a.id, "running", attempt=1)
        # A crash mid-append leaves a torn, unacknowledged final line.
        with open(journal, "a") as fh:
            fh.write('{"op": "state", "id": "' + a.id + '", "sta')
        with DurableJobQueue(journal, fsync=False) as q2:
            assert q2.get(a.id).state == "pending"  # running -> recovered
            assert len(q2) == 1

    def test_recover_marker_written_on_adoption(self, journal):
        with DurableJobQueue(journal, fsync=False) as q:
            q.submit(spec())
        with DurableJobQueue(journal, fsync=False):
            pass
        ops = [json.loads(ln)["op"]
               for ln in journal.read_text().strip().splitlines()]
        assert "recover" in ops

    def test_ids_never_collide_across_restarts(self, journal):
        with DurableJobQueue(journal, fsync=False) as q:
            first = q.submit(spec())
        with DurableJobQueue(journal, fsync=False) as q2:
            second = q2.submit(spec())
        assert first.id != second.id

    def test_journal_with_two_running_records_per_attempt_replays(
        self, journal
    ):
        """A literal journal of the build that journaled every attempt
        twice — the claim (``attempt``), then the annotations (``run_id``,
        ``resumed``, ``degraded``) — written by a daemon that ran a job to
        done, one killed on attempt 1 and resumed on attempt 2, one
        degraded to the sim backend, cancelled one, and was stopped with
        one running and one pending.  The fold is what that build's own
        replay gave."""
        journal.write_text(JOURNAL_TWO_RECORDS.read_text())
        with DurableJobQueue(journal, fsync=False) as q:
            folded = [(j.spec.tag, j.state, j.attempt, j.run_id,
                       j.interrupted, j.degraded) for j in q]
            assert q.recovered_jobs == ["j000003"]
        assert folded == [
            ("done", "done", 1, "20261015-192617-22820-0011", False, False),
            ("retried", "done", 2, "20261015-192617-22820-0023",
             False, False),
            ("degraded", "done", 1, "20261015-192617-22820-003c",
             False, True),
            ("interrupted", "pending", 1, "20261015-192617-22820-0041",
             True, False),
            ("cancelled", "cancelled", 0, None, False, False),
            ("pending", "pending", 0, None, False, False),
        ]


class TestAdmissionControl:
    def test_overload_sheds_with_typed_error(self, journal):
        with DurableJobQueue(journal, max_depth=2, fsync=False) as q:
            q.submit(spec())
            q.submit(spec())
            with pytest.raises(ServiceOverloaded) as err:
                q.submit(spec())
            assert err.value.depth == 2
            assert err.value.max_depth == 2

    def test_terminal_jobs_release_capacity(self, journal):
        with DurableJobQueue(journal, max_depth=1, fsync=False) as q:
            a = q.submit(spec())
            q.transition(a.id, "running", attempt=1)
            q.transition(a.id, "done", result={})
            q.submit(spec())  # must not raise

    def test_invalid_spec_rejected_before_journaling(self, journal):
        with DurableJobQueue(journal, fsync=False) as q:
            with pytest.raises(JobSpecError):
                q.submit(spec(algorithm="nope"))
        assert journal.read_text() == ""


class TestDispatch:
    def test_claim_next_is_fifo(self, journal):
        with DurableJobQueue(journal, fsync=False) as q:
            a = q.submit(spec(tag="a"))
            q.submit(spec(tag="b"))
            claimed = q.claim_next()
            assert claimed.id == a.id
            assert claimed.state == "running"
            assert claimed.attempt == 1

    def test_next_ready_changes_nothing(self, journal):
        """The dispatcher picks a job with ``next_ready`` and claims it
        with the attempt's one ``running`` record; the pick alone
        neither journals nor changes the job."""
        with DurableJobQueue(journal, fsync=False) as q:
            job = q.submit(spec())
            before = journal.read_text()
            assert q.next_ready() is job
            assert journal.read_text() == before
            assert (job.state, job.attempt) == ("pending", 0)

    def test_claim_is_one_record_written_before_the_change(self, journal):
        with DurableJobQueue(journal, fsync=False) as q:
            job = q.submit(spec())
            seen: list[tuple[str, int]] = []
            append = q._append

            def spy(record):
                seen.append((job.state, job.attempt))
                append(record)

            q._append = spy
            assert q.claim_next() is job
        assert seen == [("pending", 0)]
        records = [json.loads(ln) for ln in journal.read_text().splitlines()]
        assert [(r["op"], r.get("state"), r.get("attempt"))
                for r in records] == [("submit", None, None),
                                      ("state", "running", 1)]

    def test_backoff_gate_defers_dispatch(self, journal):
        with DurableJobQueue(journal, fsync=False, clock=lambda: 100.0) as q:
            job = q.submit(spec())
            q.transition(job.id, "retrying", not_before=150.0)
            assert q.claim_next(now=100.0) is None
            assert q.next_wakeup() == 150.0
            claimed = q.claim_next(now=150.5)
            assert claimed.id == job.id
            assert claimed.attempt == 1

    def test_prefix_lookup(self, journal):
        with DurableJobQueue(journal, fsync=False) as q:
            a = q.submit(spec())
            assert q.get(a.id[:4]).id == a.id
            with pytest.raises(JobNotFound):
                q.get("zzz")

    def test_ambiguous_prefix_raises(self, journal):
        with DurableJobQueue(journal, fsync=False) as q:
            q.submit(spec())
            q.submit(spec())
            with pytest.raises(JobNotFound):
                q.get("j")


class TestCancel:
    def test_cancel_pending(self, journal):
        with DurableJobQueue(journal, fsync=False) as q:
            job = q.submit(spec())
            assert q.cancel(job.id).state == "cancelled"

    def test_cancel_terminal_is_idempotent(self, journal):
        with DurableJobQueue(journal, fsync=False) as q:
            job = q.submit(spec())
            q.cancel(job.id)
            assert q.cancel(job.id).state == "cancelled"

    def test_cancel_running_requires_the_daemon(self, journal):
        with DurableJobQueue(journal, fsync=False) as q:
            job = q.submit(spec())
            q.claim_next()
            with pytest.raises(ValueError):
                q.cancel(job.id)


class TestJobModel:
    def test_spec_roundtrip(self):
        s = spec(tag="x", nranks=3, max_iterations=17)
        assert JobSpec.from_dict(s.to_dict()) == s

    def test_spec_rejects_unknown_fields(self):
        with pytest.raises(JobSpecError):
            JobSpec.from_dict({"xyz": H2_XYZ, "walrus": 1})

    def test_job_roundtrip(self):
        job = Job(id="j000001", spec=spec(), state="retrying",
                  attempt=2, not_before=5.0, error="x",
                  error_type="WorkerLostError")
        assert Job.from_dict(job.to_dict()) == job

    @pytest.mark.parametrize("bad", [
        {"algorithm": "quantum"},
        {"backend": "cloud"},
        {"schedule": "alphabetical"},
        {"nranks": 0},
        {"nthreads": 0},
        {"algorithm": "mpi-only", "nthreads": 4},
        {"eri_cache_mb": -1.0},
        {"max_iterations": 0},
        {"sleep_s": -1.0},
        {"die_on_attempt": 0},
    ])
    def test_spec_validation(self, bad):
        with pytest.raises(JobSpecError):
            spec(**bad).validate()

    def test_empty_xyz_rejected(self):
        with pytest.raises(JobSpecError):
            JobSpec(xyz="  ").validate()

    def test_setup_key_depends_on_system_only(self):
        assert spec(tag="a").setup_key() == spec(tag="b").setup_key()
        assert spec().setup_key() != spec(basis="6-31g").setup_key()
        assert spec().setup_key() != spec(charge=1).setup_key()
