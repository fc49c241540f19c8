"""Tests for the durable job journal and queue restart recovery."""

from __future__ import annotations

import json
import shutil
import threading

import pytest

from repro import faults
from repro.api import run_sweep
from repro.core import EvolutionConfig
from repro.errors import FaultInjected, ServiceError
from repro.service import JobJournal, JobQueue, JobState, ResultStore

from test_queue import GatedRunner, spec_for


class TestJournalRecords:
    def test_roundtrip_and_pending_rules(self, tmp_path):
        path = tmp_path / "jobs.wal"
        journal = JobJournal(path)
        journal.record("submitted", "job-1", fingerprint="f1", spec={"a": 1})
        journal.record("submitted", "job-2", fingerprint="f2", spec={"a": 2})
        journal.record("started", "job-1", attempt=1)
        journal.record("done", "job-1")
        journal.record("submitted", "job-3", fingerprint="f3", spec={"a": 3})
        journal.record("started", "job-2", attempt=1)  # in-flight at "crash"
        journal.close()
        pending = JobJournal.replay(path)
        # job-1 finished; job-2 was in flight (back to pending); job-3
        # never started.  Admission order is preserved.
        assert [r["job_id"] for r in pending] == ["job-2", "job-3"]
        assert pending[0]["spec"] == {"a": 2}

    def test_absent_journal_is_empty_backlog(self, tmp_path):
        assert JobJournal.replay(tmp_path / "missing.wal") == []

    def test_torn_final_line_is_tolerated(self, tmp_path):
        path = tmp_path / "jobs.wal"
        journal = JobJournal(path)
        journal.record("submitted", "job-1", spec={})
        journal.record("submitted", "job-2", spec={})
        journal.close()
        raw = path.read_bytes()
        path.write_bytes(raw[:-9])  # tear the last append mid-record
        pending = JobJournal.replay(path)
        assert [r["job_id"] for r in pending] == ["job-1"]

    def test_torn_middle_line_raises(self, tmp_path):
        path = tmp_path / "jobs.wal"
        lines = [
            json.dumps({"type": "submitted", "job_id": "job-1", "spec": {}}),
            '{"type": "submitt',  # torn, but NOT the final line
            json.dumps({"type": "submitted", "job_id": "job-3", "spec": {}}),
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ServiceError, match="corrupt at line 2"):
            JobJournal.replay(path)

    def test_reset_truncates_atomically(self, tmp_path):
        path = tmp_path / "jobs.wal"
        journal = JobJournal(path)
        journal.record("submitted", "job-1", spec={})
        journal.reset()
        assert path.read_bytes() == b""
        assert JobJournal.replay(path) == []
        journal.record("submitted", "job-2", spec={})  # usable after reset
        journal.close()
        assert [r["job_id"] for r in JobJournal.replay(path)] == ["job-2"]

    def test_fsync_failure_surfaces_via_fault_site(self, tmp_path):
        journal = JobJournal(tmp_path / "jobs.wal")
        plan = faults.FaultPlan.from_dict(
            {"faults": [{"site": "service.journal",
                         "match": {"type": "done"}}]}
        )
        with faults.armed(plan):
            journal.record("submitted", "job-1", spec={})  # no match
            with pytest.raises(FaultInjected):
                journal.record("done", "job-1")
        journal.close()
        # The failed append wrote nothing: job-1 is still pending.
        assert len(JobJournal.replay(journal.path)) == 1


class TestQueueRecovery:
    def test_restart_replays_pending_jobs_bit_identically(self, tmp_path):
        wal = tmp_path / "jobs.wal"
        runner = GatedRunner()
        crashed = JobQueue(workers=1, journal=wal, _run_sweep=runner)
        running = crashed.submit(spec_for(seed=300))
        assert runner.started.wait(timeout=10)
        queued = crashed.submit(spec_for(seed=301, n=2))
        # Simulate the crash: copy the WAL as the kill instant left it —
        # both jobs admitted, neither finished — then let the orphaned
        # queue drain away without touching the copy.
        frozen = tmp_path / "crashed.wal"
        shutil.copy(wal, frozen)
        runner.gate.set()
        assert running.wait(timeout=30) and crashed.close() is None

        revived = JobQueue(workers=1, journal=frozen)
        try:
            assert revived.recovered_total == 2
            assert revived.recovery_errors == 0
            jobs = revived.jobs()
            assert [j.recovered_from for j in jobs] == [
                running.job_id, queued.job_id
            ]
            for job in jobs:
                assert job.wait(timeout=60)
                assert job.state == JobState.DONE
            # Replayed results are bit-identical to a direct run: the
            # journaled spec pins the science completely.
            direct = run_sweep(
                [EvolutionConfig(n_ssets=8, generations=300, rounds=16,
                                 seed=300)],
                backend="ensemble",
            )[0]
            replayed = jobs[0].results[0]
            assert (
                replayed.population.strategy_matrix()
                == direct.population.strategy_matrix()
            ).all()
            assert replayed.n_pc_events == direct.n_pc_events
            # The journal was compacted and re-written: only the replay's
            # own records remain, all of them terminal by now.
            assert JobJournal.replay(frozen) == []
        finally:
            revived.close()

    def test_finished_jobs_do_not_replay(self, tmp_path):
        wal = tmp_path / "jobs.wal"
        first = JobQueue(workers=1, journal=wal)
        job = first.submit(spec_for(seed=310))
        assert job.wait(timeout=60)
        first.close()
        second = JobQueue(workers=1, journal=wal)
        try:
            assert second.recovered_total == 0
            assert second.jobs() == []
        finally:
            second.close()

    def test_recovered_job_hits_disk_cache(self, tmp_path):
        wal = tmp_path / "jobs.wal"
        store = ResultStore(artifact_dir=tmp_path / "artifacts")
        runner = GatedRunner()
        # The leader finishes (artifact on disk) but a duplicate is still
        # queued when the "crash" happens.
        crashed = JobQueue(workers=1, journal=wal, store=store,
                           _run_sweep=runner)
        leader = crashed.submit(spec_for(seed=320))
        assert runner.started.wait(timeout=10)
        runner.gate.set()
        assert leader.wait(timeout=30)
        runner.gate.clear()
        runner.started.clear()
        blocker = crashed.submit(spec_for(seed=321))
        assert runner.started.wait(timeout=10)
        frozen = tmp_path / "crashed.wal"
        shutil.copy(wal, frozen)
        runner.gate.set()
        assert blocker.wait(timeout=30) and crashed.close() is None

        revived = JobQueue(
            workers=1,
            journal=frozen,
            store=ResultStore(artifact_dir=tmp_path / "artifacts"),
        )
        try:
            assert revived.recovered_total == 1
            job = revived.jobs()[0]
            assert job.wait(timeout=60)
            # blocker's artifact was already on disk: the replay resolves
            # from the store without re-executing.
            assert job.cache_hit
        finally:
            revived.close()

    def test_replay_overrides_backpressure(self, tmp_path):
        wal = tmp_path / "jobs.wal"
        journal = JobJournal(wal)
        for i in range(4):
            journal.record(
                "submitted", f"job-{i}",
                spec=spec_for(seed=330 + i).to_dict(),
            )
        journal.close()
        # max_queued=1 would reject 3 of the 4 at runtime; a restart must
        # admit the whole backlog anyway — bouncing journaled jobs at
        # startup would turn recovery into data loss.
        queue = JobQueue(workers=1, max_queued=1, journal=wal)
        try:
            assert queue.recovered_total == 4
            for job in queue.jobs():
                assert job.wait(timeout=60)
                assert job.state == JobState.DONE
        finally:
            queue.close()

    def test_unparseable_backlog_record_is_counted_not_fatal(self, tmp_path):
        wal = tmp_path / "jobs.wal"
        journal = JobJournal(wal)
        journal.record("submitted", "job-0", spec={"configs": "garbage"})
        # A backlog written by an older build may name a backend this
        # build no longer registers; it is dropped with the counter too.
        retired = dict(spec_for(seed=341).to_dict(), backend="multiprocess")
        journal.record("submitted", "job-retired", spec=retired)
        journal.record("submitted", "job-1", spec=spec_for(seed=340).to_dict())
        journal.close()
        queue = JobQueue(workers=1, journal=wal)
        try:
            assert queue.recovered_total == 1
            assert queue.recovery_errors == 2
            assert queue.stats()["recovery_errors"] == 2
            (job,) = queue.jobs()
            assert job.recovered_from == "job-1"
            assert job.wait(timeout=60)
            assert job.state == JobState.DONE
        finally:
            queue.close()

    def test_drain_preserves_backlog_for_restart(self, tmp_path):
        wal = tmp_path / "jobs.wal"
        runner = GatedRunner()
        queue = JobQueue(workers=1, journal=wal, _run_sweep=runner)
        running = queue.submit(spec_for(seed=350))
        assert runner.started.wait(timeout=10)
        waiting = queue.submit(spec_for(seed=351))
        drainer = threading.Thread(target=queue.drain, args=(0.3,))
        drainer.start()
        assert waiting.wait(timeout=10)
        assert waiting.state == JobState.CANCELLED
        assert "drain" in waiting.error
        # Hold the gate until the drain deadline has cancelled the running
        # job's token, then release: the runner reaches the driver's token
        # check and aborts cooperatively (releasing earlier would let the
        # run finish and journal "done", which is the other, untested path).
        assert running.cancel_token._cancelled.wait(timeout=10)
        runner.gate.set()
        drainer.join(timeout=30)
        assert not drainer.is_alive()
        queue.close()
        # Neither job got a terminal journal record — both replay.
        pending = JobJournal.replay(wal)
        assert [r["job_id"] for r in pending] == [
            running.job_id, waiting.job_id
        ]
