"""Chaos through the front door: fault injection via the job service.

The service claims to add *nothing* to the engine's failure model — a
fault injected under the server must produce exactly what the same
fault produces under a direct ``engine.run``: same retry behavior, same
poison quarantine, and (the bit that matters for reproducibility) the
same journal content hashes after recovery.  These tests reuse the
engine's :class:`FaultPlan` untouched and drive it through real HTTP
submissions.

``direct_hashes`` is the oracle: content hashes of a clean, fault-free
direct-engine run over the same submissions.  Every recovery scenario
must converge to it bit-for-bit (volatile fields — attempts, duration,
backoff — are excluded from the hash by construction).
"""

import os
import warnings

import pytest

from repro.errors import SweepInterrupted
from repro.experiments.engine import (
    CheckpointJournal,
    ExecutionEngine,
    FaultPlan,
    FaultSpec,
    JobFailure,
    JobResult,
    QuarantinePolicy,
    RetryPolicy,
    SweepReport,
    journal_record,
)
from repro.service import (
    ResultStore,
    ServiceClient,
    job_from_submission,
    run_jobs,
    start_server_thread,
)
from repro.service.server import MAX_REQUEUES

FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.05)

PAYLOADS = [
    {"benchmark": name, "mechanism": "mech"}
    for name in ("alpha", "beta", "gamma")
]


def service_worker(job):
    """Deterministic fake simulation; metrics derive only from the job."""
    return {
        "ipc": 1.0 + len(job.benchmark) / 10.0,
        "bpki": float(sum(job.benchmark.encode())),
    }


def beta_dies_worker(job):
    """service_worker, except that beta's worker process always dies."""
    if job.benchmark == "beta":
        os._exit(17)
    return service_worker(job)


def submission_jobs():
    return [job_from_submission(payload) for payload in PAYLOADS]


@pytest.fixture(scope="module")
def direct_hashes(tmp_path_factory):
    """Content hashes of a clean direct-engine run: the service oracle."""
    journal = CheckpointJournal(
        tmp_path_factory.mktemp("direct") / "direct.jsonl"
    )
    engine = ExecutionEngine(
        jobs=2, worker=service_worker, checkpoint=journal, retry=FAST_RETRY
    )
    report = engine.run(submission_jobs())
    assert report.exit_code == 0
    return journal.content_hashes()


def serve(tmp_path, fault_plan=None, **engine_overrides):
    journal_path = tmp_path / "svc.jsonl"
    settings = dict(
        jobs=2,
        worker=service_worker,
        checkpoint=CheckpointJournal(journal_path),
        retry=FAST_RETRY,
        fault_plan=fault_plan,
    )
    settings.update(engine_overrides)
    handle = start_server_thread(ExecutionEngine(**settings))
    return handle, ServiceClient(handle.url, client_id="chaos"), journal_path


def journal_hashes(path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # salvage warnings are the point
        return CheckpointJournal(path).content_hashes()


class TestWorkerFaultsThroughServer:
    def test_crash_is_retried_behind_the_api(self, tmp_path, direct_hashes):
        # beta's worker dies on attempt 1; the client just sees "done"
        plan = FaultPlan([FaultSpec("crash", job="beta", attempt=1)])
        handle, client, journal_path = serve(tmp_path, fault_plan=plan)
        try:
            report = run_jobs(client, submission_jobs(), timeout=60.0)
            assert report.exit_code == 0
            beta = next(r for r in report if r.job.benchmark == "beta")
            assert beta.ok
            assert beta.attempts == 2  # the crash cost one attempt
            assert beta.crashes >= 1
        finally:
            handle.stop()
        assert journal_hashes(journal_path) == direct_hashes

    def test_repeat_crasher_is_poisoned_and_cache_serves_the_poison(
        self, tmp_path
    ):
        # attempt=0: beta crashes its worker on *every* attempt
        plan = FaultPlan([FaultSpec("crash", job="beta", attempt=0)])
        handle, client, _journal_path = serve(
            tmp_path,
            fault_plan=plan,
            quarantine=QuarantinePolicy(max_crashes=2),
        )
        try:
            payload = client.run(PAYLOADS[1], timeout=60.0)
            assert payload["status"] == "failed"
            assert payload["error"]["type"] == "PoisonJobError"
            assert payload["error"]["poison"] is True
            executed = client.stats()["executed"]

            # a poisoned record is served from the cache — resubmitting
            # a known worker-killer must not burn another worker
            response = client.submit(PAYLOADS[1])
            assert response["status"] == "failed"
            assert response["cached"] is True
            stats = client.stats()
            assert stats["executed"] == executed
            assert stats["cache_hits"] == 1
        finally:
            handle.stop()

    def test_resubmitted_failure_carries_its_crash_count(self, tmp_path):
        # beta kills its worker on every attempt of every submission; two
        # attempts per submission and quarantine at three crashes, so the
        # first submission fails after two crashes and only a
        # resubmission that carries them over reaches the quarantine
        handle, client, _journal_path = serve(
            tmp_path,
            worker=beta_dies_worker,
            retry=RetryPolicy(max_attempts=2, base_delay=0.01),
            quarantine=QuarantinePolicy(max_crashes=3),
        )
        try:
            first = client.run(PAYLOADS[1], timeout=60.0)
            assert first["error"]["type"] == "WorkerCrashError"
            assert first["crashes"] == 2
            second = client.run(PAYLOADS[1], timeout=60.0)
            assert second["error"]["type"] == "PoisonJobError"
            assert second["crashes"] == 3
        finally:
            handle.stop()

    def test_engine_abort_requeues_and_converges(
        self, tmp_path, direct_hashes
    ):
        # an injected scheduler abort ends the engine pass mid-flight;
        # the service keeps what settled, requeues the rest and starts a
        # new pass — clients never observe the interruption, only a
        # slower answer
        plan = FaultPlan([FaultSpec("abort", job="beta")])
        handle, client, journal_path = serve(tmp_path, fault_plan=plan)
        try:
            report = run_jobs(client, submission_jobs(), timeout=60.0)
            assert report.exit_code == 0
            assert len(report.ok) == 3
            assert client.stats()["pass_aborts"] == 1
        finally:
            handle.stop()
        assert journal_hashes(journal_path) == direct_hashes

    def test_job_past_max_requeues_fails_with_a_journal_record(
        self, tmp_path
    ):
        # every engine pass ends before its job settles, so the service
        # requeues the job MAX_REQUEUES times and then fails it; that
        # failure is a journal record like any the engine writes
        engine = ExecutionEngine(
            worker=service_worker,
            checkpoint=CheckpointJournal(tmp_path / "svc.jsonl"),
        )

        def never_settles(feed, **kwargs):
            # take the job, then end the pass before it settles
            while not feed.take()[0]:
                if feed.closed:
                    return SweepReport()
                feed.wait(0.05)
            raise SweepInterrupted("injected: the pass ends unsettled")

        engine.run = never_settles
        handle = start_server_thread(engine)
        client = ServiceClient(handle.url, client_id="requeue")
        try:
            key = client.submit(PAYLOADS[0])["key"]
            assert client.wait(key, timeout=30.0)["status"] == "failed"
            passes = MAX_REQUEUES + 1
            expected = journal_record(JobResult(
                job_from_submission(PAYLOADS[0]),
                "failed",
                failure=JobFailure(
                    "ServiceError",
                    f"job never settled after {passes} engine pass(es)",
                    transient=True,
                ),
                attempts=passes,
            ))
            assert client.result(key) == expected
            assert client.stats()["pass_aborts"] == passes
        finally:
            handle.stop()


class TestJournalFaultsThroughServer:
    def test_torn_journal_write_heals_across_restart(
        self, tmp_path, direct_hashes
    ):
        # beta's journal record is torn mid-write.  This life, the store
        # serves beta from memory; the damage surfaces
        # only on restart, as one salvaged record and one re-execution.
        plan = FaultPlan([FaultSpec("torn-write", job="beta")])
        handle, client, journal_path = serve(tmp_path, fault_plan=plan)
        try:
            report = run_jobs(client, submission_jobs(), timeout=60.0)
            assert report.exit_code == 0
            assert len(report.ok) == 3
        finally:
            handle.stop()

        # restart over the damaged journal: alpha/gamma records are
        # intact (cache hits), beta's torn record re-executes
        handle, client, journal_path = serve(tmp_path)
        try:
            store = ResultStore(CheckpointJournal(journal_path))
            assert store.salvage is not None and not store.salvage.clean
            assert len(store) == 2  # beta's record was the torn one

            report = run_jobs(client, submission_jobs(), timeout=60.0)
            assert report.exit_code == 0
            assert len(report.resumed) == 2  # alpha + gamma from cache
            stats = client.stats()
            assert stats["executed"] == 1  # beta, and only beta
            assert stats["cache_hits"] == 2
        finally:
            handle.stop()
        # recovery is bit-identical to a run that never saw the fault
        assert journal_hashes(journal_path) == direct_hashes

    def test_enospc_journal_fault_still_serves_results(
        self, tmp_path, direct_hashes
    ):
        # a failed journal write (disk full) must not fail the request:
        # the report still has the result; only durability is degraded
        plan = FaultPlan([FaultSpec("enospc", job="beta")])
        handle, client, journal_path = serve(tmp_path, fault_plan=plan)
        try:
            report = run_jobs(client, submission_jobs(), timeout=60.0)
            assert report.exit_code == 0
            assert len(report.ok) == 3
            assert client.stats()["journal_errors"] == 1
        finally:
            handle.stop()

        # beta never became durable; a fresh server re-runs exactly it,
        # after which the journal converges to the clean oracle
        handle, client, journal_path = serve(tmp_path)
        try:
            report = run_jobs(client, submission_jobs(), timeout=60.0)
            assert report.exit_code == 0
            assert client.stats()["executed"] == 1
        finally:
            handle.stop()
        assert journal_hashes(journal_path) == direct_hashes
