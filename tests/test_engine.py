"""Execution engine tests: crash isolation, timeouts, retries, resume.

The fake workers below run in real child processes (the engine's crash
barrier is the thing under test), so they are module-level functions and
record every execution as a marker file in a directory passed through the
environment — that is how the tests assert *job-execution counts* across
process boundaries.
"""

import json
import os
import sys
import tempfile
import threading
import time

import pytest

from repro.errors import (
    ConfigError,
    JobTimeoutError,
    ReproError,
    TransientError,
    UnknownNameError,
    WorkerCrashError,
    is_transient,
)
from repro.experiments.engine import (
    CheckpointJournal,
    ExecutionEngine,
    FailedResult,
    Job,
    JobFailure,
    JobFeed,
    LocalBackend,
    RetryPolicy,
    is_failed,
    snapshot_metrics,
)
from repro.experiments.engine import executor as executor_module

MARKER_ENV = "REPRO_TEST_MARKER_DIR"

FAST_RETRY = RetryPolicy(max_attempts=2, base_delay=0.01, max_delay=0.05)


def _mark(job):
    """Record one execution of *job* (works across processes)."""
    directory = os.environ[MARKER_ENV]
    handle, _ = tempfile.mkstemp(
        prefix=f"{job.benchmark}.", suffix=".mark", dir=directory
    )
    os.close(handle)


def _executions(benchmark):
    directory = os.environ[MARKER_ENV]
    return len(
        [n for n in os.listdir(directory) if n.startswith(f"{benchmark}.")]
    )


def fake_worker(job):
    _mark(job)
    if job.benchmark == "hang":
        time.sleep(60)
    if job.benchmark == "crash":
        raise RuntimeError("simulated simulation bug")
    if job.benchmark == "die":
        os._exit(17)
    if job.benchmark == "flaky" and _executions("flaky") < 2:
        raise TransientError("transient glitch")
    return {"ipc": 1.0 + len(job.benchmark) / 10, "bpki": 2.0}


def unpicklable_worker(job):
    return lambda: None  # cannot cross the process boundary


@pytest.fixture
def marker_dir(tmp_path, monkeypatch):
    directory = tmp_path / "markers"
    directory.mkdir()
    monkeypatch.setenv(MARKER_ENV, str(directory))
    return directory


def make_engine(tmp_path, **overrides):
    settings = dict(
        jobs=4,
        timeout=1.0,
        retry=FAST_RETRY,
        checkpoint=CheckpointJournal(tmp_path / "sweep.jsonl"),
        worker=fake_worker,
    )
    settings.update(overrides)
    return ExecutionEngine(**settings)


class TestSweepResilience:
    """The acceptance scenario: >= 8 jobs, one hangs, one raises."""

    BENCHMARKS = ["b1", "b2", "b3", "b4", "b5", "b6", "hang", "crash"]

    def test_hang_and_crash_do_not_kill_sweep_and_resume_is_minimal(
        self, tmp_path, marker_dir
    ):
        engine = make_engine(tmp_path)
        jobs = [Job(name, "mech") for name in self.BENCHMARKS]
        report = engine.run(jobs)

        assert report.exit_code == 1
        assert len(report.ok) == 6
        failed = {r.job.benchmark: r for r in report.failures}
        assert set(failed) == {"hang", "crash"}
        # failures carry actionable reasons
        assert "timed out" in failed["hang"].failure.reason
        assert "simulated simulation bug" in failed["crash"].failure.reason
        # the timeout is transient -> retried to the budget (2 attempts);
        # the RuntimeError is permanent -> failed fast on attempt 1
        assert failed["hang"].attempts == 2
        assert _executions("hang") == 2
        assert failed["crash"].attempts == 1
        assert _executions("crash") == 1
        for name in ("b1", "b2", "b3", "b4", "b5", "b6"):
            assert _executions(name) == 1

        # resume: completed jobs replay from the journal, only the two
        # failed jobs execute again
        resumed_report = engine.run(jobs, resume=True)
        assert resumed_report.exit_code == 1
        assert len(resumed_report.resumed) == 6
        for name in ("b1", "b2", "b3", "b4", "b5", "b6"):
            assert _executions(name) == 1  # NOT re-run
        assert _executions("hang") == 4  # 2 more attempts
        assert _executions("crash") == 2  # 1 more attempt

    def test_resumed_results_expose_metrics(self, tmp_path, marker_dir):
        engine = make_engine(tmp_path)
        jobs = [Job("b1", "mech")]
        first = engine.run(jobs)
        assert first.ok[0].result["ipc"] == pytest.approx(1.2)
        second = engine.run(jobs, resume=True)
        snapshot = second.resumed[0].result
        assert snapshot.ipc == pytest.approx(1.2)
        assert snapshot.bpki == pytest.approx(2.0)


class TestEngineFieldSweeps:
    """Real sweeps through the default worker under both simulation
    engines: the config's ``engine`` field must differentiate journal
    keys, the journal metrics must agree bit-for-bit between engines,
    and a fast-engine resume must replay entirely from the journal."""

    BENCHMARKS = ["mst", "libquantum"]
    MECHANISM = "baseline"

    @staticmethod
    def _config(engine):
        from repro.core.config import SystemConfig

        return SystemConfig.scaled().with_overrides(
            l1_size=1024, l1_ways=2, l2_size=4096, l2_ways=4, engine=engine
        )

    def _jobs(self, engine):
        return [
            Job(name, self.MECHANISM, self._config(engine), input_set="test")
            for name in self.BENCHMARKS
        ]

    def test_fast_sweep_matches_reference_and_resumes_from_journal(
        self, tmp_path
    ):
        from repro.experiments.engine.worker import default_worker

        engine = ExecutionEngine(
            jobs=2,
            timeout=120.0,
            retry=FAST_RETRY,
            checkpoint=CheckpointJournal(tmp_path / "sweep.jsonl"),
            worker=default_worker,
        )
        reports = {
            name: engine.run(self._jobs(name))
            for name in ("reference", "fast")
        }
        for name, report in reports.items():
            assert report.exit_code == 0, name
            assert len(report.ok) == len(self.BENCHMARKS)
            assert not report.resumed  # keys differ per engine: no replay

        def metrics(report):
            return {
                outcome.job.benchmark: snapshot_metrics(outcome.result)
                for outcome in report.ok
            }

        assert metrics(reports["fast"]) == metrics(reports["reference"])
        # sanity: the journal rows are real simulations, not placeholders
        for outcome in reports["fast"].ok:
            assert outcome.result.retired_instructions > 0
            assert outcome.result.cycles > 0

        # resume the fast sweep: everything replays, nothing re-executes
        resumed = engine.run(self._jobs("fast"), resume=True)
        assert resumed.exit_code == 0
        assert len(resumed.resumed) == len(self.BENCHMARKS)
        assert all(outcome.resumed for outcome in resumed.ok)  # no re-runs
        fast = metrics(reports["fast"])
        for outcome in resumed.resumed:
            snapshot = outcome.result
            expected = fast[outcome.job.benchmark]
            assert snapshot.get("retired_instructions") == expected[
                "retired_instructions"
            ]
            assert snapshot.get("cycles") == expected["cycles"]
            assert snapshot.get("bus_transfers") == expected["bus_transfers"]


class TestFailureShapes:
    def test_worker_hard_death_is_isolated_and_retried(
        self, tmp_path, marker_dir
    ):
        engine = make_engine(tmp_path, timeout=None)
        report = engine.run([Job("die", "mech"), Job("ok", "mech")])
        assert len(report.ok) == 1
        (failure,) = report.failures
        assert failure.failure.error_type == "WorkerCrashError"
        assert failure.failure.transient
        assert failure.attempts == 2  # worker loss is transient

    def test_transient_failure_retried_to_success(
        self, tmp_path, marker_dir
    ):
        engine = make_engine(tmp_path, jobs=1, timeout=None)
        report = engine.run([Job("flaky", "mech")])
        assert report.exit_code == 0
        assert report.ok[0].attempts == 2
        assert _executions("flaky") == 2

    def test_unpicklable_result_degrades_to_failure(self, tmp_path):
        engine = make_engine(
            tmp_path, worker=unpicklable_worker, checkpoint=None
        )
        report = engine.run([Job("x", "mech")])
        (failure,) = report.failures
        assert "not transferable" in failure.failure.message

    def test_duplicate_jobs_run_once(self, tmp_path, marker_dir):
        engine = make_engine(tmp_path, checkpoint=None, timeout=None)
        report = engine.run([Job("b1", "mech"), Job("b1", "mech")])
        assert len(report.order) == 1
        assert _executions("b1") == 1


def slow_worker(job):
    """Sleeps 1.5 s on the "slow" benchmark, returns at once otherwise."""
    _mark(job)
    if job.benchmark == "slow":
        time.sleep(1.5)
    return {"ipc": 1.0, "bpki": 2.0}


class CountingFeed(JobFeed):
    """A feed that counts how often the pass looks into it."""

    takes = 0

    def take(self):
        self.takes += 1
        return super().take()


class PassThread:
    """``engine.run(feed)`` on a thread, outcomes timed as they settle."""

    def __init__(self, engine, feed):
        self.settled = []  # (label, monotonic time, resumed)
        self.reports = []
        self.thread = threading.Thread(
            target=lambda: self.reports.append(
                engine.run(feed, progress=self._progress)
            )
        )
        self.thread.start()

    def _progress(self, outcome):
        self.settled.append(
            (outcome.job.label, time.monotonic(), outcome.resumed)
        )

    def wait_for(self, label, timeout=10.0):
        deadline = time.monotonic() + timeout
        while not any(entry[0] == label for entry in self.settled):
            assert time.monotonic() < deadline, f"{label} never settled"
            time.sleep(0.01)

    def join(self):
        self.thread.join(30)
        assert not self.thread.is_alive()
        (report,) = self.reports
        return report


class TestJobFeed:
    def test_job_fed_while_workers_run_launches_at_once(
        self, tmp_path, marker_dir, monkeypatch
    ):
        # with a 30 s scheduler tick, only the feed's wake-up can launch
        # the fast job before the slow one finishes
        monkeypatch.setattr(executor_module, "_MAX_TICK", 30.0)
        engine = make_engine(
            tmp_path, jobs=2, timeout=None, checkpoint=None,
            worker=slow_worker,
        )
        with JobFeed() as feed:
            runner = PassThread(engine, feed)
            feed.put(Job("slow", "mech"))
            deadline = time.monotonic() + 10.0
            while _executions("slow") == 0:
                assert time.monotonic() < deadline, "slow job never ran"
                time.sleep(0.01)
            fed_at = time.monotonic()
            feed.put(Job("fast", "mech"))
            runner.wait_for("fast/mech")
            feed.close()
            report = runner.join()
        labels = [label for label, _, _ in runner.settled]
        assert labels == ["fast/mech", "slow/mech"]
        assert runner.settled[0][1] - fed_at < 1.0
        # a pass over an open feed keeps no settled result
        assert report.results == {} and report.order == []
        assert not report.interrupted

    def test_idle_pass_blocks_until_fed(
        self, tmp_path, marker_dir, monkeypatch
    ):
        monkeypatch.setattr(executor_module, "_MAX_TICK", 30.0)
        engine = make_engine(tmp_path, timeout=None, checkpoint=None)
        with CountingFeed() as feed:
            runner = PassThread(engine, feed)
            time.sleep(0.5)  # idle: a spinning loop would take thousands
            assert feed.takes <= 3
            feed.put(Job("b1", "mech"))
            runner.wait_for("b1/mech")
            feed.close()
            runner.join()
        assert _executions("b1") == 1

    def test_fed_record_settles_like_a_resumed_one(
        self, tmp_path, marker_dir
    ):
        engine = make_engine(tmp_path, timeout=None, checkpoint=None)
        record = {"status": "ok", "metrics": {"ipc": 1.5}, "attempts": 1}
        with JobFeed() as feed:
            runner = PassThread(engine, feed)
            feed.put(Job("b1", "mech"), record)
            runner.wait_for("b1/mech")
            feed.close()
            runner.join()
        assert runner.settled[0][2] is True  # resumed, not executed
        assert _executions("b1") == 0

    def test_a_list_is_a_feed_closed_before_the_pass(
        self, tmp_path, marker_dir
    ):
        engine = make_engine(tmp_path, checkpoint=None, timeout=None)
        feed = JobFeed([Job("b1", "mech"), Job("b1", "mech")], closed=True)
        assert feed.fileno() is None  # nothing can wake it: no pipe
        report = engine.run(feed)
        assert len(report.order) == 1 and len(report.ok) == 1
        with pytest.raises(ValueError):
            feed.put(Job("b2", "mech"))

    def test_concurrent_puts_reach_the_taker_exactly_once(self):
        # four putters against one taker, with thread switches forced
        # every microsecond: a lost or doubled job breaks the count
        jobs = [Job(f"b{i}", "mech") for i in range(800)]
        taken = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with JobFeed() as feed:

                def taker():
                    while True:
                        items, closed = feed.take()
                        taken.extend(job for job, _ in items)
                        if closed and not items:
                            return
                        feed.wait(0.05)

                def putter(share):
                    for job in share:
                        feed.put(job)

                consumer = threading.Thread(target=taker)
                producers = [
                    threading.Thread(target=putter, args=(jobs[i::4],))
                    for i in range(4)
                ]
                consumer.start()
                for thread in producers:
                    thread.start()
                for thread in producers:
                    thread.join(30)
                feed.close()
                consumer.join(30)
                assert not consumer.is_alive()
                assert not any(thread.is_alive() for thread in producers)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(job.benchmark for job in taken) == sorted(
            job.benchmark for job in jobs
        )

    def test_poll_returns_when_the_feed_wakes(self):
        backend = LocalBackend()
        with JobFeed() as feed:
            feed.put(Job("b1", "mech"))
            started = time.monotonic()
            assert backend.poll([], timeout=30.0, wake=feed.fileno()) == []
            assert time.monotonic() - started < 5.0
            assert len(feed.take()[0]) == 1
        assert feed.fileno() is None  # released on exit


class TestCheckpointJournal:
    def test_corrupt_trailing_line_skipped_with_warning(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        good = json.dumps(
            {"key": "abc", "status": "ok", "metrics": {"ipc": 1.0}}
        )
        path.write_text(good + "\n" + '{"key": "def", "sta')  # killed mid-write
        journal = CheckpointJournal(path)
        with pytest.warns(UserWarning, match="corrupt"):
            records = journal.load()
        assert set(records) == {"abc"}

    def test_missing_journal_loads_empty(self, tmp_path):
        assert CheckpointJournal(tmp_path / "nope.jsonl").load() == {}

    def test_for_sweep_sanitizes_name(self, tmp_path):
        journal = CheckpointJournal.for_sweep("fig 7 / headline", tmp_path)
        assert journal.path.parent == tmp_path
        assert journal.path.name == "fig_7_headline.jsonl"


class TestJobIdentity:
    def test_key_is_deterministic(self):
        assert Job("mst", "cdp").key() == Job("mst", "cdp").key()

    def test_key_depends_on_config(self):
        from repro.core.config import SystemConfig

        scaled = Job("mst", "cdp", SystemConfig.scaled())
        paper = Job("mst", "cdp", SystemConfig.paper())
        assert scaled.key() != paper.key()

    def test_key_depends_on_input_set(self):
        assert (
            Job("mst", "cdp", input_set="ref").key()
            != Job("mst", "cdp", input_set="test").key()
        )


class TestErrorTaxonomy:
    def test_hierarchy(self):
        for error_type in (
            ConfigError,
            JobTimeoutError,
            TransientError,
            UnknownNameError,
            WorkerCrashError,
        ):
            assert issubclass(error_type, ReproError)
        assert issubclass(UnknownNameError, KeyError)

    def test_exit_codes(self):
        assert ConfigError("x").exit_code == 2
        assert UnknownNameError("x").exit_code == 2
        assert JobTimeoutError("x").exit_code == 1

    def test_transient_classification(self):
        assert is_transient(JobTimeoutError("t"))
        assert is_transient(WorkerCrashError("c"))
        assert is_transient(OSError("disk glitch"))
        assert is_transient(TransientError("flaky"))
        assert not is_transient(ConfigError("bad"))
        assert not is_transient(ValueError("logic bug"))

    def test_unknown_name_str_is_plain(self):
        assert str(UnknownNameError("unknown workload 'x'")).startswith(
            "unknown"
        )


class TestFailedResult:
    def test_renders_as_failed_cell(self):
        failed = FailedResult(JobFailure("JobTimeoutError", "timed out", True))
        assert str(failed) == "FAILED(JobTimeoutError)"
        assert is_failed(failed)
        assert is_failed(None)
        assert not is_failed(object())

    def test_snapshot_metrics_filters_json_safe(self):
        metrics = snapshot_metrics({"ipc": 1.0, "junk": object()})
        assert metrics == {"ipc": 1.0}
