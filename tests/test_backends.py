"""Executor-backend tests: transport plurality, one shared journal.

The acceptance property of the backend subsystem: the *same* matrix run
through the local fork pool, through isolated subprocess workers, or
through any interrupted mix of the two, converges to per-job journal
records with identical content hashes.  Everything here drives real
child processes (for the subprocess backend, real ``python -m repro
worker --serve-stdio`` children), so the workers are module-level
functions a fresh interpreter can re-import.
"""

import io
import json
import sys
import threading

import pytest

from repro.errors import (
    BackendConnectError,
    BackendError,
    ServiceBusyError,
    SweepInterrupted,
    UsageError,
)
from repro.experiments.engine import (
    BACKEND_FAULTS,
    BACKEND_NAMES,
    CheckpointJournal,
    ExecutionEngine,
    FaultPlan,
    FaultSpec,
    Job,
    RetryPolicy,
    create_backend,
    default_worker,
    journal_record,
)
from repro.experiments.engine.backends import (
    LocalBackend,
    StdioTransport,
    SubprocessBackend,
    resolve_worker,
    stdio,
    worker_reference,
)
from repro.experiments.engine.worker import serve_stdio
from repro.experiments.export import export_row
from repro.service.client import ServiceClient
from repro.telemetry import EventTracer

FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.05)


def deterministic_worker(job):
    """Same job -> same metrics, wherever and whenever it runs."""
    return {
        "ipc": round(1.0 + len(job.benchmark) / 10, 3),
        "bpki": float(len(job.mechanism)),
        "cycles": 1000 + len(job.label),
    }


def make_engine(tmp_path, backend, journal_name="sweep.jsonl", **overrides):
    settings = dict(
        jobs=2,
        timeout=30.0,
        retry=FAST_RETRY,
        checkpoint=CheckpointJournal(tmp_path / journal_name),
        worker=deterministic_worker,
        backend=backend,
    )
    settings.update(overrides)
    return ExecutionEngine(**settings)


def matrix():
    return [
        Job(benchmark, mechanism, input_set="test")
        for benchmark in ("alpha", "beta", "gamma")
        for mechanism in ("m1", "m2")
    ]


def content_hashes(journal: CheckpointJournal):
    """key -> content hash over the journal's non-volatile fields."""
    return journal.content_hashes()


class TestBackendFactory:
    def test_catalog(self):
        assert BACKEND_NAMES == ("local", "subprocess")

    def test_names_construct(self):
        assert isinstance(create_backend("local"), LocalBackend)
        subprocess_backend = create_backend("subprocess")
        assert isinstance(subprocess_backend, SubprocessBackend)
        assert subprocess_backend.name == "subprocess"

    def test_subprocess_is_one_loopback_host_sized_by_jobs(self):
        backend = create_backend("subprocess")
        backend.bind(default_worker, lambda kind, name, **args: None, 3)
        try:
            assert backend.name == "subprocess"
            assert backend.host == "localhost"
            assert backend.worker_argv[0] == sys.executable
            assert backend.slots == 3
        finally:
            backend.close()

    def test_unknown_backend_is_a_usage_error(self):
        with pytest.raises(UsageError, match="unknown backend"):
            create_backend("carrier-pigeon")


class TestWorkerReference:
    def test_module_level_worker_round_trips(self):
        reference, _root = worker_reference(deterministic_worker)
        assert resolve_worker(reference) is deterministic_worker

    def test_default_worker_resolves_from_none(self):
        assert resolve_worker(None) is default_worker

    def test_lambda_fails_fast(self):
        # a fresh interpreter could never re-import it; binding must
        # reject it before any job is dispatched
        with pytest.raises(BackendError):
            worker_reference(lambda job: None)


class TestSubprocessPool:
    """The stdio pool's session lifecycle, with real worker processes."""

    def test_free_slots_start_before_the_first_ping(
        self, tmp_path, monkeypatch
    ):
        order = []

        class RecordingTransport(StdioTransport):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                order.append("spawn")

            def ping(self, *args, **kwargs):
                order.append("ping")
                return super().ping(*args, **kwargs)

        monkeypatch.setattr(stdio, "StdioTransport", RecordingTransport)
        jobs = [Job(f"b{i}", "m", input_set="test") for i in range(2)]
        engine = make_engine(tmp_path, create_backend("subprocess"))
        try:
            report = engine.run(jobs)
        finally:
            engine.close()
        assert report.exit_code == 0
        # both workers import in parallel, and each still answers a
        # ping before its first job
        assert order == ["spawn", "spawn", "ping", "ping"]

    def test_failed_health_check_reaps_the_worker(self, monkeypatch):
        spawned = []
        events = []

        class RecordingTransport(StdioTransport):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                spawned.append(self)

        monkeypatch.setattr(stdio, "StdioTransport", RecordingTransport)
        # `false` exits before it can answer the health-check ping
        monkeypatch.setattr(SubprocessBackend, "worker_argv", ("false",))
        backend = create_backend("subprocess")
        backend.bind(
            default_worker,
            lambda kind, name, **args: events.append(kind),
            1,
        )
        try:
            with pytest.raises(BackendConnectError):
                backend.submit(Job("b0", "m", input_set="test"), 1)
        finally:
            backend.close()
        assert events == ["host-down"]
        (transport,) = spawned
        assert transport.process.returncode is not None
        assert transport.process.stdin.closed
        assert transport.process.stdout.closed

    def test_all_hosts_dead_burns_retry_budget_and_fails(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(SubprocessBackend, "worker_argv", ("false",))
        engine = make_engine(tmp_path, create_backend("subprocess"), jobs=1)
        try:
            report = engine.run([Job("b0", "m", input_set="test")])
        finally:
            engine.close()
        assert report.exit_code == 1
        failure = report.failures[0]
        assert failure.failure.error_type == "BackendConnectError"
        # the bounded retry budget is what guarantees termination
        assert failure.attempts == FAST_RETRY.max_attempts


class TestCrossBackendDifferential:
    """The subsystem's acceptance criterion, as an automated test."""

    def test_local_and_subprocess_journals_content_hash_equal(
        self, tmp_path
    ):
        jobs = matrix()
        local = make_engine(tmp_path, "local", "local.jsonl")
        try:
            report = local.run(jobs)
        finally:
            local.close()
        assert report.exit_code == 0
        assert all(r.executor == "local" for r in report.ok)

        spawned = make_engine(tmp_path, "subprocess", "sub.jsonl")
        try:
            report = spawned.run(jobs)
        finally:
            spawned.close()
        assert report.exit_code == 0
        assert all(r.executor == "subprocess" for r in report.ok)
        assert all(r.queue_seconds is not None for r in report.ok)

        local_hashes = content_hashes(
            CheckpointJournal(tmp_path / "local.jsonl")
        )
        sub_hashes = content_hashes(
            CheckpointJournal(tmp_path / "sub.jsonl")
        )
        assert len(local_hashes) == len(jobs)
        assert local_hashes == sub_hashes

    def test_killed_fanout_resumes_across_backend_mix(self, tmp_path):
        """Start on subprocess, die mid-sweep, finish on local."""
        jobs = matrix()
        # an uninterrupted local run is the reference result set
        reference = make_engine(tmp_path, "local", "ref.jsonl")
        try:
            assert reference.run(jobs).exit_code == 0
        finally:
            reference.close()

        # phase 1: subprocess backend, killed right after beta/m1 lands
        shared = tmp_path / "shared.jsonl"
        first = make_engine(
            tmp_path, "subprocess", "shared.jsonl",
            fault_plan=FaultPlan([FaultSpec("abort", job="beta/m1")]),
        )
        try:
            with pytest.raises(SweepInterrupted):
                first.run(jobs)
        finally:
            first.close()
        done_before = set(CheckpointJournal(shared).load())
        assert 0 < len(done_before) < len(jobs)

        # phase 2: a *local* engine resumes the same journal
        second = make_engine(tmp_path, "local", "shared.jsonl")
        try:
            finished = second.run(jobs, resume=True)
        finally:
            second.close()
        assert finished.exit_code == 0
        assert {r.job.key() for r in finished.resumed} == done_before
        # provenance survives the resume round-trip
        by_key = {r.job.key(): r for r in finished.ok}
        for key in done_before:
            assert by_key[key].executor == "subprocess"

        assert content_hashes(CheckpointJournal(shared)) == content_hashes(
            CheckpointJournal(tmp_path / "ref.jsonl")
        )


class TestBackendFaultsOnSubprocess:
    """The transport fault catalog, delivered to a real stdio backend."""

    @pytest.mark.parametrize("kind", sorted(BACKEND_FAULTS))
    def test_fault_converges_in_run(self, tmp_path, kind):
        tracer = EventTracer()
        engine = make_engine(
            tmp_path, "subprocess",
            fault_plan=FaultPlan([FaultSpec(kind, job="beta/m1")]),
            tracer=tracer,
        )
        try:
            report = engine.run(matrix())
        finally:
            engine.close()
        # the fault burned one attempt; the retry budget absorbed it
        assert report.exit_code == 0
        hit = {r.job.label: r for r in report.ok}["beta/m1"]
        assert hit.attempts == 2
        kinds = {event[1] for event in tracer.snapshot()}
        assert "fault" in kinds
        assert "dispatch" in kinds
        if kind == "host-loss":
            assert "host-lost" in kinds
        if kind == "partitioned-ack":
            assert "partitioned-ack" in kinds


class TestConcurrentJournalWriters:
    @pytest.mark.parametrize("backend", ["local", "subprocess"])
    def test_two_engines_one_journal_no_torn_records(
        self, tmp_path, backend
    ):
        """Two engines appending to one journal file must not tear it.

        This is the distributed topology in miniature: several dispatch
        processes, one shared content-addressed journal.  The flock
        around each append serializes whole records, so a concurrent
        run leaves every line CRC-clean.
        """
        path = tmp_path / "shared.jsonl"
        half_a = [Job(b, m, input_set="test")
                  for b in ("a1", "a2", "a3", "a4") for m in ("x", "y")]
        half_b = [Job(b, m, input_set="test")
                  for b in ("b1", "b2", "b3", "b4") for m in ("x", "y")]
        errors = []

        def run(jobs):
            engine = ExecutionEngine(
                jobs=2, timeout=30.0, retry=FAST_RETRY,
                checkpoint=CheckpointJournal(path),
                worker=deterministic_worker, backend=backend,
            )
            try:
                report = engine.run(jobs)
                if report.exit_code != 0:
                    errors.append(report.failures)
            except Exception as error:  # noqa: BLE001 — assert below
                errors.append(error)
            finally:
                engine.close()

        threads = [
            threading.Thread(target=run, args=(half,))
            for half in (half_a, half_b)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        journal = CheckpointJournal(path)
        salvage = journal.verify()
        assert salvage.clean, f"journal damaged: {salvage.summary()}"
        assert len(journal.load()) == len(half_a) + len(half_b)


class TestProvenanceExport:
    def test_ok_rows_carry_provenance_columns(self, tmp_path):
        engine = make_engine(tmp_path, "subprocess")
        job = Job("alpha", "m1", input_set="test")
        try:
            report = engine.run([job])
        finally:
            engine.close()
        outcome = report.ok[0]
        record = journal_record(outcome)
        row = export_row(record)
        assert row["executor"] == "subprocess"
        assert row["queue_seconds"] is not None
        # journal records round-trip the same columns
        assert record["executor"] == "subprocess"
        assert "queue_seconds" in record

    def test_failed_rows_keep_provenance_null(self):
        from repro.experiments.engine import JobFailure, JobResult

        row = export_row(journal_record(JobResult(
            Job("alpha", "m1"), "failed",
            failure=JobFailure("JobError", "boom"),
            executor="subprocess", host="somewhere", queue_seconds=1.0,
        )))
        assert row["status"].startswith("FAILED")
        assert row["executor"] is None
        assert row["host"] is None
        assert row["queue_seconds"] is None

    def test_pre_backend_journals_export_null_provenance(self, tmp_path):
        # a journal written before the backend era has no provenance
        # fields; replay must surface None, not invent values
        engine = make_engine(tmp_path, "local")
        job = Job("alpha", "m1", input_set="test")
        try:
            report = engine.run([job])
        finally:
            engine.close()
        from repro.experiments.engine.checkpoint import frame_record

        journal = CheckpointJournal(tmp_path / "sweep.jsonl")
        stripped = [
            {k: v for k, v in record.items()
             if k not in ("executor", "host", "queue_seconds")}
            for record in journal.load().values()
        ]
        journal.path.write_text(
            "".join(frame_record(record) for record in stripped)
        )

        resumed_engine = make_engine(tmp_path, "local")
        try:
            resumed = resumed_engine.run([job], resume=True)
        finally:
            resumed_engine.close()
        replayed = resumed.ok[0]
        assert replayed.resumed
        assert replayed.executor is None
        assert replayed.host is None
        assert replayed.queue_seconds is None


class TestStdioProtocol:
    def test_ping_run_shutdown_round_trip(self):
        job = Job("alpha", "m1", input_set="test")
        from repro.service.protocol import submission_from_job

        reference, _ = worker_reference(deterministic_worker)
        requests = "\n".join(json.dumps(r) for r in (
            {"op": "ping", "id": 1},
            {"op": "run", "id": 2, "job": submission_from_job(job),
             "worker": reference, "fault": None, "heartbeat": None,
             "telemetry_dir": None},
            {"op": "nonsense", "id": 3},
            {"op": "shutdown", "id": 4},
        )) + "\n"
        out = io.StringIO()
        code = serve_stdio(stdin=io.StringIO(requests), stdout=out)
        assert code == 0
        events = [json.loads(line) for line in out.getvalue().splitlines()]
        by_event = {e["event"]: e for e in events}
        assert by_event["pong"]["id"] == 1
        outcome = by_event["outcome"]
        assert outcome["status"] == "ok"
        # the executing side recomputed the content-hashed identity
        assert outcome["key"] == job.key()
        assert outcome["metrics"]["ipc"] == deterministic_worker(job)["ipc"]
        assert "unknown op" in by_event["error"]["error"]
        assert by_event["bye"]["id"] == 4

    def test_eof_ends_the_loop(self):
        out = io.StringIO()
        assert serve_stdio(stdin=io.StringIO(""), stdout=out) == 0
        assert out.getvalue() == ""


class TestClientBusyRetry:
    """Satellite: bounded 429 retry with backoff, jitter, Retry-After."""

    def make_client(self, **kwargs):
        client = ServiceClient("http://127.0.0.1:1", **kwargs)
        client.sleeps = []
        client._sleep = client.sleeps.append
        client._random = lambda: 0.5  # deterministic mid-range jitter
        return client

    def test_retries_then_succeeds(self):
        client = self.make_client(busy_retries=4, busy_backoff=0.1)
        calls = []

        def flaky(method, path, payload=None):
            calls.append(path)
            if len(calls) < 3:
                raise ServiceBusyError("full", status=429, retry_after=0.2)
            return {"ok": True}

        client._request_once = flaky
        assert client._request("POST", "/jobs", {}) == {"ok": True}
        assert len(calls) == 3
        # every sleep honored the server's Retry-After floor
        assert len(client.sleeps) == 2
        assert all(s >= 0.2 for s in client.sleeps)

    def test_backoff_grows_exponentially_with_jitter(self):
        client = self.make_client(busy_retries=3, busy_backoff=0.1)

        def always_busy(method, path, payload=None):
            raise ServiceBusyError("full", status=429)

        client._request_once = always_busy
        with pytest.raises(ServiceBusyError):
            client._request("GET", "/stats")
        # base 0.1 doubling, jitter = +25% at _random()=0.5
        assert client.sleeps == pytest.approx([0.125, 0.25, 0.5])

    def test_bounded_attempts(self):
        client = self.make_client(busy_retries=2)
        attempts = []

        def always_busy(method, path, payload=None):
            attempts.append(1)
            raise ServiceBusyError("full", status=429, retry_after=0.01)

        client._request_once = always_busy
        with pytest.raises(ServiceBusyError):
            client._request("GET", "/stats")
        assert len(attempts) == 3  # initial + 2 retries

    def test_long_retry_after_propagates_immediately(self):
        # a server asking for more than the backoff cap is saying
        # "busy for a while" — that decision belongs to the caller
        client = self.make_client(busy_backoff_cap=2.0)

        def very_busy(method, path, payload=None):
            raise ServiceBusyError("drain", status=503, retry_after=120.0)

        client._request_once = very_busy
        with pytest.raises(ServiceBusyError) as err:
            client._request("GET", "/stats")
        assert client.sleeps == []
        assert err.value.retry_after == 120.0

    def test_busy_retry_false_is_raw(self):
        client = self.make_client()

        def busy(method, path, payload=None):
            raise ServiceBusyError("full", status=429, retry_after=0.01)

        client._request_once = busy
        with pytest.raises(ServiceBusyError):
            client._request("POST", "/jobs", {}, busy_retry=False)
        assert client.sleeps == []
