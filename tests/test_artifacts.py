"""Artifact store robustness: bad files miss, failed writes stay live.

The replay differential (tests/differential/test_replay.py) proves a
good artifact reproduces the live run.  These tests attack the store:
damaged, truncated and foreign files, a store that cannot be written, a
write that fails halfway, a changed source fingerprint, two processes
recording one key at once, pruning — and the engine wiring that puts
the store beside a sweep's journal.
"""

import io
import multiprocessing
import os
import tempfile

import pytest

from repro.core.config import SystemConfig
from repro.experiments.engine import (
    NON_IDENTITY_FIELDS,
    CheckpointJournal,
    ExecutionEngine,
    Job,
    snapshot_metrics,
)
from repro.experiments.engine.worker import default_worker, serve_stdio
from repro.experiments.runner import clear_caches, run_benchmark
from repro.service import (
    ServiceClient,
    start_server_thread,
    submission_from_job,
)
from repro.workloads import artifacts
from repro.workloads.artifacts import ArtifactStore
from repro.workloads.base import Workload

CONFIG = SystemConfig.scaled()


@pytest.fixture
def builds(monkeypatch):
    """Names of the workloads built live since the fixture started."""
    built = []
    real = Workload.build

    def counting(self, input_set="ref"):
        built.append(self.name)
        return real(self, input_set)

    monkeypatch.setattr(Workload, "build", counting)
    return built


@pytest.fixture
def recordings(monkeypatch, tmp_path):
    """Benchmarks whose trace recording started since the fixture did.

    Counted in marker files, so recordings in forked workers count too.
    """
    marks = tmp_path / "recordings"
    marks.mkdir()
    real = ArtifactStore._record

    def counting(self, live, path, header):
        fd, _ = tempfile.mkstemp(dir=marks, prefix=header["benchmark"] + ".")
        os.close(fd)
        return real(self, live, path, header)

    monkeypatch.setattr(ArtifactStore, "_record", counting)
    return lambda: sorted(name.split(".")[0] for name in os.listdir(marks))


def counting_worker(builds):
    """default_worker, plus the number of live builds its process made."""

    def worker(job):
        metrics = snapshot_metrics(default_worker(job))
        return dict(metrics, builds=len(builds))

    return worker


def run(store=None, mechanism="cdp", benchmark="omnetpp"):
    return run_benchmark(
        benchmark, mechanism, CONFIG, input_set="test", use_cache=False,
        store=store,
    )


def trace_files(directory):
    return sorted(directory.glob("*.trace"))


def leftovers(directory):
    return sorted(directory.glob(".*.tmp"))


class TestRecordReplay:
    def test_second_run_replays_without_building(self, tmp_path, builds):
        store = ArtifactStore(tmp_path)
        live = run()
        builds.clear()
        assert run(store) == live
        assert builds == ["omnetpp"] and len(trace_files(tmp_path)) == 1
        assert run(store) == live
        assert builds == ["omnetpp"]  # replayed
        assert leftovers(tmp_path) == []

    def test_abandoned_trace_stores_nothing(self, tmp_path):
        store = ArtifactStore(tmp_path)
        trace = store.instance("omnetpp", "test").trace()
        for _, __ in zip(trace, range(100)):
            pass
        trace.close()
        assert trace_files(tmp_path) == [] and leftovers(tmp_path) == []

    def test_record_false_builds_live_and_stores_nothing(self, tmp_path):
        store = ArtifactStore(tmp_path)
        instance = store.instance("omnetpp", "test", record=False)
        list(instance.trace())
        assert trace_files(tmp_path) == []


@pytest.mark.parametrize(
    "damage",
    [
        "flip-header", "flip-image", "flip-body", "truncate", "empty",
        "drop-trailer", "foreign",
    ],
)
def test_bad_artifact_is_a_miss_and_is_recorded_again(tmp_path, builds, damage):
    store = ArtifactStore(tmp_path)
    live = run(store)
    (path,) = trace_files(tmp_path)
    data = bytearray(path.read_bytes())
    header_end = 12 + int.from_bytes(data[8:12], "little")
    if damage == "flip-header":
        data[header_end - 2] ^= 0x01
    elif damage == "flip-image":
        data[header_end + 5] ^= 0x80
    elif damage == "flip-body":
        data[-100] ^= 0x01
    elif damage == "truncate":
        del data[len(data) // 2:]
    elif damage == "empty":
        data = bytearray()
    elif damage == "drop-trailer":
        del data[-artifacts._CHECKSUM.size:]
    else:  # a valid artifact of another key under this name
        other = ArtifactStore(tmp_path / "other")
        run(other, benchmark="bisort")
        data = bytearray(trace_files(tmp_path / "other")[0].read_bytes())
    path.write_bytes(bytes(data))
    builds.clear()
    assert run(store) == live
    assert builds == ["omnetpp"]  # the bad file was a miss ...
    assert path.read_bytes() != bytes(data)  # ... and was recorded again
    builds.clear()
    assert run(store) == live
    assert builds == []


class TestFailedWrites:
    def test_unwritable_store_runs_live(self, tmp_path, builds):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        live = run()
        assert run(ArtifactStore(blocker / "store")) == live
        assert builds.count("omnetpp") == 2

    # the header, the memory image, then the encoded ops and writes
    @pytest.mark.parametrize("failing_write", [1, 2, 3])
    def test_write_failing_midway_leaves_no_file(
        self, tmp_path, monkeypatch, failing_write
    ):
        live = run()
        real = artifacts._Sink.write
        calls = []

        def failing(self, data):
            calls.append(len(data))
            if len(calls) == failing_write:
                raise OSError(28, "injected: no space left on device")
            real(self, data)

        monkeypatch.setattr(artifacts._Sink, "write", failing)
        assert run(ArtifactStore(tmp_path)) == live
        assert len(calls) == failing_write
        assert trace_files(tmp_path) == [] and leftovers(tmp_path) == []

    def test_failed_profile_write_keeps_the_profile(self, tmp_path):
        clear_caches()
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        live = run(mechanism="ecdp")
        clear_caches()
        assert run(ArtifactStore(blocker / "store"), mechanism="ecdp") == live
        clear_caches()


class TestKeys:
    def test_changed_fingerprint_misses(self, tmp_path, builds, monkeypatch):
        store = ArtifactStore(tmp_path)
        live = run(store)
        monkeypatch.setattr(
            artifacts, "source_fingerprint", lambda parts: "edited sources"
        )
        builds.clear()
        assert run(store) == live
        assert builds == ["omnetpp"]
        assert len(trace_files(tmp_path)) == 2  # old and new keys

    def test_fingerprint_follows_source_content(self, tmp_path, monkeypatch):
        package = tmp_path / "repro"
        (package / "workloads").mkdir(parents=True)
        source = package / "workloads" / "w.py"
        source.write_text("A = 1\n")
        monkeypatch.setattr(artifacts, "_PACKAGE", package)
        fingerprint = artifacts.source_fingerprint.__wrapped__
        first = fingerprint(("workloads",))
        assert fingerprint(("workloads",)) == first
        source.write_text("A = 2\n")
        assert fingerprint(("workloads",)) != first

    @pytest.mark.parametrize("starter", ["engine", "stdio worker"])
    def test_keys_follow_the_code_imported_at_startup(
        self, tmp_path, monkeypatch, starter
    ):
        package = tmp_path / "repro"
        for part in artifacts.PROFILE_SOURCES:
            if part.endswith(".py"):
                (package / part).parent.mkdir(parents=True, exist_ok=True)
                (package / part).write_text("")
            else:
                (package / part).mkdir(parents=True, exist_ok=True)
        source = package / "workloads" / "w.py"
        source.write_text("A = 1\n")
        monkeypatch.setattr(artifacts, "_PACKAGE", package)
        imported = artifacts.source_fingerprint.__wrapped__(artifacts.TRACE_SOURCES)
        artifacts.source_fingerprint.cache_clear()
        try:
            if starter == "engine":
                ExecutionEngine(
                    checkpoint=CheckpointJournal(tmp_path / "s.jsonl")
                ).close()
            else:
                serve_stdio(stdin=io.StringIO(""), stdout=io.StringIO())
            source.write_text("A = 2\n")  # edited before the first job
            assert artifacts.source_fingerprint(artifacts.TRACE_SOURCES) == (
                imported
            )
        finally:
            artifacts.source_fingerprint.cache_clear()

    def test_profile_key_covers_the_profiler_shape(self):
        from repro.experiments.runner import profiler_config

        small = profiler_config(CONFIG.with_overrides(l2_size=8192))
        assert artifacts.profile_key("mst", "train", small) != (
            artifacts.profile_key("mst", "train", profiler_config(CONFIG))
        )
        assert artifacts.profile_key("mst", "train", small) != (
            artifacts.profile_key("mst", "test", small)
        )


class TestPrune:
    def test_prune_removes_stale_traces_and_temp_files(self, tmp_path):
        store = ArtifactStore(tmp_path)
        run(store)
        (current,) = trace_files(tmp_path)
        stale = tmp_path / "omnetpp.test.0123456789abcdef.trace"
        leftover = tmp_path / f".{current.name}.4242.deadbeef.tmp"
        kept = [
            current,
            tmp_path / "mst.train.0123456789abcdef.profile",
            tmp_path / "notes.txt",
        ]
        for path in [stale, leftover] + kept[1:]:
            path.write_bytes(b"x")
        store.prune()
        assert sorted(tmp_path.iterdir()) == sorted(kept)
        ArtifactStore(tmp_path / "absent").prune()  # no store yet: no-op

    def test_engine_prunes_before_any_worker_runs(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "s.jsonl")
        journal.artifact_dir.mkdir()
        leftover = ".mst.test.0123456789abcdef.trace.1.ab.tmp"
        (journal.artifact_dir / leftover).write_bytes(b"x")
        engine = ExecutionEngine(
            checkpoint=journal,
            worker=lambda job: sorted(os.listdir(job.artifact_dir)),
        )
        try:
            (outcome,) = engine.run([Job("mst", "cdp", input_set="test")])
        finally:
            engine.close()
        assert outcome.result == []


def _record_in_child(directory, barrier):
    instance = ArtifactStore(directory).instance("bisort", "test")
    barrier.wait(30)  # both have missed before either stores
    for _ in instance.trace():
        pass


def test_two_processes_recording_one_key_leave_one_valid_artifact(
    tmp_path, builds
):
    context = multiprocessing.get_context("fork")
    barrier = context.Barrier(2)
    children = [
        context.Process(target=_record_in_child, args=(tmp_path, barrier))
        for _ in range(2)
    ]
    for child in children:
        child.start()
    for child in children:
        child.join(60)
    assert [child.exitcode for child in children] == [0, 0]
    for child in children:
        child.close()
    assert len(trace_files(tmp_path)) == 1 and leftovers(tmp_path) == []
    live = run(benchmark="bisort")
    builds.clear()
    assert run(ArtifactStore(tmp_path), benchmark="bisort") == live
    assert builds == []


class TestEngineWiring:
    def test_artifact_dir_is_not_identity(self):
        assert "artifact_dir" in NON_IDENTITY_FIELDS
        job = Job("mst", "cdp", input_set="test")
        assert Job("mst", "cdp", input_set="test", artifact_dir="/x").key() == (
            job.key()
        )

    def test_store_sits_beside_the_journal(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "fig7.jsonl")
        assert journal.artifact_dir == tmp_path / "fig7-artifacts"
        engine = ExecutionEngine(checkpoint=journal)
        try:
            assert engine.artifact_dir == str(tmp_path / "fig7-artifacts")
        finally:
            engine.close()

    @pytest.mark.parametrize("journaled", [True, False])
    def test_dispatched_jobs_carry_the_store(self, tmp_path, journaled):
        journal = CheckpointJournal(tmp_path / "s.jsonl") if journaled else None
        engine = ExecutionEngine(
            checkpoint=journal, worker=lambda job: {"dir": job.artifact_dir}
        )
        submitted = Job("mst", "cdp", input_set="test")
        try:
            report = engine.run([submitted])
        finally:
            engine.close()
        (outcome,) = report
        expected = str(tmp_path / "s-artifacts") if journaled else None
        assert outcome.result == {"dir": expected}
        assert outcome.job == submitted  # the report keeps the job as given

    @pytest.mark.parametrize("backend", ["local", "subprocess"])
    def test_sweep_records_each_trace_once(self, tmp_path, backend):
        clear_caches()
        jobs = [
            Job(benchmark, mechanism, CONFIG, input_set="test")
            for benchmark in ("mst", "bisort")
            for mechanism in ("baseline", "cdp", "dbp")
        ]
        engine = ExecutionEngine(
            jobs=1, checkpoint=CheckpointJournal(tmp_path / "s.jsonl"),
            backend=backend,
        )
        try:
            report = engine.run(jobs)
        finally:
            engine.close()
        assert all(outcome.ok for outcome in report)
        store = tmp_path / "s-artifacts"
        assert [path.name.split(".")[:2] for path in trace_files(store)] == [
            ["bisort", "test"], ["mst", "test"],
        ]
        for outcome in report:
            live = run_benchmark(
                outcome.job.benchmark, outcome.job.mechanism, CONFIG,
                input_set="test", use_cache=False,
            )
            assert snapshot_metrics(outcome.result) == snapshot_metrics(live)

    def sweep(self, tmp_path, jobs, builds, slots=1):
        """Run *jobs* journaled on *slots* forked workers."""
        clear_caches()  # forked workers must not inherit a memoized result
        engine = ExecutionEngine(
            jobs=slots, checkpoint=CheckpointJournal(tmp_path / "s.jsonl"),
            worker=counting_worker(builds),
        )
        try:
            report = engine.run(jobs)
        finally:
            engine.close()
        assert all(outcome.ok for outcome in report)
        return list(report)

    def test_one_job_sweep_records_no_trace(self, tmp_path, builds, recordings):
        (outcome,) = self.sweep(
            tmp_path, [Job("mst", "baseline", CONFIG, input_set="test")], builds
        )
        assert outcome.result["builds"] == 1
        assert recordings() == []
        assert trace_files(tmp_path / "s-artifacts") == []

    def test_same_trace_jobs_on_one_slot_record_once_and_replay_twice(
        self, tmp_path, builds, recordings
    ):
        jobs = [
            Job("mst", mechanism, CONFIG, input_set="test")
            for mechanism in ("baseline", "cdp", "dbp")
        ]
        report = self.sweep(tmp_path, jobs, builds)
        assert [outcome.result["builds"] for outcome in report] == [1, 0, 0]
        assert recordings() == ["mst"]
        assert len(trace_files(tmp_path / "s-artifacts")) == 1
        for outcome in report:
            live = run(mechanism=outcome.job.mechanism, benchmark="mst")
            assert outcome.result == dict(
                snapshot_metrics(live), builds=outcome.result["builds"]
            )

    def test_same_trace_jobs_started_together_record_once(
        self, tmp_path, builds, recordings
    ):
        jobs = [
            Job("mst", mechanism, CONFIG, input_set="test")
            for mechanism in ("baseline", "cdp")
        ]
        report = self.sweep(tmp_path, jobs, builds, slots=2)
        assert [outcome.result["builds"] for outcome in report] == [1, 1]
        assert recordings() == ["mst"]
        assert len(trace_files(tmp_path / "s-artifacts")) == 1

    def test_service_records_a_trace_once_it_is_shared(
        self, tmp_path, builds, recordings
    ):
        clear_caches()
        journal = CheckpointJournal(tmp_path / "svc.jsonl")
        handle = start_server_thread(
            ExecutionEngine(
                jobs=1, checkpoint=journal, worker=counting_worker(builds)
            )
        )
        client = ServiceClient(handle.url)
        store = journal.artifact_dir
        try:
            def request(mechanism):
                job = Job("mst", mechanism, CONFIG, input_set="test")
                record = client.run(submission_from_job(job), timeout=60.0)
                assert record["status"] == "ok"
                return record["metrics"]["builds"]

            assert request("baseline") == 1
            assert trace_files(store) == []  # met once: not recorded
            assert request("cdp") == 1
            assert len(trace_files(store)) == 1  # met twice: recorded
            assert request("dbp") == 0  # replayed
        finally:
            handle.stop()
        assert recordings() == ["mst"]

    def test_unwritable_store_leaves_the_job_ok(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        job = Job(
            "omnetpp", "cdp", CONFIG, input_set="test",
            artifact_dir=str(blocker / "store"),
        )
        engine = ExecutionEngine(checkpoint=CheckpointJournal(tmp_path / "s.jsonl"))
        try:
            (outcome,) = engine.run([job])
        finally:
            engine.close()
        assert outcome.ok
        assert snapshot_metrics(outcome.result) == snapshot_metrics(run())
