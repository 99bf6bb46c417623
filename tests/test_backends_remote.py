"""Remote-backend dispatch tests, over loopback "hosts".

A :class:`HostSpec` with an empty ``command`` runs its stdio worker
directly on this machine, so every distributed behavior — sticky
dispatch, work stealing, connection health-checks, host cooldown — is
exercised with real worker processes and zero ssh.
"""

import sys

import pytest

from repro.experiments.engine import (
    CheckpointJournal,
    ExecutionEngine,
    Job,
    RetryPolicy,
    default_worker,
)
from repro.errors import BackendConnectError
from repro.experiments.engine.backends import (
    HostSpec,
    RemoteBackend,
    StdioTransport,
    remote,
)
from repro.telemetry import EventTracer

FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.05)


def deterministic_worker(job):
    return {"ipc": 1.5, "bpki": float(len(job.benchmark))}


def loopback(name, capacity=1):
    return HostSpec(name, command=(), python=sys.executable,
                    capacity=capacity)


def make_engine(tmp_path, hosts, jobs=2, **overrides):
    settings = dict(
        jobs=jobs,
        timeout=30.0,
        retry=FAST_RETRY,
        checkpoint=CheckpointJournal(tmp_path / "sweep.jsonl"),
        worker=deterministic_worker,
        # sub-second cooldown: a test that loses every host must not
        # wait out the production recheck interval between retries
        backend=RemoteBackend(hosts, recheck_seconds=0.1),
    )
    settings.update(overrides)
    return ExecutionEngine(**settings)


def preferred_name(job, hosts):
    return hosts[int(job.key(), 16) % len(hosts)].name


def jobs_preferring(hosts, name, count):
    """*count* distinct jobs whose sticky dispatch picks host *name*."""
    picked = []
    index = 0
    while len(picked) < count:
        job = Job(f"bench{index}", "mech", input_set="test")
        if preferred_name(job, hosts) == name:
            picked.append(job)
        index += 1
    return picked


class TestStickyDispatch:
    def test_jobs_land_on_their_preferred_host(self, tmp_path):
        # remote concurrency comes from the inventory (sum of
        # capacities), so two jobs fly at once and a busy preferred host
        # legally steals — the invariant is: every placement is either
        # the sticky choice or an *announced* steal, never silent
        hosts = [loopback("alpha"), loopback("beta")]
        jobs = [Job(f"b{i}", "m", input_set="test") for i in range(4)]
        tracer = EventTracer()
        engine = make_engine(tmp_path, hosts, tracer=tracer)
        try:
            report = engine.run(jobs)
        finally:
            engine.close()
        assert report.exit_code == 0
        stolen_to = {
            event[2]: event[5]["to"]
            for event in tracer.snapshot()
            if event[1] == "steal"
        }
        for outcome in report.ok:
            assert outcome.executor == "remote"
            expected = stolen_to.get(
                outcome.job.label, preferred_name(outcome.job, hosts)
            )
            assert outcome.host == expected

    def test_rerun_is_host_stable(self, tmp_path):
        # same inventory, same jobs -> same placement (it is a pure
        # function of the content-hashed key and the sorted inventory)
        hosts = [loopback("alpha"), loopback("beta"), loopback("gamma")]
        jobs = [Job(f"b{i}", "m", input_set="test") for i in range(6)]
        first = {job.key(): preferred_name(job, hosts) for job in jobs}
        second = {job.key(): preferred_name(job, hosts) for job in jobs}
        assert first == second
        assert len(set(first.values())) > 1  # spread, not pile-up


class TestWorkStealing:
    def test_steal_when_preferred_host_is_full(self, tmp_path):
        hosts = [loopback("alpha"), loopback("beta")]
        # two concurrent jobs that both prefer alpha (capacity 1): the
        # second must steal onto beta instead of queueing
        jobs = jobs_preferring(hosts, "alpha", 2)
        tracer = EventTracer()
        engine = make_engine(tmp_path, hosts, jobs=2, tracer=tracer)
        try:
            report = engine.run(jobs)
        finally:
            engine.close()
        assert report.exit_code == 0
        placed = sorted(outcome.host for outcome in report.ok)
        assert placed == ["alpha", "beta"]
        steals = [
            event for event in tracer.snapshot() if event[1] == "steal"
        ]
        assert len(steals) == 1
        assert steals[0][5] == {"from": "alpha", "to": "beta"}


class TestHostHealth:
    def test_dead_host_is_marked_down_and_work_reroutes(self, tmp_path):
        # "bad" spawns `false ...`, which exits before answering the
        # health-check ping; every job must end up on "good"
        hosts = [
            HostSpec("bad", command=("false",)),
            loopback("good"),
        ]
        jobs = [Job(f"b{i}", "m", input_set="test") for i in range(4)]
        tracer = EventTracer()
        engine = make_engine(tmp_path, hosts, jobs=2, tracer=tracer)
        try:
            report = engine.run(jobs)
        finally:
            engine.close()
        assert report.exit_code == 0
        assert all(outcome.host == "good" for outcome in report.ok)
        kinds = [event[1] for event in tracer.snapshot()]
        assert "host-down" in kinds

    def test_all_hosts_dead_burns_retry_budget_and_fails(self, tmp_path):
        engine = make_engine(
            tmp_path, [HostSpec("bad", command=("false",))], jobs=1
        )
        try:
            report = engine.run([Job("b0", "m", input_set="test")])
        finally:
            engine.close()
        assert report.exit_code == 1
        failure = report.failures[0]
        assert failure.failure.error_type == "BackendConnectError"
        # the bounded retry budget is what guarantees termination
        assert failure.attempts == FAST_RETRY.max_attempts

    def test_failed_health_check_reaps_the_worker(self, monkeypatch):
        spawned = []

        class RecordingTransport(StdioTransport):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                spawned.append(self)

        monkeypatch.setattr(remote, "StdioTransport", RecordingTransport)
        backend = RemoteBackend([HostSpec("bad", command=("false",))])
        backend.bind(default_worker, lambda kind, name, **args: None, 1)
        try:
            assert backend._session_for(backend.hosts[0]) is None
        finally:
            backend.close()
        (transport,) = spawned
        assert transport.process.returncode is not None
        assert transport.process.stdin.closed
        assert transport.process.stdout.closed

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

        monkeypatch.setattr(remote, "StdioTransport", RecordingTransport)
        jobs = [Job(f"b{i}", "m", input_set="test") for i in range(2)]
        engine = make_engine(tmp_path, [loopback("alpha", capacity=2)])
        try:
            report = engine.run(jobs)
        finally:
            engine.close()
        assert report.exit_code == 0
        # both workers import in parallel, and each still answers a
        # ping before its first job
        assert order == ["spawn", "spawn", "ping", "ping"]

    def test_lost_host_cools_down_then_rejoins(self):
        backend = RemoteBackend(
            [loopback("alpha", capacity=2), loopback("beta", capacity=3)],
            recheck_seconds=30.0,
        )
        events = []
        backend.bind(
            default_worker,
            lambda kind, name, **args: events.append((kind, name, args)),
            slots=4,
        )
        try:
            assert backend.capacity() == 5
            backend._mark_lost(backend.hosts[0], "test takedown")
            assert backend.capacity() == 3
            assert [kind for kind, _, _ in events] == ["host-down"]
            described = {
                host["name"]: host for host in backend.describe()["hosts"]
            }
            assert described["alpha"]["healthy"] is False
            assert described["beta"]["healthy"] is True
            # cooldown expiry readmits the host without a restart
            backend._lost_until["alpha"] = 0.0
            assert backend.capacity() == 5
        finally:
            backend.close()

    def test_empty_inventory_rejected(self):
        with pytest.raises(BackendConnectError):
            RemoteBackend([])
