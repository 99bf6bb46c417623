"""Chaos differential suite: every fault in the catalog converges.

The headline guarantee of the fault-injection subsystem: for every
fault kind, a sweep interrupted or damaged by that fault and then
resumed with ``--resume`` converges to a result set *bit-identical*
(same journal content hashes) to an uninterrupted run.  Volatile fields
— wall-clock, attempt counts, backoff, crash counts — are excluded from
the hashes; everything the paper's tables are built from is not.

The fake workers run in real child processes (the crash barrier,
heartbeat thread, and watchdog kill paths are the things under test),
so they are module-level functions, as in test_engine.py.

Also here: the torn-write sweep (journal truncated at every byte offset
of its final record must still load the intact prefix) and a hypothesis
round-trip fuzz of the CRC journal framing.
"""

import json
import math
import os
import signal
import threading
import time
import warnings

import pytest

from repro.errors import SweepInterrupted
from repro.experiments.engine import (
    CheckpointJournal,
    ExecutionEngine,
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    GracefulDrain,
    Job,
    QuarantinePolicy,
    RetryPolicy,
    WatchdogPolicy,
    record_content_hash,
)
from repro.experiments.engine.checkpoint import frame_record

FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.05)
WATCHDOG = WatchdogPolicy(no_progress_timeout=1.0)

BENCHMARKS = ["alpha", "beta", "gamma"]


def chaos_worker(job):
    """Deterministic fake simulation: metrics derive only from the job."""
    return {
        "ipc": 1.0 + len(job.benchmark) / 10.0,
        "bpki": float(sum(job.benchmark.encode())),
    }


def jobs():
    return [Job(name, "mech") for name in BENCHMARKS]


def run_quiet(engine, *args, **kwargs):
    """engine.run with salvage warnings silenced (they are expected)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return engine.run(*args, **kwargs)


@pytest.fixture(scope="module")
def baseline_hashes(tmp_path_factory):
    """Content hashes of a clean, fault-free run of the fake sweep."""
    journal = CheckpointJournal(tmp_path_factory.mktemp("clean") / "c.jsonl")
    engine = ExecutionEngine(
        jobs=2, worker=chaos_worker, checkpoint=journal, retry=FAST_RETRY
    )
    report = engine.run(jobs())
    assert report.exit_code == 0
    return journal.content_hashes()


def make_engine(tmp_path, name, **overrides):
    settings = dict(
        jobs=2,
        worker=chaos_worker,
        checkpoint=CheckpointJournal(tmp_path / f"{name}.jsonl"),
        retry=FAST_RETRY,
        watchdog=WATCHDOG,
    )
    settings.update(overrides)
    return ExecutionEngine(**settings)


class TestEveryFaultConverges:
    """The headline property, one fault kind at a time."""

    @pytest.mark.parametrize("kind", sorted(FAULT_KINDS))
    def test_interrupted_plus_resume_is_bit_identical(
        self, tmp_path, baseline_hashes, kind
    ):
        spec = FaultSpec(kind, job="beta", arg=(
            0.1 if kind == "slow-start" else None
        ))
        engine = make_engine(tmp_path, kind, fault_plan=FaultPlan([spec]))
        try:
            run_quiet(engine, jobs())
        except SweepInterrupted:
            assert kind == "abort"
        journal = engine.checkpoint
        resumer = make_engine(tmp_path, kind, checkpoint=journal)
        report = run_quiet(resumer, jobs(), resume=True)
        assert report.exit_code == 0, kind
        assert journal.content_hashes() == baseline_hashes, kind

    def test_generated_plan_converges(self, tmp_path, baseline_hashes):
        """A seed-generated many-fault plan is survivable end to end."""
        plan = FaultPlan.generate(jobs(), seed=7, rate=1.0)
        assert len(plan) == len(BENCHMARKS)
        engine = make_engine(tmp_path, "gen", fault_plan=plan)
        try:
            run_quiet(engine, jobs())
        except SweepInterrupted:
            pass
        journal = engine.checkpoint
        resumer = make_engine(tmp_path, "gen", checkpoint=journal)
        # a generated plan may include repeat-crash faults that poison a
        # job on the first pass; re-admission is part of convergence
        report = run_quiet(
            resumer, jobs(), resume=True, retry_poisoned=True
        )
        assert report.exit_code == 0
        assert journal.content_hashes() == baseline_hashes

    def test_plan_round_trips_through_json(self, tmp_path):
        plan = FaultPlan.generate(jobs(), seed=3, rate=1.0)
        path = tmp_path / "plan.json"
        plan.save(path)
        loaded = FaultPlan.load(path)
        assert [f.to_dict() for f in loaded.faults] == [
            f.to_dict() for f in plan.faults
        ]


class TestWatchdog:
    def test_hung_worker_killed_slow_worker_spared(self, tmp_path):
        plan = FaultPlan([
            FaultSpec("hang", job="alpha"),
            # slow-start sleeps past the no-progress deadline but keeps
            # heartbeating, which is exactly what must spare it
            FaultSpec("slow-start", job="beta", arg=1.5),
        ])
        engine = make_engine(
            tmp_path, "wd", fault_plan=plan,
            watchdog=WatchdogPolicy(no_progress_timeout=0.4),
        )
        report = engine.run(jobs())
        assert report.exit_code == 0
        by_bench = {r.job.benchmark: r for r in report}
        assert by_bench["alpha"].attempts == 2  # killed once, retried
        assert by_bench["alpha"].crashes == 1
        assert by_bench["beta"].attempts == 1  # slow, not stalled
        assert by_bench["gamma"].attempts == 1

    def test_stall_is_transient_and_traced(self, tmp_path):
        events = []

        class Tracer:
            def emit(self, ts, kind, name, addr, dur, args):
                events.append((kind, name, args))

        plan = FaultPlan([FaultSpec("hang", job="alpha")])
        engine = make_engine(
            tmp_path, "wdtrace", fault_plan=plan, tracer=Tracer(),
            watchdog=WatchdogPolicy(no_progress_timeout=0.4),
        )
        assert engine.run(jobs()).exit_code == 0
        kinds = [kind for kind, _, _ in events]
        assert "watchdog" in kinds
        assert "retry" in kinds
        retried = next(a for k, _, a in events if k == "retry")
        assert retried["error"] == "WorkerStalledError"

    @pytest.mark.parametrize("deadline", [0.0, -1.0, float("nan"), math.inf])
    def test_policy_needs_a_finite_positive_deadline(self, deadline):
        with pytest.raises(ValueError):
            WatchdogPolicy(no_progress_timeout=deadline)


class TestQuarantine:
    def repeat_crash_plan(self):
        # attempt=0 matches every attempt: a deterministic worker-killer
        return FaultPlan([FaultSpec("crash", job="beta", attempt=0)])

    def test_poisoned_after_crash_budget(self, tmp_path):
        engine = make_engine(
            tmp_path, "poison", fault_plan=self.repeat_crash_plan(),
            quarantine=QuarantinePolicy(max_crashes=2),
        )
        report = engine.run(jobs())
        assert report.exit_code == 1
        (poisoned,) = report.quarantined
        assert poisoned.job.benchmark == "beta"
        assert poisoned.failure.error_type == "PoisonJobError"
        assert poisoned.failure.poison
        assert poisoned.crashes == 2

    def test_resume_skips_poisoned_job(self, tmp_path):
        engine = make_engine(
            tmp_path, "skip", fault_plan=self.repeat_crash_plan(),
            quarantine=QuarantinePolicy(max_crashes=2),
        )
        engine.run(jobs())
        # resume under the same fault: the poisoned record is replayed,
        # not retried — no fresh crashes happen
        resumer = make_engine(
            tmp_path, "skip", checkpoint=engine.checkpoint,
            fault_plan=self.repeat_crash_plan(),
            quarantine=QuarantinePolicy(max_crashes=2),
        )
        report = resumer.run(jobs(), resume=True)
        assert len(report.resumed) == len(BENCHMARKS)
        (still_poisoned,) = report.quarantined
        assert still_poisoned.resumed

    def test_retry_poisoned_readmits_with_fresh_budget(
        self, tmp_path, baseline_hashes
    ):
        engine = make_engine(
            tmp_path, "readmit", fault_plan=self.repeat_crash_plan(),
            quarantine=QuarantinePolicy(max_crashes=2),
        )
        engine.run(jobs())
        resumer = make_engine(
            tmp_path, "readmit", checkpoint=engine.checkpoint,
            quarantine=QuarantinePolicy(max_crashes=2),
        )
        report = resumer.run(jobs(), resume=True, retry_poisoned=True)
        assert report.exit_code == 0
        assert engine.checkpoint.content_hashes() == baseline_hashes

    def test_crash_count_accumulates_across_resumes(self, tmp_path):
        # budget 3, one crash per pass: pass 1 and 2 fail transiently,
        # pass 3's crash spends the budget and poisons
        one_crash = lambda: FaultPlan(
            [FaultSpec("crash", job="beta", attempt=0)]
        )
        no_retry = RetryPolicy(max_attempts=1)
        quarantine = QuarantinePolicy(max_crashes=3)
        journal = CheckpointJournal(tmp_path / "acc.jsonl")
        for expected_crashes in (1, 2, 3):
            engine = make_engine(
                tmp_path, "acc", checkpoint=journal, retry=no_retry,
                fault_plan=one_crash(), quarantine=quarantine,
            )
            report = engine.run(jobs(), resume=True)
            (failed,) = report.failures
            assert failed.crashes == expected_crashes
        assert report.quarantined


class TestGracefulDrain:
    def test_drain_settles_in_flight_and_resume_converges(
        self, tmp_path, baseline_hashes
    ):
        class ImmediateDrain:
            polls = 0

            @property
            def requested(self):
                ImmediateDrain.polls += 1
                return ImmediateDrain.polls > 1

        engine = make_engine(tmp_path, "drain", jobs=1)
        report = engine.run(jobs(), drain=ImmediateDrain())
        assert report.interrupted
        assert report.exit_code == 130
        assert report.unfinished  # something was left for the resume
        resumer = make_engine(
            tmp_path, "drain", checkpoint=engine.checkpoint
        )
        resumed = resumer.run(jobs(), resume=True)
        assert resumed.exit_code == 0
        assert engine.checkpoint.content_hashes() == baseline_hashes

    def test_sigterm_sets_requested_second_raises(self):
        if threading.current_thread() is not threading.main_thread():
            pytest.skip("signal handlers need the main thread")
        with GracefulDrain() as drain:
            assert not drain.requested
            os.kill(os.getpid(), signal.SIGTERM)
            deadline = time.monotonic() + 2.0
            while not drain.requested and time.monotonic() < deadline:
                time.sleep(0.01)
            assert drain.requested
            with pytest.raises(KeyboardInterrupt):
                os.kill(os.getpid(), signal.SIGTERM)
                time.sleep(2.0)
        # handlers restored: constructing again must work
        with GracefulDrain() as drain2:
            assert not drain2.requested


@pytest.fixture(scope="module")
def intact_journal(tmp_path_factory):
    """One clean run's journal bytes: (lines, key -> record).

    Each record is re-framed with its float volatile fields pinned to
    six-decimal values, the width a real run usually writes, so the
    final record's length — and with it which cut offsets the sweep runs
    rather than skips — is the same on every run.
    """
    path = tmp_path_factory.mktemp("torn") / "intact.jsonl"
    journal = CheckpointJournal(path)
    engine = ExecutionEngine(
        jobs=1, worker=chaos_worker, checkpoint=journal, retry=FAST_RETRY
    )
    assert engine.run(jobs()).exit_code == 0
    lines = []
    for line in path.read_bytes().splitlines(keepends=True):
        record = json.loads(line)["data"]
        record.update(duration=0.012345, queue_seconds=0.006789)
        lines.append(frame_record(record).encode())
    path.write_bytes(b"".join(lines))
    assert len(lines) == len(BENCHMARKS)
    assert _MAX_CUT > len(lines[-1])
    return lines, journal.load()


#: upper bound on framed-record line length for the parametrized sweep;
#: offsets past the real length are skipped at run time
_MAX_CUT = 360


class TestTornWriteSweep:
    """Journal truncated at every byte offset of its final record."""

    @pytest.mark.parametrize("cut", range(_MAX_CUT))
    def test_truncation_keeps_the_prefix(
        self, tmp_path, intact_journal, cut
    ):
        lines, intact = intact_journal
        if cut >= len(lines[-1]):
            pytest.skip("offset past the final record")
        prefix = b"".join(lines[:-1])
        prefix_keys = {
            json.loads(line)["data"]["key"] for line in lines[:-1]
        }
        journal = CheckpointJournal(tmp_path / "cut.jsonl")
        journal.path.write_bytes(prefix + lines[-1][:cut])
        records, salvage = run_quiet_load(journal)
        assert set(records) >= prefix_keys
        # whatever loaded is verbatim from the intact run — a torn
        # frame must never be accepted as different data
        for key, record in records.items():
            assert record == intact[key]
        assert salvage.records >= len(prefix_keys)
        if cut == 0:
            assert salvage.clean

    def test_resume_after_tail_truncation_converges(
        self, tmp_path, intact_journal, baseline_hashes
    ):
        lines, _ = intact_journal
        journal = CheckpointJournal(tmp_path / "torn.jsonl")
        # cutting only the newline leaves a complete frame: all resume
        last = len(lines[-1])
        for cut, expect_resumed in ((1, 2), (last // 2, 2), (last - 1, 3)):
            journal.path.write_bytes(b"".join(lines[:-1]) + lines[-1][:cut])
            engine = make_engine(tmp_path, "torn", checkpoint=journal)
            report = run_quiet(engine, jobs(), resume=True)
            assert report.exit_code == 0, cut
            assert len(report.resumed) == expect_resumed, cut
            assert journal.content_hashes() == baseline_hashes, cut

    def test_midfile_torn_write_salvages_merged_record(
        self, tmp_path, intact_journal
    ):
        """A torn write eats its newline; the next record must survive."""
        lines, _ = intact_journal
        journal = CheckpointJournal(tmp_path / "mid.jsonl")
        torn = lines[0][: len(lines[0]) // 2]  # no trailing newline
        journal.path.write_bytes(torn + lines[1] + lines[2])
        records, salvage = run_quiet_load(journal)
        assert salvage.records == 2
        assert salvage.corrupt == 1
        intact_tail = {}
        for line in lines[1:]:
            data = json.loads(line)["data"]
            intact_tail[data["key"]] = data
        assert records == intact_tail


def run_quiet_load(journal):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return journal.load_with_stats()


class TestJournalTools:
    def test_compact_drops_damage_and_duplicates(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "compact.jsonl")
        engine = ExecutionEngine(
            jobs=1, worker=chaos_worker, checkpoint=journal,
            retry=FAST_RETRY,
        )
        engine.run(jobs())
        with open(journal.path, "a") as stream:
            stream.write("garbage not json\n")
            stream.write(frame_record({"key": "k1", "status": "ok"}))
            stream.write(frame_record({"key": "k1", "status": "ok"}))
        kept, dropped, salvage = journal.compact()
        assert kept == len(BENCHMARKS) + 1
        assert dropped == 2  # the garbage line + the superseded k1
        assert journal.verify().clean
        assert journal.verify().records == kept

    def test_compact_upgrades_legacy_records(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "legacy.jsonl")
        legacy = {"key": "old1", "status": "ok", "metrics": {"ipc": 2.0}}
        journal.path.write_text(json.dumps(legacy) + "\n")
        assert journal.verify().legacy == 1
        journal.compact()
        after = journal.verify()
        assert after.legacy == 0 and after.records == 1
        assert journal.load()["old1"] == legacy

    def test_enospc_degrades_and_cell_reruns_on_resume(
        self, tmp_path, baseline_hashes
    ):
        plan = FaultPlan([FaultSpec("enospc", job="gamma")])
        engine = make_engine(tmp_path, "enospc", fault_plan=plan)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = engine.run(jobs())
        assert report.exit_code == 0  # the sweep survives the full disk
        assert report.journal_errors == 1
        assert any("re-run on resume" in str(w.message) for w in caught)
        resumer = make_engine(
            tmp_path, "enospc", checkpoint=engine.checkpoint
        )
        resumed = resumer.run(jobs(), resume=True)
        assert len(resumed.resumed) == len(BENCHMARKS) - 1
        assert engine.checkpoint.content_hashes() == baseline_hashes


class TestRetryScheduleSurfaced:
    def test_backoff_and_attempts_reach_the_result(self, tmp_path):
        plan = FaultPlan([
            FaultSpec("crash", job="beta", attempt=1),
            FaultSpec("crash", job="beta", attempt=2),
        ])
        engine = make_engine(tmp_path, "sched", fault_plan=plan)
        report = engine.run(jobs())
        outcome = next(r for r in report if r.job.benchmark == "beta")
        assert outcome.attempts == 3
        assert outcome.crashes == 2
        assert outcome.backoff_total > 0
        record = engine.checkpoint.load()[outcome.job.key()]
        assert record["attempts"] == 3
        assert record["crashes"] == 2
        assert record["backoff_seconds"] > 0

    def test_export_row_carries_schedule_and_error_type(self):
        from repro.experiments.engine import JobResult, journal_record
        from repro.experiments.engine.job import JobFailure
        from repro.experiments.export import FIELDS, export_row

        failed = JobResult(
            Job("mst", "cdp"), "failed",
            failure=JobFailure("WorkerCrashError", "signal 9"),
            attempts=3, backoff_total=0.42,
        )
        record = export_row(journal_record(failed))
        assert set(record) == set(FIELDS)
        assert record["attempts"] == 3
        assert record["backoff_seconds"] == 0.42
        assert record["error_type"] == "WorkerCrashError"
        ok = export_row(journal_record(JobResult(
            Job("mst", "cdp"), "ok",
            result={
                "ipc": 1.0, "bpki": 2.0, "retired_instructions": 10,
                "cycles": 20, "l2_demand_misses": 1, "bus_transfers": 2,
                "cdp_accuracy": 0.5, "cdp_coverage": 0.5,
            },
            attempts=1, backoff_total=0.0,
        )))
        assert ok["error_type"] is None
        assert ok["attempts"] == 1
        # the journal leaves a zero backoff out; a cell that ran says 0.0
        assert ok["backoff_seconds"] == 0.0
        assert ok["cdp_accuracy"] == 0.5


class TestContentHash:
    def test_volatile_fields_do_not_change_the_hash(self):
        record = {
            "key": "k", "status": "ok", "metrics": {"ipc": 1.5},
            "attempts": 1, "duration": 0.1,
        }
        noisy = dict(
            record, attempts=5, duration=9.9, backoff_seconds=3.0,
            crashes=2,
        )
        assert record_content_hash(record) == record_content_hash(noisy)

    def test_metric_changes_do_change_the_hash(self):
        record = {"key": "k", "status": "ok", "metrics": {"ipc": 1.5}}
        other = {"key": "k", "status": "ok", "metrics": {"ipc": 1.6}}
        assert record_content_hash(record) != record_content_hash(other)


class TestRealEngineChaos:
    """Acceptance: chaos convergence on real simulations, both engines."""

    BENCHMARKS = ["mst", "libquantum"]

    @staticmethod
    def _config(sim_engine):
        from repro.core.config import SystemConfig

        return SystemConfig.scaled().with_overrides(
            l1_size=1024, l1_ways=2, l2_size=4096, l2_ways=4,
            engine=sim_engine,
        )

    def _jobs(self, sim_engine):
        return [
            Job(name, "baseline", self._config(sim_engine),
                input_set="test")
            for name in self.BENCHMARKS
        ]

    @pytest.mark.parametrize("sim_engine", ["reference", "fast"])
    def test_faulted_sweep_converges_to_clean_run(
        self, tmp_path, sim_engine
    ):
        from repro.experiments.engine.worker import default_worker

        def engine_for(name, **overrides):
            settings = dict(
                jobs=2, timeout=120.0, retry=FAST_RETRY,
                checkpoint=CheckpointJournal(
                    tmp_path / f"{sim_engine}-{name}.jsonl"
                ),
                worker=default_worker,
                watchdog=WatchdogPolicy(no_progress_timeout=60.0),
            )
            settings.update(overrides)
            return ExecutionEngine(**settings)

        clean = engine_for("clean")
        assert clean.run(self._jobs(sim_engine)).exit_code == 0
        clean_hashes = clean.checkpoint.content_hashes()

        plan = FaultPlan([
            FaultSpec("crash", job="mst/baseline"),
            FaultSpec("torn-write", job="libquantum/*"),
            FaultSpec("abort", job="mst/baseline"),
        ])
        chaos = engine_for("chaos", fault_plan=plan)
        try:
            run_quiet(chaos, self._jobs(sim_engine))
        except SweepInterrupted:
            pass
        resumer = engine_for("chaos", checkpoint=chaos.checkpoint)
        report = run_quiet(resumer, self._jobs(sim_engine), resume=True)
        assert report.exit_code == 0
        assert chaos.checkpoint.content_hashes() == clean_hashes


# -- hypothesis fuzz of the journal framing ---------------------------------

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is a dev dependency
    HAVE_HYPOTHESIS = False


if HAVE_HYPOTHESIS:
    json_scalars = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2 ** 53), max_value=2 ** 53),
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        st.text(max_size=20),
    )
    record_strategy = st.fixed_dictionaries(
        {"key": st.text(min_size=1, max_size=16)},
        optional={
            "status": st.sampled_from(["ok", "failed"]),
            "metrics": st.dictionaries(
                st.text(min_size=1, max_size=8), json_scalars, max_size=4
            ),
            "attempts": st.integers(min_value=1, max_value=9),
        },
    )

    @pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis missing")
    class TestJournalFraming:
        """CRC framing round-trips and survives single-byte damage."""

        @settings(
            max_examples=60, deadline=None, derandomize=True,
            suppress_health_check=[HealthCheck.function_scoped_fixture],
        )
        @given(records=st.lists(record_strategy, max_size=8))
        def test_round_trip(self, tmp_path, records):
            journal = CheckpointJournal(tmp_path / "fuzz.jsonl")
            with open(journal.path, "w") as stream:
                for record in records:
                    stream.write(frame_record(record))
            loaded, salvage = journal.load_with_stats()
            assert salvage.clean
            expected = {}
            for record in records:
                expected[record["key"]] = record
            for key, record in loaded.items():
                assert _canonical_eq(record, expected[key])

        @settings(
            max_examples=60, deadline=None, derandomize=True,
            suppress_health_check=[HealthCheck.function_scoped_fixture],
        )
        @given(
            record=record_strategy,
            at=st.integers(min_value=0, max_value=500),
            flip=st.integers(min_value=1, max_value=255),
        )
        def test_single_byte_damage_never_accepted(
            self, tmp_path, record, at, flip
        ):
            """CRC32 catches every single-byte error: a damaged frame is
            either rejected outright or — never — accepted as data."""
            line = frame_record(record).encode()
            body = line.rstrip(b"\n")
            at %= len(body)
            damaged = bytes(
                [b ^ flip if i == at else b for i, b in enumerate(body)]
            )
            if damaged == body:  # flip landed on an identical byte
                return
            journal = CheckpointJournal(tmp_path / "dmg.jsonl")
            journal.path.write_bytes(damaged + b"\n")
            loaded, salvage = run_quiet_load(journal)
            if loaded:  # only the pristine record may ever surface
                assert list(loaded.values()) == [record]
            else:
                assert salvage.skipped == 1


def _canonical_eq(loaded, original):
    """JSON round-trip equality (floats may renormalize, e.g. -0.0)."""
    return json.dumps(loaded, sort_keys=True) == json.dumps(
        json.loads(json.dumps(original)), sort_keys=True
    )
