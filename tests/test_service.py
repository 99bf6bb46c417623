"""Service-level harness: the job server end to end, in process.

Every test runs a real :class:`SimulationServer` — actual asyncio HTTP
listener on a loopback port, actual engine worker processes — via
``start_server_thread``, and talks to it through the stdlib
:class:`ServiceClient`.  The headline properties under test:

* submit → poll → result round-trips through HTTP and settles through
  the CRC-framed checkpoint journal;
* an identical resubmission is served from the content-addressed store
  with **zero** re-execution (proved by an execution-counting worker
  that leaves one file per actual run);
* concurrent duplicate submissions coalesce onto one in-flight
  execution;
* a full queue and an exhausted per-client quota surface as HTTP 429
  (:class:`ServiceBusyError`), never as unbounded buffering;
* a graceful drain settles in-flight jobs to the journal, and a fresh
  server over the same journal serves them without re-executing.

Workers leave execution evidence in a directory instead of a shared
counter because they run in *child processes*: the filesystem is the
only side channel that survives the process boundary.
"""

import functools
import http.server
import json
import os
import socket
import tempfile
import threading
import time
import urllib.error
import urllib.request
from urllib.parse import urlsplit

import pytest

from repro.errors import ServiceBusyError, ServiceError, UsageError
from repro.experiments.engine import (
    CheckpointJournal,
    ExecutionEngine,
    RetryPolicy,
)
from repro.service import (
    ServiceClient,
    ServicePolicy,
    job_from_submission,
    run_jobs,
    start_server_thread,
    submission_from_job,
)

FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.05)

ALPHA = {"benchmark": "alpha", "mechanism": "mech"}
BETA = {"benchmark": "beta", "mechanism": "mech"}
GAMMA = {"benchmark": "gamma", "mechanism": "mech"}


def counting_worker(count_dir, job, delay=0.0):
    """Deterministic fake simulation that logs each actual execution.

    One file appears in *count_dir* per run that reaches a worker — the
    ground truth behind every zero-re-execution assertion here.
    """
    fd, _path = tempfile.mkstemp(dir=count_dir, prefix=job.benchmark + "-")
    os.close(fd)
    if delay:
        time.sleep(delay)
    return {
        "ipc": 1.0 + len(job.benchmark) / 10.0,
        "bpki": float(sum(job.benchmark.encode())),
    }


class ServerUnderTest:
    """One server + its journal + its execution-count directory."""

    def __init__(self, tmp_path, delay=0.0, policy=None, **engine_overrides):
        self.count_dir = tmp_path / "executions"
        self.count_dir.mkdir(exist_ok=True)
        self.journal_path = tmp_path / "svc.jsonl"
        worker = functools.partial(
            counting_worker, str(self.count_dir), delay=delay
        )
        settings = dict(
            jobs=2,
            worker=worker,
            checkpoint=CheckpointJournal(self.journal_path),
            retry=FAST_RETRY,
        )
        settings.update(engine_overrides)
        self.handle = start_server_thread(
            ExecutionEngine(**settings), policy=policy
        )
        self.client = ServiceClient(self.handle.url, client_id="test")

    def executions(self) -> int:
        return len(os.listdir(self.count_dir))

    def stop(self):
        self.handle.stop()


def wait_for_status(client, key, status, timeout=10.0):
    deadline = time.monotonic() + timeout
    while client.status(key)["status"] != status:
        assert time.monotonic() < deadline, f"{key} never became {status}"
        time.sleep(0.01)


def get_json(url):
    """GET *url* with plain urllib: the endpoint as any HTTP client sees it."""
    with urllib.request.urlopen(url, timeout=30) as response:
        return json.loads(response.read())


def wait_for_waiters(server, topic, count=1, timeout=10.0):
    """Block until *count* long-polls are held on *topic*."""
    waiters = server.handle.server._waiters
    deadline = time.monotonic() + timeout
    while len(waiters.get(topic, ())) < count:
        assert time.monotonic() < deadline, f"no long-poll held on {topic}"
        time.sleep(0.01)


def in_thread(function, *args, **kwargs):
    """Start *function* on a thread; returns (thread, outcome dict)."""
    outcome = {}

    def target():
        started = time.monotonic()
        try:
            outcome["value"] = function(*args, **kwargs)
        except Exception as error:  # surfaced by the test's assertions
            outcome["error"] = error
        outcome["at"] = time.monotonic()
        outcome["elapsed"] = outcome["at"] - started

    thread = threading.Thread(target=target)
    thread.start()
    return thread, outcome


def raw_exchange(url, request: bytes) -> bytes:
    """Send *request* bytes as-is; everything the server answers."""
    split = urlsplit(url)
    with socket.create_connection(
        (split.hostname, split.port), timeout=10.0
    ) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


class TestEndToEnd:
    def test_submit_poll_result(self, tmp_path):
        server = ServerUnderTest(tmp_path)
        try:
            health = server.client.health()
            assert health["status"] == "ok"
            assert health["records"] == 0

            response = server.client.submit(ALPHA)
            key = response["key"]
            assert key == job_from_submission(ALPHA).key()
            assert response["status"] in ("queued", "running")

            payload = server.client.wait(key, timeout=30.0)
            assert payload["status"] == "done"
            record = payload["record"]
            assert record["status"] == "ok"
            assert record["metrics"]["ipc"] == pytest.approx(1.5)
            assert server.client.result(key) == record
            assert server.executions() == 1

            listed = server.client.jobs()
            assert [j["key"] for j in listed] == [key]
        finally:
            server.stop()
        # the settlement is durable, not just in memory
        records = CheckpointJournal(server.journal_path).load()
        assert records[key]["status"] == "ok"

    def test_unknown_key_and_bad_submissions(self, tmp_path):
        server = ServerUnderTest(tmp_path)
        try:
            with pytest.raises(ServiceError) as err:
                server.client.status("no-such-key")
            assert err.value.status == 404
            for bad in (
                {"benchmark": "", "mechanism": "m"},
                {"benchmark": "a", "mechanism": "m", "bogus": 1},
                {"benchmark": "a", "mechanism": "m", "preset": "huge"},
                {"benchmark": "a", "mechanism": "m",
                 "config": {"not_a_knob": 3}},
                ["not", "an", "object"],
            ):
                with pytest.raises(ServiceError) as err:
                    server.client.submit(bad)
                assert err.value.status == 400, bad
            assert server.executions() == 0
        finally:
            server.stop()


class TestContentAddressedDedup:
    def test_identical_resubmission_never_reexecutes(self, tmp_path):
        server = ServerUnderTest(tmp_path)
        try:
            record = server.client.run(ALPHA, timeout=30.0)
            assert record["status"] == "ok"
            assert server.executions() == 1

            # same cell, different spelling: key order, defaults made
            # explicit — the content hash sees through all of it
            respelled = {
                "mechanism": "mech",
                "input_set": "ref",
                "profile_input": "train",
                "preset": "scaled",
                "benchmark": "alpha",
            }
            response = server.client.submit(respelled)
            assert response["status"] == "done"
            assert response["cached"] is True
            assert response["record"]["metrics"] == record["metrics"]
            assert server.executions() == 1

            stats = server.client.stats()
            assert stats["cache_hits"] == 1
            assert stats["executed"] == 1
        finally:
            server.stop()

    def test_concurrent_duplicates_coalesce(self, tmp_path):
        # a slow worker keeps the first submission pending long enough
        # for the duplicate to land on it
        server = ServerUnderTest(tmp_path, delay=0.5)
        try:
            first = server.client.submit(ALPHA)
            second = server.client.submit(ALPHA)
            assert second["key"] == first["key"]
            assert second.get("coalesced") is True
            assert second["submissions"] == 2

            payload = server.client.wait(first["key"], timeout=30.0)
            assert payload["status"] == "done"
            assert server.executions() == 1
            assert server.client.stats()["coalesced"] == 1
        finally:
            server.stop()

    def test_restart_serves_from_journal(self, tmp_path):
        server = ServerUnderTest(tmp_path)
        try:
            assert server.client.run(ALPHA, timeout=30.0)["status"] == "ok"
        finally:
            server.stop()
        assert server.executions() == 1

        # a brand-new server process over the same journal: the result
        # store rehydrates, the resubmission never reaches a worker
        reborn = ServerUnderTest(tmp_path)
        try:
            assert reborn.client.health()["records"] == 1
            response = reborn.client.submit(ALPHA)
            assert response["status"] == "done"
            assert response["cached"] is True
        finally:
            reborn.stop()
        # both servers share the count dir: one execution total, ever
        assert server.executions() == 1


class TestContinuousDispatch:
    def test_job_submitted_while_another_runs_starts_at_once(self, tmp_path):
        # two slots and a slow worker: the second job takes the free slot
        # while the first still runs, not after the first settles
        server = ServerUnderTest(tmp_path, delay=1.0)
        try:
            first = server.client.submit(ALPHA)["key"]
            wait_for_status(server.client, first, "running")
            second = server.client.submit(BETA)["key"]
            wait_for_status(server.client, second, "running")
            assert server.client.status(first)["status"] == "running"
            # the engine launched it too: its dispatch row comes before
            # any settled row for the first job
            deadline = time.monotonic() + 10.0
            while True:
                events = server.client.events()["events"]
                rows = [(e["kind"], e["name"]) for e in events]
                if ("dispatch", "beta/mech") in rows:
                    break
                assert time.monotonic() < deadline, rows
                time.sleep(0.01)
            assert ("settled", "alpha/mech") not in rows[
                : rows.index(("dispatch", "beta/mech"))
            ]
            for key in (first, second):
                assert server.client.wait(key, timeout=30.0)["status"] == (
                    "done"
                )
            assert server.executions() == 2
        finally:
            server.stop()


class TestJobLongPoll:
    def test_wait_returns_when_the_running_job_settles(self, tmp_path):
        server = ServerUnderTest(tmp_path, delay=0.5)
        try:
            key = server.client.submit(ALPHA)["key"]
            wait_for_status(server.client, key, "running")
            started = time.monotonic()
            payload = get_json(f"{server.handle.url}/jobs/{key}?wait=5")
            elapsed = time.monotonic() - started
            assert payload["status"] == "done"
            assert payload["record"]["status"] == "ok"
            assert elapsed < 2.5  # about the job's remaining 0.5 s
            assert server.handle.server._waiters == {}
        finally:
            server.stop()

    def test_wait_on_a_queued_job_times_out_and_leaves_no_waiter(
        self, tmp_path
    ):
        # one slot, held by a slow job: the second job stays queued
        server = ServerUnderTest(tmp_path, delay=2.0, jobs=1)
        try:
            assert server.client.submit(ALPHA)["status"] == "running"
            key = server.client.submit(BETA)["key"]
            started = time.monotonic()
            payload = get_json(f"{server.handle.url}/jobs/{key}?wait=0.3")
            elapsed = time.monotonic() - started
            assert payload["status"] == "queued"
            assert 0.25 <= elapsed < 1.9
            assert server.handle.server._waiters == {}
        finally:
            server.stop()

    def test_non_numeric_wait_is_400(self, tmp_path):
        server = ServerUnderTest(tmp_path)
        try:
            key = server.client.submit(ALPHA)["key"]
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(
                    f"{server.handle.url}/jobs/{key}?wait=soon", timeout=10
                )
            assert err.value.code == 400
            assert "numeric" in json.loads(err.value.read())["error"]
            err.value.close()
        finally:
            server.stop()

    def test_coalesced_waiters_all_wake_on_one_settle(self, tmp_path):
        server = ServerUnderTest(tmp_path, delay=1.0)
        try:
            key = server.client.submit(ALPHA)["key"]
            other = ServiceClient(server.handle.url, client_id="other")
            assert other.submit(ALPHA).get("coalesced") is True
            polls = [
                in_thread(get_json, f"{server.handle.url}/jobs/{key}?wait=10")
                for _ in range(2)
            ]
            wait_for_waiters(server, key, count=2)  # both held, then woken
            for thread, _ in polls:
                thread.join(30)
            for _, outcome in polls:
                assert outcome["value"]["status"] == "done", outcome
                assert outcome["elapsed"] < 5.0
            assert server.executions() == 1
        finally:
            server.stop()

    def test_client_wait_polls_a_server_that_ignores_wait(self):
        paths = []

        class AnswersAtOnce(http.server.BaseHTTPRequestHandler):
            def do_GET(self):
                paths.append(self.path)
                payload = {"key": "k", "status": "running"}
                if len(paths) == 3:
                    payload = {
                        "key": "k", "status": "done",
                        "record": {"status": "ok"},
                    }
                body = json.dumps(payload).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        httpd = http.server.ThreadingHTTPServer(
            ("127.0.0.1", 0), AnswersAtOnce
        )
        thread = threading.Thread(target=httpd.serve_forever)
        thread.start()
        try:
            client = ServiceClient(
                f"http://127.0.0.1:{httpd.server_address[1]}", timeout=4.0
            )
            started = time.monotonic()
            payload = client.wait("k", timeout=30.0, poll=0.01)
            elapsed = time.monotonic() - started
        finally:
            httpd.shutdown()
            httpd.server_close()
            thread.join()
        assert payload["status"] == "done"
        assert len(paths) == 3 and elapsed < 1.5
        for path in paths:  # each asks for a hold shorter than its timeout
            route, _, query = path.partition("?wait=")
            assert route == "/jobs/k" and 0 < float(query) < client.timeout


class TestEventStream:
    def test_cursor_returns_only_newer_rows(self, tmp_path):
        server = ServerUnderTest(tmp_path)
        try:
            first = server.client.events()
            assert first["events"][0]["kind"] == "serve-start"
            assert first["next"] == first["events"][-1]["seq"]
            server.client.run(ALPHA, timeout=30.0)
            later = server.client.events(after=first["next"])
            seqs = [event["seq"] for event in later["events"]]
            assert seqs and min(seqs) > first["next"]
            assert later["next"] == seqs[-1]
            kinds = [event["kind"] for event in later["events"]]
            for kind in ("submit", "dispatch", "settled"):
                assert kind in kinds
            assert not [kind for kind in kinds if kind.startswith("batch")]
            # nothing newer: an empty page that keeps the cursor
            assert server.client.events(after=later["next"]) == {
                "events": [], "next": later["next"],
            }
        finally:
            server.stop()

    def test_long_poll_returns_when_a_row_arrives(self, tmp_path):
        server = ServerUnderTest(tmp_path)
        try:
            cursor = server.client.events()["next"]
            submitter = ServiceClient(server.handle.url, client_id="later")
            timer = threading.Timer(0.3, submitter.submit, args=(ALPHA,))
            started = time.monotonic()
            timer.start()
            page = server.client.events(after=cursor, wait=20.0)
            elapsed = time.monotonic() - started
            timer.join()
            assert page["events"][0]["kind"] == "submit"
            assert 0.25 <= elapsed < 10.0
        finally:
            server.stop()

    def test_long_poll_without_rows_returns_after_the_wait(self, tmp_path):
        server = ServerUnderTest(tmp_path)
        try:
            cursor = server.client.events()["next"]
            started = time.monotonic()
            page = server.client.events(after=cursor, wait=0.5)
            elapsed = time.monotonic() - started
            assert page == {"events": [], "next": cursor}
            assert 0.45 <= elapsed < 5.0
        finally:
            server.stop()

    def test_non_numeric_parameters_are_400(self, tmp_path):
        server = ServerUnderTest(tmp_path)
        try:
            for query in ("after=latest", "wait=soon"):
                with pytest.raises(urllib.error.HTTPError) as err:
                    urllib.request.urlopen(
                        f"{server.handle.url}/events?{query}", timeout=10
                    )
                assert err.value.code == 400, query
                assert "numeric" in json.loads(err.value.read())["error"]
                err.value.close()
        finally:
            server.stop()


class TestMalformedRequests:
    def test_bad_framing_gets_400_and_the_server_stays_up(self, tmp_path):
        server = ServerUnderTest(tmp_path)
        oversized = b"a" * 70000  # past asyncio's 64 KB line limit
        try:
            for request in (
                b"POST /jobs HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
                b"GET /" + oversized + b" HTTP/1.1\r\n\r\n",
                b"GET /stats HTTP/1.1\r\nX-Pad: " + oversized + b"\r\n\r\n",
            ):
                reply = raw_exchange(server.handle.url, request)
                head, _, body = reply.partition(b"\r\n\r\n")
                assert head.startswith(b"HTTP/1.1 400 "), reply[:200]
                assert json.loads(body)["error"]
            assert server.client.health()["status"] == "ok"
        finally:
            server.stop()


class TestBackpressure:
    def test_queue_bound_rejects_with_429(self, tmp_path):
        # one slot, held by a slow job: the next submission stays queued
        server = ServerUnderTest(
            tmp_path, delay=1.0, jobs=1, policy=ServicePolicy(max_queue=1)
        )
        try:
            assert server.client.submit(ALPHA)["status"] == "running"
            assert server.client.submit(BETA)["status"] == "queued"
            with pytest.raises(ServiceBusyError) as err:
                server.client.submit(GAMMA, busy_retry=False)
            assert err.value.status == 429
            assert err.value.retry_after == pytest.approx(0.2)
            assert server.client.stats()["rejected_queue"] == 1
            # the duplicate of the queued job still coalesces: dedup
            # must not be defeated by a full queue
            again = server.client.submit(BETA)
            assert again.get("coalesced") is True
        finally:
            server.stop()

    def test_per_client_quota_rejects_with_429(self, tmp_path):
        # a slow worker keeps ana's first job pending for the whole test
        server = ServerUnderTest(
            tmp_path,
            delay=1.0,
            policy=ServicePolicy(max_pending_per_client=1, max_queue=64),
        )
        try:
            ana = ServiceClient(server.handle.url, client_id="ana")
            bob = ServiceClient(server.handle.url, client_id="bob")
            ana.submit(ALPHA)
            with pytest.raises(ServiceBusyError) as err:
                ana.submit(BETA, busy_retry=False)
            assert err.value.status == 429
            # quotas are per client: bob's budget is untouched
            assert bob.submit(BETA)["status"] in ("queued", "running")
            assert server.client.stats()["rejected_quota"] == 1
        finally:
            server.stop()


class TestGracefulDrain:
    def test_drain_settles_inflight_work_to_journal(self, tmp_path):
        server = ServerUnderTest(tmp_path, delay=0.5)
        try:
            key = server.client.submit(ALPHA)["key"]
            deadline = time.monotonic() + 10.0
            while server.client.status(key)["status"] != "running":
                assert time.monotonic() < deadline, "job never launched"
                time.sleep(0.02)

            server.handle.begin_drain()
            with pytest.raises(ServiceBusyError) as err:
                server.client.submit(BETA)
            assert err.value.status == 503
        finally:
            server.stop()
        # the in-flight job was not abandoned: it settled durably
        records = CheckpointJournal(server.journal_path).load()
        assert records[key]["status"] == "ok"
        assert server.executions() == 1

    def test_drain_answers_open_job_long_polls(self, tmp_path):
        # one slot: alpha runs for 2 s, beta waits queued behind it
        server = ServerUnderTest(tmp_path, delay=2.0, jobs=1)
        try:
            running = server.client.submit(ALPHA)["key"]
            queued = server.client.submit(BETA)["key"]
            polls = {
                key: in_thread(server.client.status, key, wait=20.0)
                for key in (running, queued)
            }
            for key in polls:
                wait_for_waiters(server, key)
            drained = time.monotonic()
            server.handle.begin_drain()
            for thread, _ in polls.values():
                thread.join(30)
            # both answer at the drain, with what they hold now: the
            # running job has not settled, the queued one is abandoned
            answers = {key: outcome for key, (_, outcome) in polls.items()}
            assert answers[running]["value"]["status"] == "running"
            assert answers[queued]["value"]["status"] == "abandoned"
            for outcome in answers.values():
                assert outcome["at"] - drained < 1.5
        finally:
            server.stop()
        records = CheckpointJournal(server.journal_path).load()
        assert records[running]["status"] == "ok" and queued not in records

    def test_wait_on_abandoned_job_raises_at_drain(self, tmp_path):
        # one slot: alpha runs for 2 s, beta waits queued behind it
        server = ServerUnderTest(tmp_path, delay=2.0, jobs=1)
        try:
            running = server.client.submit(ALPHA)["key"]
            queued = server.client.submit(BETA)["key"]
            thread, outcome = in_thread(server.client.wait, queued)
            wait_for_waiters(server, queued)
            drained = time.monotonic()
            server.handle.begin_drain()
            thread.join(10)
            assert not thread.is_alive(), "wait outlived the drain"
            error = outcome.get("error")
            assert isinstance(error, ServiceError), outcome
            assert "abandoned" in str(error) and queued in str(error)
            assert outcome["at"] - drained < 1.5
            jobs = server.client.jobs()
            assert {j["key"]: j["status"] for j in jobs}[queued] == "abandoned"
        finally:
            server.stop()
        records = CheckpointJournal(server.journal_path).load()
        assert records[running]["status"] == "ok" and queued not in records

    def test_drain_answers_open_event_long_polls(self, tmp_path):
        server = ServerUnderTest(tmp_path)
        try:
            cursor = server.client.events()["next"]
            thread, outcome = in_thread(
                server.client.events, after=cursor, wait=20.0
            )
            wait_for_waiters(server, "/events")
        finally:
            server.stop()  # the SIGTERM path: drain, then shut down
        thread.join(30)
        assert "error" not in outcome, outcome
        kinds = [event["kind"] for event in outcome["value"]["events"]]
        assert kinds == ["drain"]
        assert outcome["elapsed"] < 10.0


class TestSweepClient:
    def test_run_jobs_matches_engine_report_shape(self, tmp_path):
        server = ServerUnderTest(tmp_path)
        try:
            jobs = [job_from_submission(p) for p in (ALPHA, BETA, GAMMA)]
            seen = []
            report = run_jobs(
                server.client,
                jobs + jobs[:1],  # duplicate cell dedupes client-side
                progress=seen.append,
                timeout=60.0,
            )
            assert len(report.order) == 3
            assert len(report.ok) == 3
            assert report.exit_code == 0
            assert len(seen) == 3
            assert server.executions() == 3

            # a second sweep over the same matrix is all cache
            report = run_jobs(server.client, jobs, timeout=60.0)
            assert len(report.ok) == 3
            assert len(report.resumed) == 3
            assert server.executions() == 3
        finally:
            server.stop()

    def test_run_jobs_rides_out_backpressure(self, tmp_path):
        # quota of one forces submit → collect → submit serialization
        server = ServerUnderTest(
            tmp_path, policy=ServicePolicy(max_pending_per_client=1)
        )
        try:
            jobs = [job_from_submission(p) for p in (ALPHA, BETA, GAMMA)]
            report = run_jobs(server.client, jobs, timeout=60.0)
            assert len(report.ok) == 3
            assert server.executions() == 3
        finally:
            server.stop()


class TestTelemetrySeries:
    def test_series_is_named_after_the_job_not_the_cell(self, tmp_path):
        # two submissions of one (benchmark, mechanism, input set) that
        # differ only in config are two jobs, with two series
        series_dir = tmp_path / "series"
        engine = ExecutionEngine(
            jobs=2,
            checkpoint=CheckpointJournal(tmp_path / "svc.jsonl"),
            retry=FAST_RETRY,
        )
        handle = start_server_thread(engine, telemetry_dir=str(series_dir))
        client = ServiceClient(handle.url, client_id="test")
        cell = {"benchmark": "mst", "mechanism": "cdp+throttle",
                "input_set": "test"}
        small_l2 = dict(cell, config={"l2_size": 8192,
                                      "interval_evictions": 64})
        try:
            keys = [client.submit(p)["key"] for p in (cell, small_l2)]
            for key in keys:
                assert client.wait(key, timeout=60.0)["status"] == "done"
            bodies = [
                urllib.request.urlopen(
                    f"{handle.url}/jobs/{key}/series", timeout=30
                ).read()
                for key in keys
            ]
        finally:
            handle.stop()
            engine.close()
        assert all(bodies)
        assert bodies[0] != bodies[1]
        assert len(list(series_dir.glob("*.series.jsonl"))) == 2


class TestProtocolRoundTrip:
    def test_submission_round_trips_to_same_key(self):
        job = job_from_submission(
            {"benchmark": "alpha", "mechanism": "mech",
             "config": {"stream_count": 16}, "input_set": "test"}
        )
        wire = submission_from_job(job)
        assert job_from_submission(wire).key() == job.key()

    def test_server_requires_a_journal(self, tmp_path):
        from repro.service import SimulationServer

        with pytest.raises(UsageError):
            SimulationServer(ExecutionEngine(jobs=1, checkpoint=None))
