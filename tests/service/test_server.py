"""Server behaviour over the real socket: ops, sharing, coalescing."""

from __future__ import annotations

import asyncio
import os
import signal
import threading
import time

from repro.service.client import ReproClient
from repro.service.protocol import JobRequest, comparable_payload
from repro.service.server import LoopService, ReproServer, _serve_async

from tests.service.conftest import short_socket_path


class TestOps:
    def test_ping(self, harness):
        with ReproClient(harness.socket_path, timeout=10.0) as client:
            reply = client.ping()
            assert reply["pong"] is True
            assert reply["pid"] == os.getpid()  # in-process harness

    def test_stats_shape(self, harness):
        with ReproClient(harness.socket_path, timeout=10.0) as client:
            stats = client.stats()
        for key in ("received", "executed", "coalesced", "rejected",
                    "errors", "timeouts", "disconnects", "runners",
                    "pool_builds", "pool_hits", "profile", "pending"):
            assert key in stats, key

    def test_many_requests_one_connection(self, harness):
        with ReproClient(harness.socket_path, timeout=30.0) as client:
            for _ in range(3):
                assert client.ping()["pong"] is True
            report = client.submit(JobRequest(workload="synthpass", procs=4))
            assert report.passed is True


class TestServedExecution:
    def test_served_report_matches_direct_run(self, harness):
        """The daemon must be a transparent front end: a served job's
        deterministic payload is bit-identical to the same spec run
        directly on a fresh in-process service."""
        job = JobRequest(workload="synthpass", procs=4, schedule_cache=False)
        with ReproClient(harness.socket_path, timeout=30.0) as client:
            served = client.submit_raw(job)
        direct_service = LoopService()
        direct = direct_service.execute(job)
        assert comparable_payload(served) == comparable_payload(direct)

    def test_failing_workload_is_served_cleanly(self, harness):
        with ReproClient(harness.socket_path, timeout=30.0) as client:
            report = client.submit(JobRequest(workload="synthfail", procs=4))
        assert report.passed is False
        assert report.times.serial_rerun > 0.0

    def test_profile_store_is_shared_across_requests(self, harness):
        """Second identical job reuses the first one's cached verdict —
        the whole LRPD test is skipped (paper §IV.D, fleet-wide)."""
        job = JobRequest(workload="synthpass", procs=4, schedule_cache=True)
        with ReproClient(harness.socket_path, timeout=30.0) as client:
            first = client.submit(job)
            second = client.submit(job)
            stats = client.stats()
        assert not first.reused_schedule
        assert second.reused_schedule
        assert second.loop_time < first.loop_time
        assert stats["profile"]["hits"] >= 1

    def test_worker_pools_persist_across_requests(self, harness):
        job = JobRequest(
            workload="synthpass", procs=2, engine="vectorized",
            workers=2, schedule_cache=False,
        )
        with ReproClient(harness.socket_path, timeout=60.0) as client:
            client.submit(job)
            client.submit(job)
            stats = client.stats()
        assert stats["pool_builds"] == 1
        assert stats["pool_hits"] >= 1

    def test_runners_persist_per_workload(self, harness):
        with ReproClient(harness.socket_path, timeout=30.0) as client:
            client.submit(JobRequest(workload="synthpass", procs=2))
            client.submit(JobRequest(workload="synthpass", procs=8))
            client.submit(JobRequest(workload="synthfail", procs=2))
            stats = client.stats()
        assert stats["runners"] == 2  # one per workload, not per job


class TestCoalescing:
    def test_identical_concurrent_jobs_share_one_execution(self, slow_harness):
        """A burst of identical requests costs one speculation, not N."""
        job = JobRequest(workload="synthpass", procs=4)
        replies = []
        errors = []

        def submit():
            try:
                with ReproClient(slow_harness.socket_path, timeout=30.0) as c:
                    replies.append(c.request({"op": "run", "job": job.to_json()}))
            except Exception as exc:  # noqa: BLE001 - surfaced in the assert
                errors.append(exc)

        threads = [threading.Thread(target=submit) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(replies) == 4
        # every waiter got the same execution's report
        payloads = [comparable_payload(r["report"]) for r in replies]
        assert all(p == payloads[0] for p in payloads)
        assert sum(1 for r in replies if r["coalesced"]) >= 1
        with ReproClient(slow_harness.socket_path, timeout=10.0) as client:
            stats = client.stats()
        assert stats["received"] == 4
        assert stats["coalesced"] >= 1
        assert stats["executed"] + stats["coalesced"] >= 4
        assert stats["executed"] < 4


class TestShutdown:
    def test_shutdown_op_stops_server_and_unlinks_socket(self, harness):
        with ReproClient(harness.socket_path, timeout=10.0) as client:
            reply = client.shutdown_server()
        assert reply["shutting_down"] is True
        harness._thread.join(timeout=10.0)
        assert not harness._thread.is_alive()
        assert not harness.socket_path.exists()

    def test_stop_signals_after_shutdown_are_ignored(self):
        """A daemon asked to stop and then sent SIGTERM (the smoke
        test's teardown) must still exit cleanly, so once shutdown is
        done the stop signals are ignored rather than reset to their
        fatal defaults."""
        socket_path = short_socket_path()
        server = ReproServer(socket_path)

        def stop_when_up():
            deadline = time.monotonic() + 10.0
            while not socket_path.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            with ReproClient(socket_path, timeout=10.0) as client:
                client.shutdown_server()

        saved = {s: signal.getsignal(s) for s in (signal.SIGINT, signal.SIGTERM)}
        stopper = threading.Thread(target=stop_when_up)
        stopper.start()
        try:
            asyncio.run(_serve_async(server))
            stopper.join(timeout=10.0)
            assert signal.getsignal(signal.SIGTERM) == signal.SIG_IGN
            assert signal.getsignal(signal.SIGINT) == signal.SIG_IGN
            os.kill(os.getpid(), signal.SIGTERM)
        finally:
            for signum, handler in saved.items():
                signal.signal(signum, handler)
        assert not socket_path.exists()
