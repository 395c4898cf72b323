"""Wire-protocol unit tests: envelope, job validation, report round-trip."""

from __future__ import annotations

import json

import pytest

from repro.errors import ProtocolError
from repro.interp.env import Environment
from repro.machine.costmodel import fx80
from repro.runtime.orchestrator import LoopRunner, RunConfig, Strategy
from repro.service.catalog import build_workload
from repro.service.protocol import (
    FORMAT,
    VERSION,
    JobRequest,
    ServedReport,
    comparable_payload,
    decode_message,
    encode_message,
    environment_digest,
    error_reply,
    ok_reply,
    report_payload,
)


class TestEnvelope:
    def test_round_trip(self):
        line = encode_message({"op": "ping", "id": 7})
        assert line.endswith(b"\n")
        payload = decode_message(line)
        assert payload["op"] == "ping"
        assert payload["id"] == 7
        assert payload["format"] == FORMAT
        assert payload["version"] == VERSION

    def test_rejects_non_json(self):
        with pytest.raises(ProtocolError, match="not JSON"):
            decode_message(b"hello there\n")

    def test_rejects_undecodable_bytes(self):
        with pytest.raises(ProtocolError, match="undecodable"):
            decode_message(b"\xff\xfe{}\n")

    def test_rejects_foreign_format(self):
        line = json.dumps({"format": "someone-else", "version": 1})
        with pytest.raises(ProtocolError, match="not a repro-serve"):
            decode_message(line)

    def test_rejects_future_version(self):
        # The error message must mention "version": the server keys its
        # unsupported-version error code on that.
        line = json.dumps({"format": FORMAT, "version": VERSION + 1})
        with pytest.raises(ProtocolError, match="version"):
            decode_message(line)

    def test_rejects_non_object(self):
        with pytest.raises(ProtocolError):
            decode_message(b"[1, 2, 3]\n")

    def test_reply_shapes(self):
        ok = ok_reply(3, pong=True)
        assert ok == {"id": 3, "status": "ok", "pong": True}
        err = error_reply(4, "queue-full", "try later")
        assert err["status"] == "error"
        assert err["error"]["code"] == "queue-full"

    def test_error_reply_rejects_unknown_code(self):
        with pytest.raises(AssertionError):
            error_reply(1, "made-up-code", "nope")


class TestJobRequest:
    def test_defaults(self):
        job = JobRequest.from_json({"workload": "synthpass"})
        assert job.strategy == "speculative"
        assert job.engine == "compiled"
        assert job.schedule_cache is True
        assert job.procs is None

    def test_requires_workload(self):
        with pytest.raises(ProtocolError, match="workload"):
            JobRequest.from_json({"engine": "compiled"})

    def test_rejects_unknown_field(self):
        with pytest.raises(ProtocolError, match="strip_sizes"):
            JobRequest.from_json({"workload": "x", "strip_sizes": 4})

    def test_rejects_retired_backend_field(self):
        with pytest.raises(ProtocolError, match="unknown job field.*backend"):
            JobRequest.from_json({"workload": "x", "backend": "threads"})

    def test_rejects_wrong_type(self):
        with pytest.raises(ProtocolError, match="procs"):
            JobRequest.from_json({"workload": "x", "procs": "four"})

    def test_rejects_bool_for_int_field(self):
        with pytest.raises(ProtocolError, match="must not be a bool"):
            JobRequest.from_json({"workload": "x", "workers": True})

    def test_rejects_non_object(self):
        with pytest.raises(ProtocolError, match="must be an object"):
            JobRequest.from_json(["workload"])

    def test_key_is_canonical(self):
        a = JobRequest.from_json({"workload": "x", "procs": 4})
        b = JobRequest(workload="x", procs=4)
        c = JobRequest(workload="x", procs=8)
        assert a.key() == b.key()
        assert a.key() != c.key()
        # the key is JSON, so it survives any transport intact
        assert json.loads(a.key())["workload"] == "x"


class TestEnvironmentDigest:
    def test_sensitive_to_array_bits(self):
        workload = build_workload("synthpass")
        env = Environment(workload.program(), workload.inputs)
        base = environment_digest(env)
        assert base == environment_digest(env)
        name = sorted(env.arrays)[0]
        env.arrays[name][0] += 1
        assert environment_digest(env) != base

    def test_sensitive_to_scalars(self):
        workload = build_workload("synthpass")
        env = Environment(workload.program(), workload.inputs)
        base = environment_digest(env)
        env.scalars["brand_new_scalar"] = 42
        assert environment_digest(env) != base


class TestServedReport:
    @pytest.fixture(scope="class")
    def report(self):
        workload = build_workload("synthpass")
        runner = LoopRunner(workload.program(), workload.inputs)
        return runner.run(
            Strategy.SPECULATIVE, RunConfig(model=fx80(), engine="compiled")
        )

    def test_json_round_trip_is_exact(self, report):
        payload = report_payload(report)
        # the payload must be pure JSON ...
        wire = json.dumps(payload, sort_keys=True)
        # ... and survive the round trip bit-for-bit
        again = ServedReport.from_json(json.loads(wire)).to_json()
        assert again == payload

    def test_speedup_and_describe(self, report):
        served = ServedReport.from_report(report)
        assert served.passed is True
        assert served.speedup == pytest.approx(report.speedup)
        assert "speculative" in served.describe()

    def test_corrupt_payload_raises_protocol_error(self, report):
        payload = report_payload(report)
        del payload["times"]
        with pytest.raises(ProtocolError, match="corrupt report"):
            ServedReport.from_json(payload)

    def test_comparable_payload_drops_nondeterminism(self, report):
        payload = report_payload(report)
        comparable = comparable_payload(payload)
        assert "wall" not in comparable
        assert "cache_stats" not in comparable
        assert comparable["env_digest"] == payload["env_digest"]
        assert comparable["times"] == payload["times"]


class TestRecoveredReport:
    """DOACROSS-recovered executions over the wire."""

    @pytest.fixture(scope="class")
    def report(self):
        workload = build_workload("synthdoacross")
        runner = LoopRunner(workload.program(), workload.inputs)
        return runner.run(
            Strategy.DOACROSS_RECOVERY,
            RunConfig(model=fx80().with_procs(8), strip_size=40),
        )

    def test_recovered_strip_flags_round_trip(self, report):
        assert any(s.recovered for s in report.strips)
        payload = report_payload(report)
        served = ServedReport.from_json(payload)
        assert [s.recovered for s in served.strips] == \
            [s.recovered for s in report.strips]
        assert served.to_json() == payload

    def test_old_strip_payloads_default_unrecovered(self, report):
        # Reports from a pre-recovery daemon lack the flag entirely.
        payload = report_payload(report)
        for strip in payload["strips"]:
            del strip["recovered"]
        served = ServedReport.from_json(payload)
        assert all(not s.recovered for s in served.strips)

    def test_decisions_survive_the_comparable_payload(self, report):
        """The dropped-diagnostics regression: ``comparable_payload``
        must keep engine_decisions/fallbacks — only wall-clock and
        cache counters are nondeterministic."""
        payload = report_payload(report)
        comparable = comparable_payload(payload)
        assert comparable["engine_decisions"] == payload["engine_decisions"]
        assert comparable["fallbacks"] == payload["fallbacks"]
        assert any(
            "pipelined DOACROSS" in reason
            for _key, reason in payload["engine_decisions"]
        )
        assert comparable["stats"]["recovered_fraction"] > 0.0
