"""The end-to-end benchmark of the LRPD reproduction.

    python3 perfbench/run.py --workload cold_mixed --seed 1 --seconds 10 --trace 0

Runs one seeded closed-loop workload through the public API (or the
``repro serve`` daemon), checks every op against an independent oracle,
and prints, as the last line of standard output, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, measured with tracing
off.  ``--trace 1`` splits ``--seconds`` between an untraced timed phase
(the base for ``trace.overhead_frac``) and a traced one, and reports the
per-layer metrics.  Lines before the JSON give the same numbers for a
reader, with the sample count next to every percentile.  See
``perfbench/README.md`` for the workloads, metrics and layer mapping.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import speed
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: scratch output (traces, sockets, daemon logs), relative to ROOT so
#: unix socket paths stay short whatever the checkout path is.
OUT = os.path.join("perfbench", "out")

#: p95 needs at least ten samples above it.
MIN_OPS = 200
#: an op slower than this counts as failed (timed out).
OP_TIMEOUT_S = 30.0
#: the timed phase ends at ``seconds`` unless it still lacks MIN_OPS or
#: a full deck pass; it never runs past this many times ``seconds``.
MAX_STRETCH = 4.0
#: set-up is repeated this many times per run and its median reported
#: (import probes for the in-process workloads; daemon boot + warm-up).
IMPORT_REPEATS = 5
SETUP_REPEATS = 3
#: closed-loop client connections for warm_serve (at most the 2 cores
#: the benchmark was built for).
CLIENTS = 2
DAEMON_BOOT_DEADLINE_S = 60.0

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "op/s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "ok_frac": "ratio",
    "sim_speedup_gmean": "x",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "frontend.lift_ms": "ms",
    "frontend.lifted_frac": "ratio",
    "analysis.plan_ms": "ms",
    "analysis.tested_arrays": "count",
    "runtime.serial_ref_ms": "ms",
    "runtime.serial_ref_calls": "calls/op",
    "runtime.doall_ms": "ms",
    "runtime.doall_marked_frac": "ratio",
    "core.lrpd_ms": "ms",
    "core.lrpd_pass_frac": "ratio",
    "runtime.commit_ms": "ms",
    "runtime.rollback_ms": "ms",
    "runtime.recovery_ms": "ms",
    "runtime.recovered_frac": "ratio",
    "runtime.self_ms": "ms",
    "runtime.profile.signature_ms": "ms",
    "runtime.profile.hit_frac": "ratio",
    "service.execute_ms": "ms",
    "service.encode_ms": "ms",
    "service.overhead_ms": "ms",
    "service.coalesced_frac": "ratio",
    "trace.coverage_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


# -- timed phases ------------------------------------------------------------


@dataclass
class Phase:
    """What one timed phase observed.  Times are raw wall-clock seconds;
    :attr:`speed` rescales them to reference speed (:mod:`speed`)."""

    speed: speed.SpeedLog
    starts: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    #: simulated speedup of each deck entry's first completion.
    speedups: dict[int, float] = field(default_factory=dict)
    recovered: list[float] = field(default_factory=list)
    cache_lookups: int = 0
    cache_hits: int = 0
    started: float = 0.0
    ended: float = 0.0
    clients: int = 1

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def scaled_latencies(self) -> list[float]:
        return [
            self.speed.scale(start, latency)
            for start, latency in zip(self.starts, self.latencies)
        ]

    @property
    def ops_per_s(self) -> float:
        """Closed-loop throughput, clients x ops / total op time (Little's
        law): the benchmark's own checks between ops do not count."""
        return self.clients * self.attempted / sum(self.scaled_latencies())

    @property
    def raw_ops_per_s(self) -> float:
        return self.clients * self.attempted / sum(self.latencies)

    def record(self, start: float, latency: float, why: str | None, label: str) -> None:
        if why is None and latency > OP_TIMEOUT_S:
            why = f"timed out after {latency:.1f}s"
        self.starts.append(start)
        self.latencies.append(latency)
        if why is not None:
            self.failures.append(f"{label}: {why}")


def _keep_going(started: float, count: int, seconds: float, deck_len: int,
                min_ops: int = MIN_OPS) -> bool:
    elapsed = time.perf_counter() - started
    if elapsed >= seconds * MAX_STRETCH and count >= deck_len:
        return False
    return elapsed < seconds or count < max(min_ops, deck_len)


def in_process_phase(deck, seconds: float, spans=None, *, min_ops: int = MIN_OPS) -> Phase:
    """One client, one op at a time; ``spans`` wraps each op in an
    ``op`` span so the shims' layer spans nest under it."""
    import decks

    phase = Phase(speed.SpeedLog())
    phase.started = time.perf_counter()
    index = 0
    while _keep_going(phase.started, index, seconds, len(deck), min_ops):
        phase.speed.sample()
        op = deck[index % len(deck)]
        tick = time.perf_counter()
        try:
            if spans is None:
                outcome = decks.execute(op)
            else:
                with spans.span("op", op=index):
                    outcome = decks.execute(op)
            latency = time.perf_counter() - tick
            why = decks.check(op, outcome)
        except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
            latency = time.perf_counter() - tick
            why, outcome = f"raised {type(exc).__name__}: {exc}", None
        phase.record(tick, latency, why, op.key)
        report = outcome.report if outcome is not None else None
        if report is not None:
            phase.speedups.setdefault(index % len(deck), report.speedup)
            if "recovered_fraction" in report.stats:
                phase.recovered.append(report.stats["recovered_fraction"])
            phase.cache_lookups += report.cache_stats.get("lookups", 0)
            phase.cache_hits += report.cache_stats.get("hits", 0)
        index += 1
    phase.ended = time.perf_counter()
    phase.speed.sample()
    return phase


def served_phase(daemon, jobs, digests: dict, seconds: float) -> Phase:
    """:data:`CLIENTS` connections, each submitting its next job only
    after the previous reply arrived.  ``seconds=0`` makes one pass.
    The clients keep off the daemon's CPU; the speed probe samples it."""
    import decks
    from repro.service.client import ReproClient
    from repro.service.protocol import ServedReport

    phase = Phase(speed.SpeedLog(), clients=CLIENTS)
    lock = threading.Lock()
    issued = [0]
    once = seconds <= 0

    def client_loop() -> None:
        os.sched_setaffinity(0, daemon.client_cpus)
        with ReproClient(daemon.socket, timeout=OP_TIMEOUT_S) as client:
            while True:
                with lock:
                    index = issued[0]
                    done = (
                        index >= len(jobs) if once
                        else not _keep_going(phase.started, index, seconds, len(jobs))
                    )
                    if done:
                        return
                    issued[0] += 1
                job = jobs[index % len(jobs)]
                tick = time.perf_counter()
                try:
                    payload = client.submit_raw(job)
                    latency = time.perf_counter() - tick
                    why = decks.check_served(job, payload, digests)
                except Exception as exc:  # noqa: BLE001 - error reply, timeout, socket
                    latency = time.perf_counter() - tick
                    why, payload = f"{type(exc).__name__}: {exc}", None
                with lock:
                    phase.record(tick, latency, why, job.key())
                    if payload is not None and index % len(jobs) not in phase.speedups:
                        phase.speedups[index % len(jobs)] = (
                            ServedReport.from_json(payload).speedup
                        )

    threads = [threading.Thread(target=client_loop) for _ in range(CLIENTS)]
    with phase.speed.sampling(daemon.cpu):
        phase.started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        phase.ended = time.perf_counter()
    return phase


# -- processes ---------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_setup_s() -> float:
    """Process start to ready for the in-process workloads: interpreter
    start plus importing everything the first op needs (reference s)."""
    code = (
        "import repro.frontend, repro.runtime.orchestrator, repro.workloads; "
        "print('ready', flush=True)"
    )
    log = speed.SpeedLog()
    log.sample()
    tick = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", code], env=_child_env(), stdout=subprocess.PIPE,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - tick
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    log.sample()
    return log.scale(tick, elapsed)


def peak_rss_mb(pid: int | str = "self") -> float:
    """VmHWM of a process, in MB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


class Daemon:
    """A ``repro serve`` subprocess pinned to one CPU; traced ones run
    through ``serve_traced.py`` and leave their spans in
    :attr:`trace_path`."""

    def __init__(self, *, traced: bool = False):
        cpus = sorted(os.sched_getaffinity(0))
        self.cpu = cpus[-1]
        self.client_cpus = set(cpus[:-1]) or {self.cpu}
        tag = f"{os.getpid()}-{id(self):x}"
        self.socket = os.path.join(OUT, f"serve-{tag}.sock")
        self.trace_path = os.path.join(OUT, f"daemon-{tag}.json") if traced else None
        self.log_path = os.path.join(OUT, f"daemon-{tag}.log")
        if traced:
            self.cmd = [
                sys.executable, os.path.join("perfbench", "serve_traced.py"),
                "--socket", self.socket, "--trace-out", self.trace_path,
            ]
        else:
            self.cmd = [sys.executable, "-m", "repro", "serve", "--socket", self.socket]
        self.proc = None

    def start(self) -> None:
        """Boot and wait for the first ``ping`` reply."""
        from repro.service.client import ReproClient

        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                self.cmd, env=_child_env(), stdout=subprocess.DEVNULL, stderr=log,
                preexec_fn=lambda: os.sched_setaffinity(0, {self.cpu}),
            )
        deadline = time.monotonic() + DAEMON_BOOT_DEADLINE_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited during boot; see {self.log_path}")
            if os.path.exists(self.socket):
                try:
                    with ReproClient(self.socket, timeout=5.0) as client:
                        client.ping()
                    return
                except Exception:  # noqa: BLE001 - not listening yet
                    pass
            time.sleep(0.002)
        raise RuntimeError(f"daemon did not answer within {DAEMON_BOOT_DEADLINE_S}s")

    def stats(self) -> dict:
        from repro.service.client import ReproClient

        with ReproClient(self.socket, timeout=30.0) as client:
            return client.stats()

    def stop(self) -> None:
        """Graceful shutdown; kill if it does not end in time."""
        from repro.service.client import ReproClient

        if self.proc is None or self.proc.poll() is not None:
            return
        try:
            with ReproClient(self.socket, timeout=10.0) as client:
                client.shutdown_server()
            self.proc.wait(timeout=30.0)
        except Exception:  # noqa: BLE001 - fall through to kill
            self.proc.kill()
            self.proc.wait()
        if self.proc.returncode == 0:
            # Keep a failed daemon's log for diagnosis only.
            os.remove(self.log_path)


# -- metrics -----------------------------------------------------------------


def percentiles(latencies: list[float]) -> tuple[float, float, int]:
    """``(p50_ms, p95_ms, samples_above_p95)``."""
    ms = sorted(1e3 * value for value in latencies)
    p95 = statistics.quantiles(ms, n=20)[18]
    return statistics.median(ms), p95, sum(1 for value in ms if value > p95)


def gmean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def end_to_end(phase: Phase, setup_s: float, rss_mb: float) -> dict:
    p50, p95, above = percentiles(phase.scaled_latencies())
    raw50, raw95, _ = percentiles(phase.latencies)
    print(f"op_p50_ms {p50:.3f} ms, op_p95_ms {p95:.3f} ms at reference speed "
          f"(n={phase.attempted}, {above} samples above p95); raw wall clock: "
          f"p50 {raw50:.3f} ms, p95 {raw95:.3f} ms, "
          f"{phase.raw_ops_per_s:.3f} op/s")
    return {
        "setup_s": setup_s,
        "ops_per_s": phase.ops_per_s,
        "op_p50_ms": p50,
        "op_p95_ms": p95,
        "ok_frac": 1.0 - len(phase.failures) / phase.attempted,
        "sim_speedup_gmean": gmean(phase.speedups.values()),
        "peak_rss_mb": rss_mb,
    }


def layer_metrics(totals, ops: int, *, coverage: float, overhead: float,
                  recovered: list[float], hits: int, lookups: int) -> dict:
    return {
        "frontend.lift_ms": totals.ms_per_op("frontend.lift", ops),
        "frontend.lifted_frac": totals.frac("frontend.lift", "ok"),
        "analysis.plan_ms": totals.ms_per_op("analysis.plan", ops),
        "analysis.tested_arrays": totals.mean("analysis.plan", "tested"),
        "runtime.serial_ref_ms": totals.ms_per_op("runtime.serial_ref", ops),
        "runtime.serial_ref_calls": totals.calls.get("runtime.serial_ref", 0) / ops,
        "runtime.doall_ms": totals.ms_per_op("runtime.doall", ops),
        "runtime.doall_marked_frac": totals.frac("runtime.doall", "marked"),
        "core.lrpd_ms": totals.ms_per_op("core.lrpd", ops),
        "core.lrpd_pass_frac": totals.frac("core.lrpd", "passed"),
        "runtime.commit_ms": totals.ms_per_op("runtime.commit", ops),
        "runtime.rollback_ms": totals.ms_per_op("runtime.rollback", ops),
        "runtime.recovery_ms": totals.ms_per_op("runtime.recovery", ops),
        "runtime.recovered_frac": statistics.fmean(recovered) if recovered else 0.0,
        "runtime.self_ms": totals.ms_per_op("runtime.run", ops),
        "runtime.profile.signature_ms": totals.ms_per_op("runtime.profile.signature", ops),
        "runtime.profile.hit_frac": hits / lookups if lookups else 0.0,
        "service.execute_ms": totals.ms_per_op("service.execute", ops),
        "service.encode_ms": totals.ms_per_op("service.encode", ops),
        "service.overhead_ms": 0.0,
        "service.coalesced_frac": 0.0,
        "trace.coverage_frac": coverage,
        "trace.overhead_frac": overhead,
    }


# -- workloads ---------------------------------------------------------------


@dataclass
class Result:
    metrics: dict
    attempted: int
    failures: list[str]
    problems: list[str] = field(default_factory=list)


def run_in_process(name: str, make_deck, seed: int, seconds: float, trace: bool) -> Result:
    deck = make_deck(seed)
    if not trace:
        setup_s = statistics.median(import_setup_s() for _ in range(IMPORT_REPEATS))
        phase = in_process_phase(deck, seconds)
        metrics = end_to_end(phase, setup_s, peak_rss_mb())
        return Result(metrics, phase.attempted, phase.failures)
    # The untraced base and the traced phase split --seconds between them.
    base = in_process_phase(deck, seconds / 2)
    spans = tracer.Tracer()
    with tracer.installed(spans):
        phase = in_process_phase(deck, seconds / 2, spans)
    spans.write_chrome(os.path.join(OUT, f"trace-{name}-{seed}.json"))
    roots = {i for i, span in enumerate(spans.spans) if span.name == "op"}
    covered = sum(
        span.duration_ns for span in spans.spans if span.parent in roots
    )
    metrics = layer_metrics(
        tracer.LayerTotals.collect(
            spans.spans, factor=lambda span: phase.speed.factor(span.start_ns / 1e9),
        ),
        len(roots),
        coverage=covered / sum(spans.spans[i].duration_ns for i in roots),
        overhead=1.0 - phase.ops_per_s / base.ops_per_s,
        recovered=phase.recovered,
        hits=phase.cache_hits, lookups=phase.cache_lookups,
    )
    return Result(metrics, base.attempted + phase.attempted,
                  base.failures + phase.failures)


def cold_mixed(seed, seconds, trace):
    import decks

    return run_in_process("cold_mixed", decks.cold_mixed_deck, seed, seconds, trace)


def fail_recover(seed, seconds, trace):
    import decks

    return run_in_process("fail_recover", decks.fail_recover_deck, seed, seconds, trace)


def _boot_and_warm(jobs, digests, *, traced: bool = False) -> tuple[Daemon, float, Phase]:
    """Boot a daemon and submit every job once; returns the daemon, the
    set-up time (boot to first ping plus the warm-up pass, in reference
    seconds) and the warm-up phase."""
    daemon = Daemon(traced=traced)
    boot = speed.SpeedLog()
    try:
        boot.sample()
        tick = time.perf_counter()
        daemon.start()
        booted = time.perf_counter() - tick
        boot.sample()
        warm = served_phase(daemon, jobs, digests, 0)
    except BaseException:
        daemon.stop()
        raise
    setup = boot.scale(tick, booted) + warm.speed.scale_span(warm.started, warm.ended)
    return daemon, setup, warm


def warm_serve(seed, seconds, trace):
    import decks

    jobs = decks.warm_serve_deck(seed)
    digests, problems = decks.served_digests(jobs)
    if not trace:
        setups = []
        daemon = None
        try:
            for _ in range(SETUP_REPEATS):
                if daemon is not None:
                    daemon.stop()
                daemon, setup_s, warm = _boot_and_warm(jobs, digests)
                setups.append(setup_s)
                problems += [f"warm-up {why}" for why in warm.failures]
            phase = served_phase(daemon, jobs, digests, seconds)
            rss = peak_rss_mb(daemon.proc.pid)
        finally:
            daemon.stop()
        metrics = end_to_end(phase, statistics.median(setups), rss)
        return Result(metrics, phase.attempted, phase.failures, problems)

    daemon, _setup, warm = _boot_and_warm(jobs, digests)
    try:
        base = served_phase(daemon, jobs, digests, seconds / 2)
    finally:
        daemon.stop()
    daemon, _setup, warm_traced = _boot_and_warm(jobs, digests, traced=True)
    try:
        before = daemon.stats()
        phase = served_phase(daemon, jobs, digests, seconds / 2)
        after = daemon.stats()
    finally:
        daemon.stop()
    problems += [f"warm-up {why}" for why in warm.failures + warm_traced.failures]
    spans = tracer.read_chrome(daemon.trace_path)
    os.remove(daemon.trace_path)
    tracer.write_chrome(
        os.path.join(OUT, f"trace-warm_serve-{seed}.json"),
        [(daemon.proc.pid, spans)],
    )
    # Only the timed phase counts: the warm-up and the stats requests
    # fall outside its window.
    def timed(span):
        return phase.started <= span.start_ns / 1e9 and span.end_ns / 1e9 <= phase.ended

    def factor(span):
        return phase.speed.factor(span.start_ns / 1e9)

    totals = tracer.LayerTotals.collect(spans, keep=timed, factor=factor)
    executes = [
        span.duration_ns * factor(span) for span in spans
        if timed(span) and span.name == "service.execute"
    ]
    rtt = phase.scaled_latencies()
    ops = phase.attempted

    def delta(*path):
        lo, hi = before, after
        for key in path:
            lo, hi = lo[key], hi[key]
        return hi - lo

    metrics = layer_metrics(
        totals, ops,
        coverage=sum(totals.root_ns.values()) / (1e9 * sum(rtt)),
        overhead=1.0 - phase.ops_per_s / base.ops_per_s,
        recovered=[], hits=delta("profile", "hits"),
        lookups=delta("profile", "lookups"),
    )
    metrics["service.overhead_ms"] = (
        1e3 * statistics.fmean(rtt) - statistics.fmean(executes) / 1e6
    )
    received = delta("received")
    metrics["service.coalesced_frac"] = delta("coalesced") / received if received else 0.0
    return Result(metrics, base.attempted + ops, base.failures + phase.failures, problems)


WORKLOADS = {
    "cold_mixed": cold_mixed,
    "warm_serve": warm_serve,
    "fail_recover": fail_recover,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    os.makedirs(OUT, exist_ok=True)
    sys.path[:0] = [SRC, HERE]

    result = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    units = LAYER_UNITS if args.trace else E2E_UNITS
    for why in result.problems + result.failures:
        print(f"FAILED {why}")
    for name, unit in units.items():
        print(f"{name} {result.metrics[name]:.6g} {unit}")
    failed = len(result.failures)
    print(f"failed_frac {failed / result.attempted:.6g} ratio "
          f"({failed} of {result.attempted} ops)")
    print(json.dumps({
        "correct": failed == 0 and not result.problems,
        "attempted": result.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": result.metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
