"""The strategy orchestrator: the user-facing entry point of the runtime.

:class:`LoopRunner` compiles a program once (its instrumentation plan)
and then executes the target loop under any strategy and machine
configuration, producing comparable :class:`ExecutionReport` records.

A report's ``serial_loop_time`` (the speedup denominator) comes from the
run that actually happened, never from a second, serial execution: a
passing doall prices its own iteration costs with the marking removed,
a rollback or refusal reports the time of its own serial re-run, a
DOACROSS recovery its serial equivalent, and a strip-mined run the sum
of those strip by strip; schedule reuse memoizes it beside the reuse
times.  :meth:`LoopRunner.serial_run` remains the independent serial
oracle, used by :attr:`Strategy.SERIAL`, the evaluation tables and the
tests.

Everything the runner remembers across invocations lives in one
:class:`~repro.runtime.profile.LoopProfileStore`: cached LRPD verdicts
(schedule reuse, OCEAN-style loops) and per-run observations (the
feedback the ``auto`` planner consumes).
Every ``run()`` leaves one observation behind; loops whose recorded
history says speculation keeps failing are refused up front when a
planner engine is in charge.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum

from repro.analysis.instrument import InstrumentationPlan, build_plan
from repro.core.outcomes import TestMode
from repro.core.shadow import Granularity
from repro.dsl.ast_nodes import Program
from repro.errors import SpeculationError
from repro.interp.compiled import compile_program
from repro.interp.costs import CostCounter
from repro.interp.env import Environment
from repro.interp.interpreter import split_at_loop
from repro.machine.costmodel import CostModel, fx80
from repro.machine.schedule import ScheduleKind
from repro.machine.simulator import DoallSimulator
from repro.machine.stats import TimeBreakdown, WallClock
from repro.runtime.doall import finalize_doall, run_doall
from repro.runtime.engines import get_engine, serial_engine_for
from repro.runtime.inspector import run_inspector_executor
from repro.runtime.profile import (
    LoopProfileStore,
    RunObservation,
    pattern_signature,
)
from repro.runtime.results import ExecutionReport, SerialRun
from repro.runtime.serial import (
    loop_iteration_values,
    rerun_loop_serially,
    run_serial,
    serial_loop_cycles,
)
from repro.runtime.speculative import (
    FixedStripSizer,
    SpeculationPipeline,
    run_speculative,
)


class Strategy(Enum):
    SERIAL = "serial"
    SPECULATIVE = "speculative"
    INSPECTOR = "inspector"
    #: strip-mined speculation: windowed LRPD with incremental commit
    #: and bounded rollback (see :class:`SpeculationPipeline`).
    STRIPPED = "stripped"
    #: speculation (whole-loop, or strip-mined when a strip
    #: configuration is set) with the post-failure DOACROSS recovery
    #: tier explicitly armed: failed regions re-execute priced as
    #: chunked pipelined DOACROSSes at the minimum dependence distance
    #: measured from the shadow stamps, instead of as serial re-runs.
    DOACROSS_RECOVERY = "doacross_recovery"


@dataclass
class RunConfig:
    """Machine and test configuration for one execution."""

    model: CostModel = field(default_factory=fx80)
    schedule: ScheduleKind = ScheduleKind.BLOCK
    granularity: Granularity = Granularity.ITERATION
    test_mode: TestMode = TestMode.LRPD
    dynamic_last_value: bool = True
    directional: bool = True
    use_schedule_cache: bool = False
    #: abort the speculative doall at the first definite conflict (the
    #: on-the-fly hardware model [47]); only effective for the default
    #: iteration-wise directional LRPD configuration.
    eager_failure_detection: bool = False
    #: doall iteration executor — any engine registered in
    #: :mod:`repro.runtime.engines`: "compiled" (closure-compiled,
    #: batched marking), "walk" (the reference tree walker), "vectorized"
    #: (whole-block NumPy lowering with bulk shadow marking,
    #: :mod:`repro.interp.vectorized_spec`; classifier-rejected loops
    #: walk the declared fallback chain to compiled with the reason
    #: recorded on the report), or "auto" (per-loop adaptive selection,
    #: decision recorded on the report).  Bit-identical results; "walk"
    #: is kept for ablation and equivalence testing.  Validated at
    #: construction against the registry.
    engine: str = "compiled"
    #: thread-pool workers that shard the ``vectorized`` lanes (None:
    #: run single-process).  Independent of the *simulated* processor
    #: count in :attr:`model` — workers are an execution resource,
    #: processors are what the cost model prices.
    workers: int | None = None
    #: iterations per strip for :attr:`Strategy.STRIPPED`.  ``None``
    #: degenerates to one whole-loop strip — the report is bit-identical
    #: to :attr:`Strategy.SPECULATIVE` (the path is delegated wholesale).
    strip_size: int | None = None
    #: let the strip sizer grow on consecutive passes and shrink on
    #: failures (:class:`repro.runtime.adaptive.AdaptiveStripSizer`);
    #: ``strip_size`` then seeds the initial size.
    adaptive_strip_sizing: bool = False

    def __post_init__(self) -> None:
        # Fail at construction, not deep inside a strategy run; the
        # error lists the registered engines.
        get_engine(self.engine)

    def with_procs(self, p: int) -> "RunConfig":
        import dataclasses

        return dataclasses.replace(self, model=self.model.with_procs(p))


class LoopRunner:
    """Compiles a program and runs its target loop under chosen strategies."""

    def __init__(
        self,
        program: Program,
        inputs: dict,
        *,
        trip_count: int | None = None,
        profiles: LoopProfileStore | None = None,
        pools=None,
    ):
        self.program = program
        self.inputs = dict(inputs)
        self.plan: InstrumentationPlan = build_plan(program, trip_count=trip_count)
        self.loop = self.plan.loop
        self._before, self._after = split_at_loop(program, self.loop)
        #: the program on closures, for the statements around the loop.
        self._compiled = compile_program(program)
        #: the runner's cross-invocation memory; pass a shared (possibly
        #: persistent) store to carry verdicts and planner feedback
        #: across runners and processes.
        self.profiles = profiles if profiles is not None else LoopProfileStore()
        #: optional caller-owned
        #: :class:`~repro.runtime.parallel_backend.WorkerPoolCache`:
        #: when set, worker-sharding runs draw a persistent pool from it
        #: (keyed by loop identity, procs, workers) instead of building
        #: an ephemeral one per run — the serve daemon passes a
        #: fleet-wide cache so repeat requests skip thread start-up.
        #: The caller owns the cache's lifetime (``pools.close()``).
        self.pools = pools
        self._serial_runs: dict[str, SerialRun] = {}
        #: shadow marker recycled across speculative attempts (reset in
        #: place instead of reallocating the shadow buffers every run).
        self._spec_marker = None
        #: memoized simulated times and serial loop cycles of passed
        #: schedule-reuse runs, keyed by (signature, machine, procs,
        #: schedule, engine, workers).  A reuse run's times are a
        #: pure function of that key — the signature pins the access
        #: pattern, everything else pins the machine and schedule — so
        #: repeat reuse runs skip the per-iteration cost accounting and
        #: makespan simulation.
        self._reuse_times: dict[tuple, tuple[dict, float]] = {}

    # -- reference -----------------------------------------------------------

    def serial_run(self, model: CostModel, engine: str = "compiled") -> SerialRun:
        """The serial oracle execution (cached per machine and engine).

        Only :attr:`Strategy.SERIAL` and outside callers (evaluation,
        tests) use it; the speculative strategies take their speedup
        denominator from their own run.

        ``engine`` honors :attr:`RunConfig.engine`; the serial-capable
        engines are property-tested to be state- and count-identical, so
        the choice only affects wall clock, not any simulated quantity.
        Engines without a serial executor (the serial reference has no
        block for the vectorized engine to lower) substitute the first
        serial-capable engine on their registry fallback chain, with the
        substitution recorded on the returned run instead of silently
        dropped.
        """
        serial_name, substitution = serial_engine_for(engine)
        key = f"{model.name}:{serial_name}"
        if key not in self._serial_runs:
            self._serial_runs[key] = run_serial(
                self.program, self.inputs, model, loop=self.loop,
                engine=serial_name,
            )
        cached = self._serial_runs[key]
        if substitution is None:
            return cached
        import dataclasses

        return dataclasses.replace(cached, engine_substitution=substitution)

    # -- strategies ------------------------------------------------------------

    def run(self, strategy: Strategy, config: RunConfig | None = None) -> ExecutionReport:
        """Execute the target loop under ``strategy``; returns the report.

        Every run feeds the profile store: one
        :class:`~repro.runtime.profile.RunObservation` (engine, measured
        wall clock, verdict, strip size) is appended to the
        loop's ring, and the verdict-cache counters are snapshotted onto
        ``report.cache_stats``.
        """
        config = config or RunConfig()
        tick = time.perf_counter()
        # Dispatch through a table, not strategy comparisons — the same
        # no-enum-dispatch discipline the engine lint enforces for
        # engine names (``benchmarks/check_engine_dispatch.py``).
        strategies = {
            Strategy.SERIAL: self._run_serial,
            Strategy.SPECULATIVE: self._run_speculative,
            Strategy.STRIPPED: self._run_stripped,
            Strategy.INSPECTOR: self._run_inspector,
            Strategy.DOACROSS_RECOVERY: self._run_doacross_recovery,
        }
        runner = strategies.get(strategy)
        if runner is None:
            raise SpeculationError(f"unknown strategy {strategy!r}")
        report = runner(config)
        wall_s = time.perf_counter() - tick
        self.profiles.observe(self._loop_key(), RunObservation(
            strategy=report.strategy,
            engine=report.engine_used,
            wall_s=wall_s,
            doall_s=report.wall.doall if report.wall is not None else 0.0,
            passed=report.passed,
            fallback_reason=report.fallbacks[0][1] if report.fallbacks else None,
            strip_size=report.strips[-1].strip_size if report.strips else None,
            reused=report.reused_schedule,
            recovered_fraction=report.stats.get("recovered_fraction"),
            sync_wait_cycles=report.stats.get("recovery_sync_wait_cycles", 0.0),
        ))
        report.cache_stats = self.profiles.counters()
        return report

    def _env_at_loop_entry(self, model: CostModel) -> tuple[Environment, float]:
        env = Environment(self.program, self.inputs)
        cost = CostCounter()
        self._compiled.run_statements(self._before, env, cost)
        return env, model.iteration_cycles(cost.total())

    def _finish(self, env: Environment) -> None:
        self._compiled.run_statements(self._after, env, CostCounter())

    def _run_serial(self, config: RunConfig) -> ExecutionReport:
        reference = self.serial_run(config.model, config.engine)
        times = TimeBreakdown(serial_rerun=reference.loop_time)
        return ExecutionReport(
            strategy=Strategy.SERIAL.value,
            machine=config.model.name,
            procs=1,
            passed=None,
            test_result=None,
            times=times,
            serial_loop_time=reference.loop_time,
            env=reference.env.copy(),
        )

    def _refuse_serially(
        self, env: Environment, sim: DoallSimulator, config: RunConfig,
        *, reason: str | None = None,
    ) -> ExecutionReport:
        """Run serially without attempting any doall: either a
        loop-carried scalar statically blocks speculation, or (with a
        planner engine and ``reason`` set) the loop's recorded failure
        history vetoes another attempt."""
        serial_time, _ = rerun_loop_serially(
            self.program, self.loop, env, config.model
        )
        self._finish(env)
        return ExecutionReport(
            strategy=Strategy.SERIAL.value,
            machine=config.model.name,
            procs=sim.num_procs,
            passed=None,
            test_result=None,
            times=TimeBreakdown(serial_rerun=serial_time),
            serial_loop_time=serial_time,
            env=env,
            stats={"refused": 1.0},
            engine_decisions=self._decisions(reason),
        )

    def _shared_pool(self, config: RunConfig, sim: DoallSimulator, env: Environment):
        """A persistent worker pool from :attr:`pools` (None without a
        cache, or when the run does not shard its lanes over workers).

        The pool is keyed by everything its :class:`ShardSpec` and
        layout depend on, so a cache shared across runners and requests
        can never hand back a mismatched pool.
        """
        from repro.runtime.engines import needs_worker_pool

        if self.pools is None or not needs_worker_pool(config.engine, config.workers):
            return None
        from repro.runtime.parallel_backend import ShardSpec, ThreadWorkerPool

        key = (self._loop_key(), sim.num_procs, config.workers)
        return self.pools.get(key, lambda: ThreadWorkerPool(
            ShardSpec.from_plan(
                self.program, self.loop, self.plan, env, sim.num_procs
            ),
            config.workers,
        ))

    def _speculation_veto(self, config: RunConfig) -> str | None:
        """The profile store's eager-serial verdict, for planner engines.

        Only a planner (``engine="auto"``) may act on history — an
        explicitly requested engine keeps the paper's optimistic
        protocol, whatever the loop's record says.
        """
        if not get_engine(config.engine).caps.planner:
            return None
        return self.profiles.speculation_veto(self._loop_key())

    def _arm_recovery(self, config: RunConfig) -> tuple[bool, str | None]:
        """Whether a planner engine arms the DOACROSS recovery tier.

        Explicit :attr:`Strategy.DOACROSS_RECOVERY` requests always arm;
        this decides the *learned* arming for planner engines: only once
        the loop's ring records at least one failed attempt (so a loop's
        very first runs behave exactly as before this tier existed), and
        only while the recovery history itself is not vetoed — a loop
        whose measured distances keep coming back serial stops paying
        the distance measurement and rolls back serially again.
        """
        if not get_engine(config.engine).caps.planner:
            return False, None
        loop_key = self._loop_key()
        failures, _attempts = self.profiles.failure_stats(loop_key)
        if failures < 1:
            return False, None
        veto = self.profiles.recovery_veto(loop_key)
        if veto is not None:
            return False, veto
        return True, (
            f"feedback: arming DOACROSS recovery ({failures} recorded "
            f"failure(s), no recovery veto on record)"
        )

    def _recovery_rescue(self, config: RunConfig) -> str | None:
        """The profile store's rescue verdict, for planner engines only."""
        if not get_engine(config.engine).caps.planner:
            return None
        return self.profiles.recovery_rescue(self._loop_key())

    def _run_speculative(
        self, config: RunConfig, *, recovery: bool = False
    ) -> ExecutionReport:
        sim = DoallSimulator(config.model, config.schedule)
        env, _setup = self._env_at_loop_entry(config.model)

        if not self.plan.parallelizable_scalars:
            return self._refuse_serially(env, sim, config)

        extra_decisions: list[str | None] = []
        if not recovery:
            recovery, armed_reason = self._arm_recovery(config)
            extra_decisions.append(armed_reason)

        veto = self._speculation_veto(config)
        if veto is not None:
            rescue = self._recovery_rescue(config)
            if rescue is None:
                return self._refuse_serially(env, sim, config, reason=veto)
            # The failure history says stop, but the recovery history
            # says the failures themselves pipeline well: speculate
            # anyway with recovery armed, recording both verdicts.
            recovery = True
            extra_decisions.extend([veto, rescue])

        pool = self._shared_pool(config, sim, env)
        signature = None
        signature_s = 0.0
        if config.use_schedule_cache:
            # The signature must be taken at loop entry, before the doall
            # mutates any state it covers.
            tick = time.perf_counter()
            signature = pattern_signature(self.plan, env)
            signature_s = time.perf_counter() - tick
            cached = self.profiles.lookup_verdict(self._loop_key(), signature)
            if cached is not None:
                report = self._run_from_cached(
                    env, cached, sim, config,
                    signature=signature, signature_s=signature_s, pool=pool,
                )
                self._finish(env)
                return report

        outcome = run_speculative(
            self.program,
            self.loop,
            env,
            self.plan,
            sim,
            test_mode=config.test_mode,
            granularity=config.granularity,
            schedule=config.schedule,
            dynamic_last_value=config.dynamic_last_value,
            directional=config.directional,
            eager=config.eager_failure_detection,
            engine=config.engine,
            marker=self._spec_marker,
            workers=config.workers,
            pool=pool,
            profiles=self.profiles,
            loop_key=self._loop_key(),
            recovery=recovery,
        )
        self._spec_marker = outcome.run.marker
        outcome.wall.signature = signature_s
        if config.use_schedule_cache:
            self.profiles.record_verdict(self._loop_key(), signature, outcome.result)
        self._finish(env)
        return ExecutionReport(
            strategy=Strategy.SPECULATIVE.value,
            machine=config.model.name,
            procs=sim.num_procs,
            passed=outcome.result.passed,
            test_result=outcome.result,
            times=outcome.times,
            serial_loop_time=outcome.serial_cycles,
            env=env,
            stats=outcome.stats,
            wall=outcome.wall,
            fallbacks=self._fallbacks(outcome.run.fallback_reason),
            engine_used=outcome.run.engine_used,
            engine_decisions=(
                self._decisions(outcome.run.engine_decision)
                + [
                    entry
                    for reason in extra_decisions
                    for entry in self._decisions(reason)
                ]
                + self._decisions(outcome.recovery_decision)
            ),
        )

    def _run_doacross_recovery(self, config: RunConfig) -> ExecutionReport:
        """Speculation with the DOACROSS recovery tier explicitly armed.

        Routes to the strip-mined pipeline when a strip configuration is
        set (each failed strip recovers independently), else to the
        whole-loop protocol.  Refusals (unparallelizable scalars) still
        report as serial runs; everything that actually speculated is
        relabelled so the report and the profile ring record which
        strategy was asked for.
        """
        if config.strip_size is not None or config.adaptive_strip_sizing:
            report = self._run_stripped(config, recovery=True)
        else:
            report = self._run_speculative(config, recovery=True)
        if report.strategy != Strategy.SERIAL.value:
            report.strategy = Strategy.DOACROSS_RECOVERY.value
        return report

    def _run_stripped(
        self, config: RunConfig, *, recovery: bool = False
    ) -> ExecutionReport:
        """Strip-mined speculation (windowed LRPD, incremental commit)."""
        if config.strip_size is None and not config.adaptive_strip_sizing:
            # Degenerate configuration: one strip covering the whole loop
            # *is* the unstripped protocol — delegate wholesale so every
            # simulated quantity stays bit-identical to SPECULATIVE.
            return self._run_speculative(config, recovery=recovery)
        sim = DoallSimulator(config.model, config.schedule)
        env, _setup = self._env_at_loop_entry(config.model)

        if not self.plan.parallelizable_scalars:
            return self._refuse_serially(env, sim, config)

        extra_decisions: list[str | None] = []
        if not recovery:
            recovery, armed_reason = self._arm_recovery(config)
            extra_decisions.append(armed_reason)

        veto = self._speculation_veto(config)
        if veto is not None:
            rescue = self._recovery_rescue(config)
            if rescue is None:
                return self._refuse_serially(env, sim, config, reason=veto)
            recovery = True
            extra_decisions.extend([veto, rescue])

        strip_decision = None
        if config.adaptive_strip_sizing:
            # Imported lazily: adaptive.py imports this module at top level.
            from repro.runtime.adaptive import AdaptiveStripSizer

            initial = config.strip_size or AdaptiveStripSizer.DEFAULT_INITIAL
            warm = None
            if config.strip_size is None and get_engine(config.engine).caps.planner:
                warm = self.profiles.warm_strip_size(self._loop_key())
                if warm is not None:
                    initial = warm
                    strip_decision = (
                        f"feedback: warm-starting the adaptive strip size "
                        f"at {warm} (the last passing strip-mined run's "
                        f"converged size)"
                    )
            sizer = AdaptiveStripSizer(initial_size=initial)
            if warm is not None:
                # A converged size from history should survive one
                # unlucky strip: failures shrink no further than it...
                sizer.raise_floor(warm)
            if get_engine(config.engine).caps.planner and self.profiles.veto_cleared(
                self._loop_key()
            ):
                # ...unless that history just went stale — a lifted
                # speculation veto means the ring turned over, so let
                # failures shrink strips all the way down again.
                sizer.reset_floor()
                extra_decisions.append(
                    "feedback: speculation veto lifted — resetting the "
                    "adaptive strip-size floor (failures may shrink "
                    "strips below the warm-started size again)"
                )
        else:
            sizer = FixedStripSizer(config.strip_size)
        pipeline = SpeculationPipeline(
            self.program,
            self.loop,
            env,
            self.plan,
            sim,
            sizer=sizer,
            test_mode=config.test_mode,
            granularity=config.granularity,
            schedule=config.schedule,
            dynamic_last_value=config.dynamic_last_value,
            directional=config.directional,
            eager=config.eager_failure_detection,
            engine=config.engine,
            marker=self._spec_marker,
            workers=config.workers,
            pool=self._shared_pool(config, sim, env),
            profiles=self.profiles,
            loop_key=self._loop_key(),
            recovery=recovery,
        )
        outcome = pipeline.run()
        self._spec_marker = outcome.marker
        self._finish(env)
        return ExecutionReport(
            strategy=Strategy.STRIPPED.value,
            machine=config.model.name,
            procs=sim.num_procs,
            passed=outcome.result.passed,
            test_result=outcome.result,
            times=outcome.times,
            serial_loop_time=outcome.serial_cycles,
            env=env,
            stats=outcome.stats,
            strips=outcome.strips,
            wall=outcome.wall,
            fallbacks=self._fallbacks(outcome.fallback_reason),
            engine_used=outcome.engine_used,
            engine_decisions=(
                self._decisions(outcome.engine_decision)
                + self._decisions(strip_decision)
                + [
                    entry
                    for reason in extra_decisions
                    for entry in self._decisions(reason)
                ]
                + self._decisions(outcome.recovery_decision)
            ),
        )

    def _run_from_cached(
        self,
        env: Environment,
        cached,
        sim: DoallSimulator,
        config: RunConfig,
        *,
        signature=None,
        signature_s: float = 0.0,
        pool=None,
    ) -> ExecutionReport:
        """Schedule reuse: skip marking and analysis entirely.

        The plain (uninstrumented) re-execution goes through the
        whole-block vectorized chain rather than the requested engine —
        every engine is state- and cost-identical, so the request only
        governs the *speculative* attempt, and the reuse path is free to
        take the fastest executor (classifier rejects fall back down the
        registry chain as usual).  Worker-sharding requests with a live
        pool keep their engine: the persistent pool IS their fast path.
        Simulated times of repeat reuse runs — and the serial loop time,
        priced from the same iteration costs — come from
        :attr:`_reuse_times` instead of being re-derived per run.
        """
        times = TimeBreakdown()
        wall = WallClock(signature=signature_s)
        fallback_reason = None
        engine_used = None
        engine_decision = None
        if cached.passed:
            reuse_engine, reuse_workers = config.engine, config.workers
            if pool is None and not get_engine(config.engine).caps.whole_block:
                reuse_engine, reuse_workers = "vectorized", None
            memo_key = (
                signature, config.model.name, sim.num_procs,
                config.schedule, config.engine, config.workers,
            )
            memo = (
                self._reuse_times.get(memo_key)
                if signature is not None else None
            )
            start, stop, step = self._compiled.loop_bounds(self.loop, env)
            tick = time.perf_counter()
            run = run_doall(
                self.program, self.loop, env, self.plan, sim.num_procs,
                marker=None, value_based=False, schedule=config.schedule,
                engine=reuse_engine,
                values=loop_iteration_values(start, stop, step),
                workers=reuse_workers,
                pool=pool,
                profiles=self.profiles, loop_key=self._loop_key(),
                need_costs=memo is None,
            )
            wall.doall = time.perf_counter() - tick
            finalize = finalize_doall(
                run, env, self.plan, self.loop, start=start, step=step
            )
            if memo is None:
                serial_cycles = serial_loop_cycles(config.model, run.iteration_costs)
                times.private_init = sim.private_init_time(
                    sum(p.size for p in run.privates.values())
                )
                body, dispatch, barrier = sim.doall_time(
                    run.iteration_costs,
                    assignment=(
                        None
                        if config.schedule is ScheduleKind.DYNAMIC
                        else run.assignment
                    ),
                )
                times.body, times.dispatch, times.barrier = body, dispatch, barrier
                times.reduction_merge = sim.reduction_merge_time(
                    finalize.reduction_merged
                )
                times.copy_out = sim.copy_out_time(finalize.copied_out)
                if signature is not None:
                    self._reuse_times[memo_key] = (times.as_dict(), serial_cycles)
            else:
                memo_times, serial_cycles = memo
                times = TimeBreakdown(**memo_times)
            fallback_reason = run.fallback_reason
            engine_used = run.engine_used
            engine_decision = run.engine_decision
            if reuse_engine != config.engine and engine_decision is None:
                engine_decision = (
                    f"schedule reuse: plain re-execution via "
                    f"{run.engine_used} (engines are state- and "
                    f"cost-identical; {config.engine!r} governs the "
                    f"speculative attempt only)"
                )
        else:
            serial_cycles, _ = rerun_loop_serially(
                self.program, self.loop, env, config.model
            )
            times.serial_rerun = serial_cycles
        return ExecutionReport(
            strategy=Strategy.SPECULATIVE.value,
            machine=config.model.name,
            procs=sim.num_procs,
            passed=cached.passed,
            test_result=cached,
            times=times,
            serial_loop_time=serial_cycles,
            env=env,
            reused_schedule=True,
            wall=wall,
            fallbacks=self._fallbacks(fallback_reason),
            engine_used=engine_used,
            engine_decisions=self._decisions(engine_decision),
        )

    def _run_inspector(self, config: RunConfig) -> ExecutionReport:
        sim = DoallSimulator(config.model, config.schedule)
        env, _setup = self._env_at_loop_entry(config.model)
        outcome = run_inspector_executor(
            self.program,
            self.loop,
            env,
            self.plan,
            sim,
            granularity=config.granularity,
            schedule=config.schedule,
            dynamic_last_value=config.dynamic_last_value,
            directional=config.directional,
            engine=config.engine,
            workers=config.workers,
            pool=self._shared_pool(config, sim, env),
            profiles=self.profiles,
            loop_key=self._loop_key(),
        )
        self._finish(env)
        return ExecutionReport(
            strategy=Strategy.INSPECTOR.value,
            machine=config.model.name,
            procs=sim.num_procs,
            passed=outcome.result.passed,
            test_result=outcome.result,
            times=outcome.times,
            serial_loop_time=outcome.serial_cycles,
            env=env,
            stats=outcome.stats,
            fallbacks=self._fallbacks(outcome.fallback_reason),
            engine_used=outcome.engine_used,
            engine_decisions=self._decisions(outcome.engine_decision),
        )

    def _fallbacks(self, reason: str | None) -> list[tuple[str, str]]:
        """Engine-degradation records for the report (empty when none)."""
        if reason is None:
            return []
        return [(self._loop_key(), reason)]

    def _decisions(self, reason: str | None) -> list[tuple[str, str]]:
        """Auto-planner decision records for the report (empty when the
        engine was requested explicitly)."""
        if reason is None:
            return []
        return [(self._loop_key(), reason)]

    def _loop_key(self) -> str:
        return f"{self.program.name}:{self.loop.var}@{self.loop.line}"
