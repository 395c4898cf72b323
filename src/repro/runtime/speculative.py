"""Speculative execution strategies (the paper's §III protocol and the
strip-mined R-LRPD-style pipeline).

:func:`run_speculative` is the paper's all-or-nothing protocol:
checkpoint → marked doall (with privatization and reduction transforms
applied speculatively) → LRPD analysis → on pass, merge private state; on
fail, restore the checkpoint and re-execute serially.  The paper's key
property holds by construction: a failed speculation costs roughly the
serial execution plus the (parallelizable) attempt and rollback overhead.

:class:`SpeculationPipeline` strip-mines that protocol: the iteration
space is partitioned into strips that are speculated, tested and
*committed* one at a time, in serial order.  A failed strip rolls back
and re-executes only itself serially before speculation resumes, so
misspeculation loss is bounded by one strip and loops that are only
*partially* parallel (a dependence cluster somewhere in the iteration
space) still extract speedup from their parallel regions — the
R-LRPD-style sliding commit later work built on the paper's protocol.
Cross-strip dependences need no test at all: strips commit in serial
order, so a later strip always reads earlier strips' committed values.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.instrument import InstrumentationPlan
from repro.core.checkpoint import Checkpoint
from repro.core.lrpd import StripAggregator, analyze_shadows
from repro.core.outcomes import LrpdResult, TestMode
from repro.core.shadow import Granularity, ShadowMarker
from repro.dsl.ast_nodes import Do, Program
from repro.errors import SpeculationError
from repro.interp.env import Environment
from repro.interp.interpreter import Interpreter
from repro.machine.schedule import ScheduleKind
from repro.machine.simulator import DoallSimulator
from repro.machine.stats import StripRecord, TimeBreakdown, WallClock
from repro.runtime.doall import DoallRun, finalize_doall, run_doall
from repro.runtime.serial import (
    loop_iteration_values,
    rerun_loop_serially,
    rerun_values_serially,
    serial_loop_cycles,
)


@dataclass
class SpeculativeOutcome:
    """What one speculative attempt produced."""

    result: LrpdResult
    times: TimeBreakdown
    run: DoallRun
    stats: dict[str, float]
    #: measured wall-clock seconds per phase (real host time, recorded
    #: for every engine).
    wall: WallClock = field(default_factory=WallClock)
    #: the DOACROSS recovery tier's go/veto rationale (None when the run
    #: passed or recovery was not requested).
    recovery_decision: str | None = None
    #: simulated cycles of the loop run serially (the speedup
    #: denominator), taken from this run: the doall's own iteration
    #: costs on a pass, the serial re-execution on a fail.
    serial_cycles: float = 0.0


def _plan_recovery(marker: ShadowMarker, run: DoallRun, granularity: Granularity):
    """Resolve the recovery engine and its go/veto for one failed region.

    Must be called while the failed attempt's shadow stamps are still
    intact (before the marker is reset for a next strip).  Returns
    ``(engine, distance, reason)`` with ``distance`` None on a veto.
    """
    from repro.analysis.dependence import measure_shadow_distances
    from repro.runtime.engines import recovery_engine

    engine = recovery_engine()
    report = measure_shadow_distances(marker, run.num_iterations)
    distance, reason = engine.recovery_decision(
        report, aborted=run.aborted, granularity=granularity
    )
    return engine, distance, reason


def run_speculative(
    program: Program,
    loop: Do,
    env: Environment,
    plan: InstrumentationPlan,
    sim: DoallSimulator,
    *,
    test_mode: TestMode = TestMode.LRPD,
    granularity: Granularity = Granularity.ITERATION,
    schedule: ScheduleKind = ScheduleKind.BLOCK,
    dynamic_last_value: bool = True,
    directional: bool = True,
    eager: bool = False,
    engine: str = "compiled",
    marker: ShadowMarker | None = None,
    workers: int | None = None,
    pool=None,
    profiles=None,
    loop_key: str | None = None,
    recovery: bool = False,
) -> SpeculativeOutcome:
    """Run the full speculative protocol; ``env`` must be at loop entry.

    On return ``env`` holds the post-loop state regardless of the test's
    outcome (merged on pass, restored + serially recomputed on fail).
    With ``recovery`` a failed test measures the shadow dependence
    distances first and — unless the deterministic veto fires — prices
    the re-execution as a pipelined DOACROSS instead of a serial re-run;
    the re-executed state is bit-identical either way.

    ``engine`` selects the doall iteration executor (see
    :func:`repro.runtime.doall.run_doall`); ``workers``/``pool`` are the
    thread-pool worker count / persistent worker pool that shard the
    ``vectorized`` lanes.
    ``marker`` optionally recycles a previous attempt's shadow buffers
    (reset in place instead of reallocating seven numpy arrays per
    tested array); it must have been built for the same tested arrays
    and sizes, else a fresh one is made.
    """
    if granularity is Granularity.PROCESSOR and schedule is not ScheduleKind.BLOCK:
        raise SpeculationError(
            "the processor-wise test requires block scheduling (granule "
            "numbering must follow serial order)"
        )
    times = TimeBreakdown()
    wall = WallClock()
    stats: dict[str, float] = {}

    # Scope the checkpoint to the arrays the instrumentation plan marks
    # as written (tested and reduction arrays are written arrays too, so
    # they stay covered) — arrays the loop only reads are never saved.
    tick = time.perf_counter()
    protected = set(plan.checkpoint_arrays)
    checkpoint = Checkpoint(env, protected)
    wall.checkpoint = time.perf_counter() - tick
    times.checkpoint = sim.checkpoint_time(checkpoint.elements_saved)
    stats["checkpoint_elements"] = float(checkpoint.elements_saved)

    shadow_sizes = {name: env.array_size(name) for name in plan.tested_arrays}
    eager_enabled = (
        eager
        and test_mode is TestMode.LRPD
        and granularity is Granularity.ITERATION
        and directional
        and dynamic_last_value
    )
    if marker is not None and {
        name: shadow.size for name, shadow in marker.shadows.items()
    } == shadow_sizes:
        marker.reset(granularity, eager=eager_enabled)
    else:
        marker = ShadowMarker(
            shadow_sizes, granularity=granularity, eager=eager_enabled
        )
    times.shadow_init = sim.shadow_init_time(sum(shadow_sizes.values()))

    bounds_interp = Interpreter(program, env, value_based=False)
    start, stop, step = bounds_interp.eval_loop_bounds(loop)
    tick = time.perf_counter()
    run = run_doall(
        program,
        loop,
        env,
        plan,
        sim.num_procs,
        marker=marker,
        value_based=(test_mode is TestMode.LRPD),
        schedule=schedule,
        engine=engine,
        values=loop_iteration_values(start, stop, step),
        workers=workers,
        pool=pool,
        profiles=profiles,
        loop_key=loop_key,
    )
    wall.doall = time.perf_counter() - tick
    times.private_init = sim.private_init_time(
        sum(p.size for p in run.privates.values())
    )
    body, dispatch, barrier = sim.doall_time(
        run.iteration_costs,
        assignment=None if schedule is ScheduleKind.DYNAMIC else run.assignment,
    )
    times.body, times.dispatch, times.barrier = body, dispatch, barrier

    tick = time.perf_counter()
    result = analyze_shadows(
        marker,
        test_mode,
        dynamic_last_value=dynamic_last_value,
        directional=directional,
    )
    wall.analysis = time.perf_counter() - tick
    if run.aborted:
        # On-the-fly detection already decided: no analysis phase runs.
        assert not result.passed, "eager abort must imply a failing analysis"
        times.analysis = 0.0
        stats["aborted_after"] = float(run.executed_iterations)
    else:
        times.analysis = sim.analysis_time(sum(shadow_sizes.values()))

    stats["marks"] = float(sum(c.marks for c in run.iteration_costs))
    stats["iterations"] = float(run.num_iterations)

    if result.passed:
        tick = time.perf_counter()
        finalize = finalize_doall(run, env, plan, loop, start=start, step=step)
        wall.commit = time.perf_counter() - tick
        times.reduction_merge = sim.reduction_merge_time(finalize.reduction_merged)
        times.copy_out = sim.copy_out_time(finalize.copied_out)
        stats["reduction_merged"] = float(finalize.reduction_merged)
        stats["copied_out"] = float(finalize.copied_out)
        serial_cycles = serial_loop_cycles(sim.model, run.iteration_costs)
    else:
        recovery_decision = None
        rec_engine = None
        distance = None
        if recovery:
            rec_engine, distance, recovery_decision = _plan_recovery(
                marker, run, granularity
            )
        tick = time.perf_counter()
        checkpoint.restore()
        times.restore = sim.restore_time(checkpoint.elements_saved)
        if distance is not None:
            rec = rec_engine.recover(program, loop, env, sim, distance=distance)
            times.doacross = rec.time.total
            serial_cycles = rec.serial_equivalent
            stats["recovered_iterations"] = float(rec.iterations)
            stats["recovery_distance"] = float(distance)
            stats["recovery_sync_waits"] = float(rec.time.sync_waits)
            stats["recovery_sync_wait_cycles"] = rec.time.sync_wait_cycles
            stats["recovered_fraction"] = rec.recovered_fraction
        else:
            serial_cycles, _costs = rerun_loop_serially(program, loop, env, sim.model)
            times.serial_rerun = serial_cycles
            if recovery:
                stats["recovered_fraction"] = 0.0
        wall.rollback = time.perf_counter() - tick
        return SpeculativeOutcome(
            result=result, times=times, run=run, stats=stats, wall=wall,
            recovery_decision=recovery_decision, serial_cycles=serial_cycles,
        )

    return SpeculativeOutcome(
        result=result, times=times, run=run, stats=stats, wall=wall,
        serial_cycles=serial_cycles,
    )


# ---------------------------------------------------------------------------
# Strip-mined speculation
# ---------------------------------------------------------------------------


class FixedStripSizer:
    """The trivial strip-sizing policy: every strip has the same size."""

    def __init__(self, size: int):
        if size < 1:
            raise SpeculationError("strip size must be >= 1")
        self.size = size

    def next_size(self) -> int:
        return self.size

    def record(self, passed: bool) -> None:  # noqa: ARG002 - policy hook
        return None


@dataclass
class PipelineOutcome:
    """What one strip-mined execution produced."""

    #: aggregate whole-loop verdict (see :class:`StripAggregator`):
    #: ``passed`` means no strip needed its rollback.
    result: LrpdResult
    #: field-wise sum of the per-strip breakdowns.
    times: TimeBreakdown
    #: per-strip accounting, in commit order.
    strips: list[StripRecord] = field(default_factory=list)
    stats: dict[str, float] = field(default_factory=dict)
    #: the (recyclable) shadow marker of the last strip.
    marker: ShadowMarker | None = None
    #: measured wall-clock phase durations, summed over the strips.
    wall: WallClock = field(default_factory=WallClock)
    #: first recorded engine-fallback reason across the strips (set when
    #: ``engine="vectorized"`` degraded to compiled; kept out of
    #: ``stats`` so engine parity over stats still holds).
    fallback_reason: str | None = None
    #: the engine that executed the first strip's doall.
    engine_used: str | None = None
    #: the ``auto`` planner's rationale for the first strip (None for
    #: explicit engine requests).
    engine_decision: str | None = None
    #: first recorded DOACROSS recovery go/veto rationale across the
    #: failed strips (None when no strip failed or recovery was off).
    recovery_decision: str | None = None
    #: simulated cycles of the loop run serially, summed strip by strip
    #: as in :attr:`SpeculativeOutcome.serial_cycles`.
    serial_cycles: float = 0.0


class SpeculationPipeline:
    """Windowed LRPD: speculate, test and commit one strip at a time.

    Each strip runs the full protocol of :func:`run_speculative` over its
    slice of the iteration space, with three strip-scoped twists:

    * the checkpoint saves only the state the strip's doall can write *in
      place*: written arrays that are neither privatized (tested) nor
      reduction-transformed — those two classes buffer their speculative
      writes in private copies / partial accumulators and touch shared
      storage only during the post-test commit, so a failed strip leaves
      them untouched;
    * the per-strip analysis and the between-strip shadow reset are
      priced over the strip's *touched* elements (a touched-element list
      maintained while marking), not the full shadow size;
    * on a pass the strip commits immediately (reduction merge, dynamic
      last-value copy-out, live-out scalars), on a fail it restores the
      strip checkpoint and re-executes *only its own iterations*
      serially — then speculation resumes with the next strip.

    Strips commit in serial order, so a dependence whose source and sink
    fall into different strips is honored without ever being tested:
    the sink's strip reads the committed value.  Only intra-strip
    dependences can fail a strip, which is what bounds misspeculation
    loss to one strip and makes partially parallel loops profitable.

    The shadow marker is recycled across strips (reset in place), and the
    per-strip privatization copy-in re-reads the committed shared state,
    which is exactly the copy-in semantics the paper's privatization
    defines.
    """

    def __init__(
        self,
        program: Program,
        loop: Do,
        env: Environment,
        plan: InstrumentationPlan,
        sim: DoallSimulator,
        *,
        sizer: FixedStripSizer,
        test_mode: TestMode = TestMode.LRPD,
        granularity: Granularity = Granularity.ITERATION,
        schedule: ScheduleKind = ScheduleKind.BLOCK,
        dynamic_last_value: bool = True,
        directional: bool = True,
        eager: bool = False,
        engine: str = "compiled",
        marker: ShadowMarker | None = None,
        workers: int | None = None,
        pool=None,
        profiles=None,
        loop_key: str | None = None,
        recovery: bool = False,
    ):
        if granularity is Granularity.PROCESSOR and schedule is not ScheduleKind.BLOCK:
            raise SpeculationError(
                "the processor-wise test requires block scheduling (granule "
                "numbering must follow serial order)"
            )
        self.program = program
        self.loop = loop
        self.env = env
        self.plan = plan
        self.sim = sim
        self.sizer = sizer
        self.test_mode = test_mode
        self.granularity = granularity
        self.schedule = schedule
        self.dynamic_last_value = dynamic_last_value
        self.directional = directional
        self.eager = eager
        self.engine = engine
        self.workers = workers
        #: a caller-owned persistent worker pool (e.g. from a
        #: :class:`~repro.runtime.parallel_backend.WorkerPoolCache` kept
        #: across requests); when None and the engine shards, an
        #: ephemeral pool is built for this run and closed after it.
        self.pool = pool
        self.profiles = profiles
        self.loop_key = loop_key
        #: re-execute failed strips as pipelined DOACROSSes when their
        #: measured dependence distances allow it (see run_speculative).
        self.recovery = recovery
        self._marker = marker

    # -- pieces --------------------------------------------------------------

    def _strip_checkpoint_arrays(self) -> set[str]:
        """Arrays the strip's doall mutates in place (see class docs)."""
        plan = self.plan
        return (
            set(plan.checkpoint_arrays)
            - set(plan.tested_arrays)
            - set(plan.reduction_arrays)
        )

    def _prepare_marker(self, shadow_sizes: dict[str, int], eager_enabled: bool) -> ShadowMarker:
        marker = self._marker
        if marker is not None and {
            name: shadow.size for name, shadow in marker.shadows.items()
        } == shadow_sizes:
            marker.reset(self.granularity, eager=eager_enabled)
        else:
            marker = ShadowMarker(
                shadow_sizes, granularity=self.granularity, eager=eager_enabled
            )
        return marker

    @staticmethod
    def _touched_elements(marker: ShadowMarker) -> int:
        """Distinct elements the strip marked (the touched list's length)."""
        return sum(
            int(np.count_nonzero(shadow.w | shadow.r))
            for shadow in marker.shadows.values()
        )

    # -- execution -----------------------------------------------------------

    def run(self) -> PipelineOutcome:
        """Run the whole loop; ``env`` must be at loop entry.

        On return ``env`` holds the exact serial post-loop state: passed
        strips committed their speculative state in order, failed strips
        were rolled back and re-executed serially in place.

        When the engine may shard over workers (a registry capability
        query — see
        :meth:`~repro.runtime.engines.registry.EngineRegistry.needs_worker_pool`)
        one persistent worker pool is reused for every strip: a
        caller-provided ``pool`` if one was passed (kept alive for the
        caller's next run), else a pool built here on the first strip
        that shards (a :class:`~repro.runtime.parallel_backend.LazyWorkerPool`;
        none is built when every strip runs in-process) and closed on
        the way out even when a strip aborts or a worker raises.
        """
        from repro.runtime.engines import needs_worker_pool

        if self.pool is not None:
            return self._run(self.pool)
        owned = None
        if needs_worker_pool(self.engine, self.workers):
            from repro.runtime.parallel_backend import (
                LazyWorkerPool,
                ShardSpec,
                ThreadWorkerPool,
            )

            owned = LazyWorkerPool(lambda: ThreadWorkerPool(
                ShardSpec.from_plan(
                    self.program, self.loop, self.plan, self.env,
                    self.sim.num_procs,
                ),
                self.workers,
            ))
        try:
            return self._run(owned)
        finally:
            if owned is not None:
                owned.close()

    def _run(self, pool) -> PipelineOutcome:
        env, plan, sim = self.env, self.plan, self.sim
        bounds_interp = Interpreter(self.program, env, value_based=False)
        start, stop, step = bounds_interp.eval_loop_bounds(self.loop)
        values = loop_iteration_values(start, stop, step)

        shadow_sizes = {name: env.array_size(name) for name in plan.tested_arrays}
        eager_enabled = (
            self.eager
            and self.test_mode is TestMode.LRPD
            and self.granularity is Granularity.ITERATION
            and self.directional
            and self.dynamic_last_value
        )
        strip_protected = self._strip_checkpoint_arrays()
        aggregator = StripAggregator(self.test_mode, self.granularity)
        strips: list[StripRecord] = []
        total = TimeBreakdown()
        stats: dict[str, float] = {
            "iterations": float(len(values)),
            "marks": 0.0,
            "reduction_merged": 0.0,
            "copied_out": 0.0,
            "serial_iterations": 0.0,
            "aborted_strips": 0.0,
        }

        marker: ShadowMarker | None = None
        total_wall = WallClock()
        prev_touched = 0
        fallback_reason: str | None = None
        engine_used: str | None = None
        engine_decision: str | None = None
        recovery_decision: str | None = None
        #: failed-strip cost under the chosen policy vs its plain serial
        #: equivalent — the aggregate recovered fraction's numerator and
        #: denominator (vetoed strips contribute their serial time to
        #: both, pulling the fraction toward zero).
        recovery_cycles = 0.0
        serial_equiv = 0.0
        serial_cycles = 0.0
        pos = 0
        while pos < len(values):
            size = max(1, int(self.sizer.next_size()))
            strip_values = values[pos : pos + size]
            pos += len(strip_values)
            times = TimeBreakdown()
            wall = WallClock()

            tick = time.perf_counter()
            checkpoint = Checkpoint(env, strip_protected)
            wall.checkpoint = time.perf_counter() - tick
            times.checkpoint = sim.checkpoint_time(checkpoint.elements_saved)
            stats["checkpoint_elements"] = float(checkpoint.elements_saved)

            if marker is None:
                # First strip: allocate (or recycle a donated marker) and
                # pay the full shadow initialization, as the unstripped
                # protocol would.
                marker = self._prepare_marker(shadow_sizes, eager_enabled)
                times.shadow_init = sim.shadow_init_time(sum(shadow_sizes.values()))
            else:
                marker.reset(self.granularity, eager=eager_enabled)
                times.shadow_init = sim.strip_reset_time(prev_touched)

            tick = time.perf_counter()
            run = run_doall(
                self.program,
                self.loop,
                env,
                plan,
                sim.num_procs,
                marker=marker,
                value_based=(self.test_mode is TestMode.LRPD),
                schedule=self.schedule,
                engine=self.engine,
                values=strip_values,
                workers=self.workers,
                pool=pool,
                profiles=self.profiles,
                loop_key=self.loop_key,
            )
            wall.doall = time.perf_counter() - tick
            times.private_init = sim.private_init_time(
                sum(p.size for p in run.privates.values())
            )
            body, dispatch, barrier = sim.doall_time(
                run.iteration_costs,
                assignment=(
                    None if self.schedule is ScheduleKind.DYNAMIC else run.assignment
                ),
            )
            times.body, times.dispatch, times.barrier = body, dispatch, barrier

            tick = time.perf_counter()
            result = analyze_shadows(
                marker,
                self.test_mode,
                dynamic_last_value=self.dynamic_last_value,
                directional=self.directional,
            )
            wall.analysis = time.perf_counter() - tick
            touched = self._touched_elements(marker)
            if run.aborted:
                assert not result.passed, "eager abort must imply a failing analysis"
                times.analysis = 0.0
                stats["aborted_strips"] += 1.0
            else:
                times.analysis = sim.strip_analysis_time(touched)
            stats["marks"] += float(sum(c.marks for c in run.iteration_costs))
            strip_recovered = False

            if result.passed:
                tick = time.perf_counter()
                finalize = finalize_doall(
                    run, env, plan, self.loop, start=start, step=step
                )
                wall.commit = time.perf_counter() - tick
                times.reduction_merge = sim.reduction_merge_time(
                    finalize.reduction_merged
                )
                times.copy_out = sim.copy_out_time(finalize.copied_out)
                stats["reduction_merged"] += float(finalize.reduction_merged)
                stats["copied_out"] += float(finalize.copied_out)
                serial_cycles += serial_loop_cycles(sim.model, run.iteration_costs)
            else:
                rec_engine = None
                distance = None
                if self.recovery:
                    rec_engine, distance, strip_decision = _plan_recovery(
                        marker, run, self.granularity
                    )
                    if recovery_decision is None:
                        recovery_decision = strip_decision
                tick = time.perf_counter()
                checkpoint.restore()
                times.restore = sim.restore_time(checkpoint.elements_saved)
                if distance is not None:
                    rec = rec_engine.recover(
                        self.program, self.loop, env, sim,
                        distance=distance, values=strip_values, step=step,
                    )
                    times.doacross = rec.time.total
                    strip_recovered = True
                    recovery_cycles += rec.time.total
                    serial_equiv += rec.serial_equivalent
                    serial_cycles += rec.serial_equivalent
                    stats["recovered_iterations"] = (
                        stats.get("recovered_iterations", 0.0)
                        + float(rec.iterations)
                    )
                    stats["recovery_sync_waits"] = (
                        stats.get("recovery_sync_waits", 0.0)
                        + float(rec.time.sync_waits)
                    )
                    stats["recovery_sync_wait_cycles"] = (
                        stats.get("recovery_sync_wait_cycles", 0.0)
                        + rec.time.sync_wait_cycles
                    )
                    stats["recovery_distance"] = min(
                        stats.get("recovery_distance", float(distance)),
                        float(distance),
                    )
                else:
                    serial_time, _costs = rerun_values_serially(
                        self.program, self.loop, env, sim.model,
                        strip_values, step,
                    )
                    times.serial_rerun = serial_time
                    serial_cycles += serial_time
                    stats["serial_iterations"] += float(len(strip_values))
                    if self.recovery:
                        recovery_cycles += serial_time
                        serial_equiv += serial_time
                wall.rollback = time.perf_counter() - tick

            aggregator.add_strip(marker, result, recovered=strip_recovered)
            self.sizer.record(result.passed)
            strips.append(
                StripRecord(
                    index=len(strips),
                    first_value=strip_values[0],
                    iterations=len(strip_values),
                    strip_size=size,
                    passed=result.passed,
                    aborted=run.aborted,
                    times=times,
                    recovered=strip_recovered,
                )
            )
            total = total.merged_with(times)
            total_wall = total_wall.merged_with(wall)
            prev_touched = touched
            if fallback_reason is None and run.fallback_reason is not None:
                fallback_reason = run.fallback_reason
            if engine_used is None:
                engine_used = run.engine_used
                engine_decision = run.engine_decision

        if not values:
            # An empty range runs no strip; the variable still takes its
            # start value, as the serial loop leaves it.
            env.set_scalar(self.loop.var, start)
        stats["strips"] = float(aggregator.strips)
        stats["strips_failed"] = float(aggregator.strips_failed)
        if self.recovery:
            stats["strips_recovered"] = float(aggregator.strips_recovered)
            if aggregator.strips_failed and serial_equiv > 0.0:
                stats["recovered_fraction"] = max(
                    0.0, 1.0 - recovery_cycles / serial_equiv
                )
        return PipelineOutcome(
            result=aggregator.result(),
            times=total,
            strips=strips,
            stats=stats,
            marker=marker,
            wall=total_wall,
            fallback_reason=fallback_reason,
            engine_used=engine_used,
            engine_decision=engine_decision,
            recovery_decision=recovery_decision,
            serial_cycles=serial_cycles,
        )
