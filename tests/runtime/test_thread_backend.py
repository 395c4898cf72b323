"""Worker-sharded whole-block execution on the thread pool.

``engine="vectorized"`` with an explicit ``workers=N`` shards the lanes
across :class:`ThreadWorkerPool` workers, each marking its own shadow
set, and merges the marks with the paper's cross-processor union.  It
must be observationally identical to the compiled single-process engine:
same LRPD verdicts, same shadow contents (including ``tw``/``tm`` and
the directional stamps), same simulated times and stats, and the same
post-protocol memory — on paper loops, failing loops and strip-mined
runs alike.  Runs cut short by eager detection abort at a worker-local
point, so there only the verdict and the post-protocol environment are
comparable (see :mod:`repro.runtime.parallel_backend`).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.instrument import build_plan
from repro.core.shadow import Granularity, ShadowArray, ShadowMarker
from repro.dsl.parser import parse
from repro.errors import InterpError
from repro.interp.env import Environment
from repro.interp.interpreter import Interpreter
from repro.interp.parallel_spec import ShardSpec, ShardTask, execute_shard
from repro.machine.costmodel import fx80
from repro.machine.schedule import ScheduleKind, assign_iterations
from repro.machine.simulator import DoallSimulator
from repro.runtime.doall import run_doall
from repro.runtime.orchestrator import LoopRunner, RunConfig, Strategy
from repro.runtime.parallel_backend import (
    ThreadShadowArena,
    ThreadWorkerPool,
    partition_procs,
    run_parallel_doall,
)
from repro.runtime.speculative import run_speculative
from repro.workloads import PAPER_LOOPS
from repro.workloads.bdna import build_bdna
from repro.workloads.ocean import build_ocean
from repro.workloads.synthetic import build_dependence_injected

#: every analysis-visible ShadowArray buffer (the parity surface).
#: ``_last_write`` is deliberately absent: it is a marking-time scratch
#: stamp (read-coveredness, tw counting) whose final value reflects the
#: executor's interleaving — the emulation's round-robin order vs the
#: merge's serial-order canonicalization — and nothing reads it after
#: the run.
SHADOW_SURFACE = (
    "w", "r", "np_", "nx", "redux_touched", "multi_w",
    "_min_write", "_max_exposed_read", "_min_exposed_read", "_redux_op",
)


def spec_outcome(workload, engine, *, workers=None, procs=8, eager=False):
    """Run the unstripped protocol, returning (outcome, post-loop env)."""
    runner = LoopRunner(workload.program(), workload.inputs)
    env = Environment(runner.program, runner.inputs)
    Interpreter(runner.program, env, value_based=False).exec_block(runner._before)
    sim = DoallSimulator(fx80().with_procs(procs), ScheduleKind.BLOCK)
    outcome = run_speculative(
        runner.program, runner.loop, env, runner.plan, sim,
        engine=engine, workers=workers, eager=eager,
    )
    return outcome, env


def sharded_outcome(workload, workers, **kwargs):
    """The worker-sharded vectorized run of :func:`spec_outcome`."""
    return spec_outcome(workload, "vectorized", workers=workers, **kwargs)


def assert_env_equal(env_a: Environment, env_b: Environment) -> None:
    assert env_a.scalars == env_b.scalars
    assert env_a.arrays.keys() == env_b.arrays.keys()
    for name in env_a.arrays:
        np.testing.assert_array_equal(env_a.arrays[name], env_b.arrays[name])


def assert_shadows_equal(marker_a: ShadowMarker, marker_b: ShadowMarker) -> None:
    assert marker_a.shadows.keys() == marker_b.shadows.keys()
    for name, shadow_a in marker_a.shadows.items():
        shadow_b = marker_b.shadows[name]
        assert shadow_a.tw == shadow_b.tw, name
        assert shadow_a.tm == shadow_b.tm, name
        for fieldname in SHADOW_SURFACE:
            np.testing.assert_array_equal(
                getattr(shadow_a, fieldname), getattr(shadow_b, fieldname),
                err_msg=f"{name}.{fieldname}",
            )


def assert_full_parity(compiled, sharded, env_compiled, env_sharded):
    """Everything observable must match on runs that complete."""
    assert compiled.result == sharded.result
    assert compiled.times == sharded.times
    assert compiled.stats == sharded.stats
    assert compiled.run.aborted == sharded.run.aborted
    assert compiled.run.executed_iterations == sharded.run.executed_iterations
    assert compiled.run.iteration_costs == sharded.run.iteration_costs
    assert compiled.run.assignment == sharded.run.assignment
    assert_shadows_equal(compiled.run.marker, sharded.run.marker)
    assert_env_equal(env_compiled, env_sharded)


def _plan_env(workload):
    program = workload.program()
    plan = build_plan(program)
    env = Environment(program, workload.inputs)
    return program, plan, env


def _shard_spec(workload):
    program = parse(workload.source)
    plan = build_plan(program)
    env = Environment(program, workload.inputs)
    return ShardSpec.from_plan(program, plan.loop, plan, env, num_procs=8)


# -- parity: paper loops ------------------------------------------------------


@pytest.mark.parametrize(
    "name", ["BDNA_ACTFOR_do240", "MDG_INTERF_do1000", "OCEAN_FTRVMT_do109"]
)
def test_threads_match_fork_and_compiled(name):
    """The thread-sharded run matches the compiled engine and the
    single-process vectorized run (the in-process counterpart that
    replaced the retired fork backend as the second reference)."""
    workload = PAPER_LOOPS[name]()
    compiled, env_c = spec_outcome(workload, "compiled")
    single, env_1 = spec_outcome(workload, "vectorized")
    threads, env_t = sharded_outcome(workload, 3)
    assert_full_parity(compiled, threads, env_c, env_t)
    assert_full_parity(single, threads, env_1, env_t)


def test_copied_out_last_values_match():
    """Dynamic last-value copy-out survives the cross-worker rebuild."""
    workload = PAPER_LOOPS["BDNA_ACTFOR_do240"]()
    compiled, env_c = spec_outcome(workload, "compiled")
    sharded, env_s = sharded_outcome(workload, 4)
    assert compiled.stats["copied_out"] == sharded.stats["copied_out"]
    for name, copies in compiled.run.privates.items():
        other = sharded.run.privates[name]
        np.testing.assert_array_equal(copies.data, other.data, err_msg=name)
        np.testing.assert_array_equal(copies.wstamp, other.wstamp, err_msg=name)


# -- parity: failure and rollback paths ---------------------------------------


def test_failing_loop_full_parity():
    """A failed (non-eager) speculation is still fully bit-identical:
    the doall completes, the analysis fails, rollback + serial rerun."""
    workload = build_dependence_injected(n=80, dep_fraction=0.25)
    compiled, env_c = spec_outcome(workload, "compiled")
    sharded, env_s = sharded_outcome(workload, 2)
    assert not compiled.result.passed and not sharded.result.passed
    assert_full_parity(compiled, sharded, env_c, env_s)


def test_failing_loop_parity():
    workload = build_ocean(nk=150, overlap=True)
    compiled, env_c = spec_outcome(workload, "compiled")
    sharded, env_s = sharded_outcome(workload, 3)
    assert not sharded.result.passed
    assert_full_parity(compiled, sharded, env_c, env_s)


def test_aborted_shard_merges_identically():
    """Eager abort inside a shard: the surviving marks of every shard —
    including the aborted one — must fold back to a fail (mark
    monotonicity under the merge), and the rolled-back + serially
    recomputed memory must match the single-process vectorized run
    exactly."""
    workload = build_dependence_injected(n=80, dep_fraction=0.25)
    single, env_1 = spec_outcome(workload, "vectorized", eager=True)
    sharded, env_s = sharded_outcome(workload, 2, eager=True)
    assert single.run.aborted and sharded.run.aborted
    assert not single.result.passed and not sharded.result.passed
    assert_env_equal(env_1, env_s)


def test_stripped_strategy_parity():
    """The strip pipeline reuses one pool across strips; every strip's
    outcome, the whole-loop verdict, times, stats and memory match."""
    workload = build_dependence_injected(n=120, dep_fraction=0.1)

    def run(engine, workers=None):
        runner = LoopRunner(workload.program(), workload.inputs)
        return runner.run(
            Strategy.STRIPPED,
            RunConfig(engine=engine, workers=workers, strip_size=25),
        )

    compiled = run("compiled")
    sharded = run("vectorized", workers=2)
    assert compiled.passed == sharded.passed
    assert compiled.times == sharded.times
    assert compiled.stats == sharded.stats
    assert [(s.passed, s.aborted, s.iterations) for s in compiled.strips] == [
        (s.passed, s.aborted, s.iterations) for s in sharded.strips
    ]
    assert_env_equal(compiled.env, sharded.env)


def test_whole_block_shards_over_threads():
    """Sharding a whole-block run over two threads is unobservable next
    to the same engine run in one process."""
    single, env_1 = spec_outcome(build_bdna(n=60), "vectorized")
    threads, env_t = sharded_outcome(build_bdna(n=60), 2)
    assert threads.run.engine_used == "vectorized"
    assert_full_parity(single, threads, env_1, env_t)


def test_stripped_pipeline_over_threads():
    def report(workers):
        workload = build_bdna(n=60)
        runner = LoopRunner(workload.program(), workload.inputs)
        cfg = RunConfig(
            model=fx80().with_procs(8), engine="vectorized",
            workers=workers, strip_size=16,
        )
        return runner.run(Strategy.STRIPPED, cfg)

    single = report(None)
    threads = report(2)
    assert threads.times.as_dict() == single.times.as_dict()
    assert threads.stats == single.stats
    for name in single.env.arrays:
        np.testing.assert_array_equal(
            single.env.arrays[name], threads.env.arrays[name], err_msg=name
        )


# -- worker-count edges -------------------------------------------------------


@pytest.mark.parametrize("workers", [1, 3, 16])
def test_worker_count_invariance(workers):
    """The shard partition must not be observable: 1 worker, an uneven
    split, and more workers than virtual processors all agree."""
    workload = PAPER_LOOPS["MDG_INTERF_do1000"]()
    compiled, env_c = spec_outcome(workload, "compiled")
    sharded, env_s = sharded_outcome(workload, workers)
    assert_full_parity(compiled, sharded, env_c, env_s)


def test_partition_procs_contiguous_and_total():
    chunks = partition_procs(8, 3)
    assert [len(c) for c in chunks] == [3, 3, 2]
    assert sorted(p for c in chunks for p in c) == list(range(8))
    assert partition_procs(2, 16) == [[0], [1]]
    with pytest.raises(InterpError):
        partition_procs(8, 0)


# -- in-process shard executor ------------------------------------------------


def test_execute_shard_matches_emulated_doall():
    """One shard owning *all* virtual processors, run in-process, must
    reproduce the emulated doall's private rows, partials, scalars and
    iteration costs exactly."""
    workload = PAPER_LOOPS["BDNA_ACTFOR_do240"]()
    program, plan, env = _plan_env(workload)
    num_procs = 4

    shadow_sizes = {name: env.array_size(name) for name in plan.tested_arrays}
    marker = ShadowMarker(shadow_sizes)
    reference = run_doall(
        program, plan.loop, env.copy(), plan, num_procs, marker=marker
    )

    spec = ShardSpec.from_plan(program, plan.loop, plan, env, num_procs)
    shard_marker = ShadowMarker(shadow_sizes)
    task = ShardTask(
        values=reference.values,
        assignment=reference.assignment,
        procs=list(range(num_procs)),
        env=env.copy(),
        granularity=Granularity.ITERATION,
    )
    result = execute_shard(spec, task, shard_marker)

    assert not result.aborted
    assert result.executed == reference.executed_iterations
    assert_shadows_equal(marker, shard_marker)
    for name, copies in reference.privates.items():
        for proc in range(num_procs):
            data, wstamp = result.private_rows[name][proc]
            np.testing.assert_array_equal(copies.data[proc], data)
            np.testing.assert_array_equal(copies.wstamp[proc], wstamp)
    for name, partials in reference.partials.items():
        maps = partials.proc_maps()
        for proc in range(num_procs):
            assert maps[proc] == result.partial_maps[name][proc]
    for proc in range(num_procs):
        assert reference.proc_envs[proc].scalars == result.proc_scalars[proc]
    rebuilt = {pos: cost for pos, cost in result.iteration_costs}
    for position, cost in enumerate(reference.iteration_costs):
        assert rebuilt[position] == (
            cost.flops, cost.mem_reads, cost.mem_writes, cost.scalar_ops,
            cost.intrinsics, cost.branches, cost.marks,
        )


# -- shadow merge primitives --------------------------------------------------


def test_merge_from_equals_sequential_marking():
    """Marking granules into per-worker shadows and merging must equal
    marking the same accesses into one shadow."""
    size = 16
    sequential = ShadowArray("a", size)
    part_one = ShadowArray("a", size)
    part_two = ShadowArray("a", size)

    # granules 0..3 on worker one, 4..7 on worker two (disjoint granules,
    # overlapping elements — exercises multi_w, np_, tw and the stamps).
    accesses = [
        (0, "w", 3), (0, "r", 5), (1, "w", 3), (1, "r", 3),
        (2, "redux", 7), (3, "w", 9),
        (4, "w", 3), (4, "r", 9), (5, "redux", 7), (6, "w", 5), (7, "r", 3),
    ]
    for granule, kind, index in accesses:
        part = part_one if granule < 4 else part_two
        for shadow in (sequential, part):
            if kind == "w":
                shadow.mark_write(index, granule)
            elif kind == "r":
                shadow.mark_read(index, granule)
            else:
                shadow.mark_redux(index, granule, "+")

    merged = ShadowArray("a", size)
    merged.merge_from([part_one, part_two])
    assert merged.tw == sequential.tw
    assert merged.tm == sequential.tm
    for fieldname in SHADOW_SURFACE:
        np.testing.assert_array_equal(
            getattr(merged, fieldname), getattr(sequential, fieldname),
            err_msg=fieldname,
        )


# -- pool mechanics -----------------------------------------------------------

OOB_SOURCE = """
program oob
  integer i, n
  integer idx(6)
  real a(6)
  do i = 1, n
    a(idx(i)) = a(idx(i)) + 1.0
  end do
end
"""


def test_worker_exception_forwarded_after_drain():
    """A worker error (out-of-bounds subscript -> InterpError) reaches
    the caller only after every worker has replied, so the next doall
    on the same pool reads its own replies, not stale ones."""
    program = parse(OOB_SOURCE)
    plan = build_plan(program)

    def env_for(idx):
        return Environment(
            program, {"n": 6, "idx": np.array(idx), "a": np.zeros(6)}
        )

    shadow_sizes = {name: 6 for name in plan.tested_arrays}
    good = env_for([1, 2, 3, 4, 5, 6])
    spec = ShardSpec.from_plan(program, plan.loop, plan, good, 4)
    with ThreadWorkerPool(spec, workers=2) as pool:
        with pytest.raises(InterpError, match="out of bounds"):
            run_parallel_doall(
                program, plan.loop, env_for([1, 2, 99, 4, 5, 6]), plan, 4,
                marker=ShadowMarker(shadow_sizes), pool=pool,
            )
        assert all(outbox.empty() for outbox in pool._outboxes)

        marker = ShadowMarker(shadow_sizes)
        run = run_parallel_doall(
            program, plan.loop, good.copy(), plan, 4, marker=marker, pool=pool,
        )
        ref_marker = ShadowMarker(shadow_sizes)
        reference = run_doall(
            program, plan.loop, good.copy(), plan, 4, marker=ref_marker
        )
        assert run.executed_iterations == run.num_iterations == 6
        assert run.iteration_costs == reference.iteration_costs
        assert_shadows_equal(ref_marker, marker)


def test_pool_reuse_and_mismatch():
    """One pool serves several doalls; a processor-count mismatch is
    rejected; close() is idempotent."""
    workload = PAPER_LOOPS["BDNA_ACTFOR_do240"]()
    program, plan, env = _plan_env(workload)
    shadow_sizes = {name: env.array_size(name) for name in plan.tested_arrays}
    spec = ShardSpec.from_plan(program, plan.loop, plan, env, 4)
    with ThreadWorkerPool(spec, workers=2) as pool:
        for _ in range(2):
            marker = ShadowMarker(shadow_sizes)
            run = run_parallel_doall(
                program, plan.loop, env.copy(), plan, 4, marker=marker, pool=pool
            )
            assert run.executed_iterations == run.num_iterations
        with pytest.raises(InterpError, match="sharded for p="):
            run_parallel_doall(
                program, plan.loop, env.copy(), plan, 8,
                marker=ShadowMarker(shadow_sizes), pool=pool,
            )
    pool.close()  # idempotent


def test_unmarked_executor_run():
    """marker=None (schedule-reuse / inspector executor) works and the
    assignment/iteration counts match the emulated engine."""
    workload = PAPER_LOOPS["OCEAN_FTRVMT_do109"]()
    program, plan, env = _plan_env(workload)
    reference = run_doall(
        program, plan.loop, env.copy(), plan, 4, marker=None, value_based=False
    )
    run = run_parallel_doall(
        program, plan.loop, env.copy(), plan, 4,
        marker=None, value_based=False, workers=2,
    )
    assert run.assignment == reference.assignment
    assert run.iteration_costs == reference.iteration_costs
    assert run.executed_iterations == reference.executed_iterations


def test_dynamic_schedule_parity():
    """DYNAMIC scheduling (emulated as a cyclic deal) shards identically."""
    workload = PAPER_LOOPS["MDG_INTERF_do1000"]()
    program, plan, env = _plan_env(workload)
    shadow_sizes = {name: env.array_size(name) for name in plan.tested_arrays}

    def one(engine):
        marker = ShadowMarker(shadow_sizes)
        run = run_doall(
            program, plan.loop, env.copy(), plan, 4, marker=marker,
            schedule=ScheduleKind.DYNAMIC, engine=engine, workers=2,
        )
        return run, marker

    ref_run, ref_marker = one("compiled")
    sharded_run, sharded_marker = one("vectorized")
    expected = assign_iterations(
        len(ref_run.values), 4, ScheduleKind.CYCLIC
    )
    assert ref_run.assignment == expected == sharded_run.assignment
    assert ref_run.iteration_costs == sharded_run.iteration_costs
    assert_shadows_equal(ref_marker, sharded_marker)


class TestPoolFactory:
    def test_pool_reuse_across_runs(self):
        """One pool, many doalls — the strip-mined pipeline's pattern."""
        spec = _shard_spec(build_bdna(n=60))
        with ThreadWorkerPool(spec, 2) as pool:
            for _ in range(3):
                assert pool.num_workers == 2

    def test_arena_close_is_idempotent(self):
        arena = ThreadShadowArena({"a": 16}, workers=2)
        assert len(arena.markers) == 2
        arena.close()
        arena.close()

    def test_pool_close_is_idempotent(self):
        pool = ThreadWorkerPool(_shard_spec(build_bdna(n=40)), 2)
        pool.close()
        pool.close()


class TestConfigValidation:
    def test_run_config_rejects_unknown_backend(self):
        """The worker-pool flavour knob is gone: ``backend`` is not a
        RunConfig field at all."""
        with pytest.raises(TypeError, match="backend"):
            RunConfig(backend="threads")
