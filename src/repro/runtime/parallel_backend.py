"""Worker-sharded whole-block execution on a thread pool.

Where the single-process engines run all ``p`` virtual processors of a
marked doall in one executor, this backend shards them across
``threading`` workers (reached through ``engine="vectorized"`` with an
explicit ``workers=N``):

* the ``p`` virtual processors of the machine model are partitioned into
  contiguous blocks, one block per worker (``workers`` is an execution
  resource, independent of the simulated processor count);
* each worker owns a full in-process shadow set for the tested arrays
  and a clone of the loop-entry environment;
* each worker runs its processors' lanes through
  :func:`repro.interp.parallel_spec.execute_shard` — the vectorized
  whole-block lowering, or the per-iteration compiled path when the
  lowering bails — with private copies, reduction partials and
  per-processor scalars included;
* after the join, the parent performs the paper's cross-processor merge
  (:meth:`repro.core.shadow.ShadowArray.merge_from`: OR/union of the
  mark bits, summed ``tw``, merged ``tm`` stamps) into the caller's
  marker and reconstructs a :class:`~repro.runtime.doall.DoallRun` that
  the existing LRPD analysis and commit machinery consume unchanged.

The reconstruction is bit-identical to the single-process engines for
every analysis-visible quantity (shadow contents, ``tw``/``tm``, private
rows and write stamps, reduction partials, per-processor scalars,
iteration costs and the derived simulated times) on runs that complete.
Runs cut short by eager (on-the-fly) detection abort at a worker-local
point rather than the emulation's global round-robin point, so only the
verdict (always "fail", guaranteed by mark monotonicity under the merge)
and the post-protocol environment are comparable there.

A persistent :class:`ThreadWorkerPool` amortizes thread start-up and
shadow allocation across the strips of a strip-mined run, and a
:class:`WorkerPoolCache` across the requests a long-lived runner serves.
"""

from __future__ import annotations

import dataclasses
import queue
import threading

import numpy as np

from repro.analysis.instrument import InstrumentationPlan
from repro.core.privatize import PrivateCopies
from repro.core.reduction_exec import REDUCTION_IDENTITY, ReductionPartials
from repro.core.shadow import Granularity, ShadowArray, ShadowMarker
from repro.dsl.ast_nodes import Do, Program
from repro.errors import InterpError
from repro.interp.costs import IterationCost
from repro.interp.env import Environment
from repro.interp.interpreter import Interpreter
from repro.interp.parallel_spec import (
    ShardResult,
    ShardSpec,
    ShardTask,
    execute_shard,
)
from repro.machine.schedule import ScheduleKind, assign_iterations
from repro.runtime.doall import DoallRun
from repro.runtime.serial import loop_iteration_values


def partition_procs(num_procs: int, workers: int) -> list[list[int]]:
    """Deal the virtual processors into contiguous per-worker blocks.

    Empty blocks (``workers > num_procs``) are dropped, so the result's
    length is the *effective* worker count.
    """
    if num_procs < 1:
        raise InterpError("cannot shard a doall across zero processors")
    if workers < 1:
        raise InterpError("parallel backend needs at least one worker")
    return [
        chunk.tolist()
        for chunk in np.array_split(np.arange(num_procs), min(workers, num_procs))
        if chunk.size
    ]


class ThreadShadowArena:
    """Per-worker shadow sets as plain in-process :class:`ShadowArray`\\ s.

    One :class:`ShadowMarker` per worker; the parent's
    :func:`_merge_results` reads them directly after the join.
    """

    def __init__(self, shadow_sizes: dict[str, int], workers: int):
        self.shadow_sizes = dict(shadow_sizes)
        self.markers: list[ShadowMarker] = [
            ShadowMarker.from_shadows({
                name: ShadowArray(name, size)
                for name, size in sorted(self.shadow_sizes.items())
            })
            for _ in range(workers)
        ]

    def close(self) -> None:
        """Drop the markers (idempotent; nothing external to release)."""
        self.markers.clear()


def _thread_worker_main(spec: ShardSpec, marker: ShadowMarker, inbox, outbox):
    """One worker's serve loop: take a :class:`ShardTask`, run it, reply.

    Replies are ``("ok", ShardResult)`` or ``("error", exception)``; the
    loop exits on a ``None`` sentinel.  A thread shares the parent's
    address space, so the task's environment is cloned here — otherwise
    the shard's in-place writes would mutate the parent environment
    directly *and* come back again through ``shared_writes`` in the
    merge.  The worker's marker is reset here, per task, so the parent
    never races a worker on the buffers.
    """
    while True:
        task = inbox.get()
        if task is None:
            return
        try:
            task = dataclasses.replace(task, env=task.env.copy())
            if task.marking:
                marker.reset(task.granularity, eager=task.eager)
                result = execute_shard(spec, task, marker)
            else:
                result = execute_shard(spec, task, None)
            reply = ("ok", result)
        except BaseException as exc:  # noqa: BLE001 - forwarded to parent
            reply = ("error", exc)
        outbox.put(reply)


class ThreadWorkerPool:
    """A persistent set of ``threading`` shard workers.

    Built once and reused across doalls of the same loop (the strip
    pipeline sends every strip through the same pool), which amortizes
    thread start-up and shadow allocation.  :meth:`close` the pool — it
    is also a context manager — to join the workers.
    """

    def __init__(self, spec: ShardSpec, workers: int):
        self.spec = spec
        self.chunks = partition_procs(spec.num_procs, workers)
        self.num_workers = len(self.chunks)
        self.arena = ThreadShadowArena(spec.shadow_sizes, self.num_workers)
        self._inboxes: list[queue.SimpleQueue] = []
        self._outboxes: list[queue.SimpleQueue] = []
        self._threads: list[threading.Thread] = []
        for marker in self.arena.markers:
            inbox: queue.SimpleQueue = queue.SimpleQueue()
            outbox: queue.SimpleQueue = queue.SimpleQueue()
            thread = threading.Thread(
                target=_thread_worker_main,
                args=(spec, marker, inbox, outbox),
                daemon=True,
            )
            thread.start()
            self._inboxes.append(inbox)
            self._outboxes.append(outbox)
            self._threads.append(thread)

    def __enter__(self) -> "ThreadWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run(self, tasks: list[ShardTask]) -> list[ShardResult]:
        """Dispatch one task per worker; gather results in worker order.

        All replies are drained before any forwarded worker exception is
        re-raised, so the pool stays reusable after a failed doall.
        """
        if len(tasks) != self.num_workers:
            raise InterpError(
                f"pool of {self.num_workers} workers got {len(tasks)} shard tasks"
            )
        for inbox, task in zip(self._inboxes, tasks):
            inbox.put(task)
        results: list[ShardResult] = []
        errors: list[BaseException] = []
        for outbox in self._outboxes:
            status, payload = outbox.get()
            if status == "ok":
                results.append(payload)
            else:
                errors.append(payload)
        if errors:
            raise errors[0]
        return results

    def close(self) -> None:
        """Join the worker threads and drop the arena (idempotent)."""
        inboxes, self._inboxes = self._inboxes, []
        threads, self._threads = self._threads, []
        self._outboxes = []
        for inbox in inboxes:
            inbox.put(None)
        for thread in threads:
            thread.join(timeout=5.0)
        self.arena.close()


class LazyWorkerPool:
    """A worker pool built when a doall first shards onto it.

    The strip pipeline and the runner's pool cache hand this to every
    doall of a worker run.  Whether a doall shards is the engine
    planner's call, made per doall: ``auto`` plans ``compiled`` for a
    classifier-rejected loop, and that run never builds the threads and
    per-worker shadow sets.
    """

    def __init__(self, build):
        self._build = build
        self._pool: ThreadWorkerPool | None = None

    def get(self) -> ThreadWorkerPool:
        if self._pool is None:
            self._pool = self._build()
        return self._pool

    def close(self) -> None:
        """Close the pool if it was built (the owner's teardown)."""
        if self._pool is not None:
            self._pool.close()


class WorkerPoolCache:
    """Persistent worker pools kept alive across doalls *and* requests.

    The strip pipeline already reuses one pool across the strips of a
    single run; this cache promotes that reuse to the next level — a
    long-lived owner (a :class:`~repro.runtime.orchestrator.LoopRunner`
    held by the serve daemon) keys pools by
    ``(loop identity, num_procs, workers)`` and hands the same workers
    to every subsequent request of the same loop, so repeat jobs pay
    neither thread start-up nor shadow allocation.

    A :class:`~repro.interp.parallel_spec.ShardSpec` is fixed for a
    loop's lifetime (program, transform plan, shadow sizes), so a cached
    pool stays valid as long as its key does.  Pools own threads:
    always :meth:`close` the cache (it is also a context manager) —
    every pool's teardown is attempted even if one raises.
    """

    def __init__(self) -> None:
        self._pools: dict[tuple, object] = {}
        #: reuse telemetry (surfaced in the serve daemon's stats).
        self.hits = 0
        self.builds = 0

    def get(self, key: tuple, build):
        """The cached pool under ``key``, building it on first use."""
        pool = self._pools.get(key)
        if pool is not None:
            self.hits += 1
            return pool
        pool = build()
        self._pools[key] = pool
        self.builds += 1
        return pool

    def __len__(self) -> int:
        return len(self._pools)

    def __enter__(self) -> "WorkerPoolCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Close every cached pool (idempotent; closes all even on error)."""
        pools, self._pools = self._pools, {}
        errors: list[BaseException] = []
        for pool in pools.values():
            try:
                pool.close()
            except BaseException as exc:  # noqa: BLE001 - close them all
                errors.append(exc)
        if errors:
            raise errors[0]


def run_parallel_doall(
    program: Program,
    loop: Do,
    env: Environment,
    plan: InstrumentationPlan,
    num_procs: int,
    *,
    marker: ShadowMarker | None,
    value_based: bool = True,
    schedule: ScheduleKind = ScheduleKind.BLOCK,
    values: list[int] | None = None,
    workers: int | None = None,
    pool: ThreadWorkerPool | LazyWorkerPool | None = None,
) -> DoallRun:
    """Execute the marked doall sharded across thread-pool workers.

    Drop-in replacement for the single-process executors behind
    :func:`repro.runtime.doall.run_doall` (reached via the worker-sharded
    ``vectorized`` engine): same contract, same returned
    :class:`DoallRun`, with the shadow marks merged into ``marker`` per
    the paper's cross-processor union.  ``marker`` must be freshly reset
    (the speculative protocols guarantee this) — the merge folds the
    workers' marks into it rather than marking incrementally.  Each
    worker runs its lanes whole-block; in-shard bails degrade to
    compiled inside the worker and surface on the merged run's fallback
    fields.

    ``pool`` reuses a persistent :class:`ThreadWorkerPool`, or builds
    the one a :class:`LazyWorkerPool` defers (the strip pipeline passes
    one); otherwise an ephemeral pool of ``workers`` workers is built
    and torn down around this single doall.
    """
    if values is None:
        bounds_interp = Interpreter(program, env, value_based=False)
        start, stop, step = bounds_interp.eval_loop_bounds(loop)
        values = loop_iteration_values(start, stop, step)

    exec_schedule = (
        ScheduleKind.CYCLIC if schedule is ScheduleKind.DYNAMIC else schedule
    )
    assignment = assign_iterations(len(values), num_procs, exec_schedule)

    owned_pool = None
    if isinstance(pool, LazyWorkerPool):
        pool = pool.get()
    if pool is None:
        spec = ShardSpec.from_plan(program, loop, plan, env, num_procs)
        owned_pool = pool = ThreadWorkerPool(spec, workers)
    elif pool.spec.num_procs != num_procs:
        raise InterpError(
            f"worker pool sharded for p={pool.spec.num_procs}, doall wants "
            f"p={num_procs}"
        )
    try:
        eager = marker is not None and any(
            shadow.eager for shadow in marker.shadows.values()
        )
        tasks = [
            ShardTask(
                values=values,
                assignment=assignment,
                procs=chunk,
                env=env,
                marking=marker is not None,
                value_based=value_based,
                granularity=(
                    marker.granularity if marker is not None
                    else Granularity.ITERATION
                ),
                eager=eager,
            )
            for chunk in pool.chunks
        ]
        results = pool.run(tasks)
        return _merge_results(
            pool, results, env, plan, num_procs, marker, values, assignment,
        )
    finally:
        if owned_pool is not None:
            owned_pool.close()


def _merge_results(
    pool: ThreadWorkerPool,
    results: list[ShardResult],
    env: Environment,
    plan: InstrumentationPlan,
    num_procs: int,
    marker: ShadowMarker | None,
    values: list[int],
    assignment: list[list[int]],
) -> DoallRun:
    """Fold the per-worker shard results into one :class:`DoallRun`.

    This is the paper's cross-processor merge phase plus the bookkeeping
    that re-creates exactly the state a single-process executor would have
    left behind: merged shadows in ``marker``, full private-copy and
    partial structures with the owned rows/maps written back, per-
    processor scalar environments, the dense iteration-cost list, and
    the in-place writes to untransformed shared arrays applied in
    worker (= serial block) order.
    """
    if marker is not None:
        for name, shadow in marker.shadows.items():
            parts = []
            for worker_marker, result in zip(pool.arena.markers, results):
                part = worker_marker.shadows[name]
                part.tw = result.tw.get(name, 0)
                parts.append(part)
            shadow.merge_from(parts)

    scalar_init = {
        name: env.scalars[name]
        for name in plan.scalar_reductions
        if name in env.scalars
    }

    privates = {
        name: PrivateCopies(name, env.arrays[name], num_procs)
        for name in sorted(plan.tested_arrays)
    }
    partials = {
        name: ReductionPartials(name, num_procs)
        for name in sorted(plan.reduction_arrays)
    }
    proc_envs: list[Environment] = []
    for _proc in range(num_procs):
        proc_env = env.fork_scalars()
        for name, op in plan.scalar_reductions.items():
            proc_env.scalars[name] = REDUCTION_IDENTITY[op]
        proc_envs.append(proc_env)

    iteration_costs: list[IterationCost] = [IterationCost()] * len(values)
    for result in results:
        for name, rows in result.private_rows.items():
            copies = privates[name]
            for proc, (data, wstamp) in rows.items():
                copies.data[proc] = data
                copies.wstamp[proc] = wstamp
        for name, maps in result.partial_maps.items():
            proc_maps = partials[name].proc_maps()
            for proc, partial in maps.items():
                proc_maps[proc].update(partial)
        for proc, scalars in result.proc_scalars.items():
            proc_envs[proc].scalars = dict(scalars)
        for position, cost in result.iteration_costs:
            iteration_costs[position] = IterationCost(*cost)
        for name, (indices, written) in result.shared_writes.items():
            env.arrays[name][indices] = written

    return DoallRun(
        values=values,
        assignment=assignment,
        iteration_costs=iteration_costs,
        privates=privates,
        partials=partials,
        proc_envs=proc_envs,
        marker=marker,
        scalar_init=scalar_init,
        aborted=any(result.aborted for result in results),
        executed_iterations=sum(result.executed for result in results),
        engine_used=(
            "compiled"
            if any(result.fallback for result in results)
            else "vectorized"
        ),
        fallback_reason=next(
            (result.fallback for result in results if result.fallback), None
        ),
    )
