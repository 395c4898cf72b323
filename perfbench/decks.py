"""Seeded op decks, their oracles and the per-op correctness check.

A *deck* is the list of distinct ops one workload cycles through in its
timed phase.  Everything in it derives from the workload seed: which
loops, builder seeds, sizes, dependence fractions, distances and strip
sizes.  The composition (how many ops of each loop kind) is fixed so
that percentiles land inside one kind's latency cluster rather than on
the edge between two; the seed moves everything else.

Every op carries a reference computed once, before timing, by an oracle
that shares no engine with the run under test: native CPython for
Python-corpus kernels, the serial tree walker (``engine="walk"``) for
DSL programs.  Expected LRPD verdicts come from how the inputs were
built, and for the failing loops from a brute-force flow-dependence
scan of the generated index arrays.
"""

from __future__ import annotations

import copy
import inspect
from dataclasses import dataclass, field

import numpy as np

from repro.frontend import get_frontend
from repro.machine.costmodel import fx80
from repro.runtime.orchestrator import LoopRunner, RunConfig, Strategy
from repro.runtime.serial import run_serial
from repro.workloads import PAPER_LOOPS
from repro.workloads.pycorpus import CORPUS
from repro.workloads.synthetic import (
    build_dependence_injected,
    build_partial_parallel,
    build_synthdoacross,
)

#: simulated processors for the in-process workloads.
PROCS = 8
#: relative tolerance for reduction results at p > 1.  The parallel
#: merge reassociates floating-point sums (DESIGN.md: "1-ULP drift");
#: per element that drift stays far below this bound, while any real
#: error (a lost or doubled contribution) exceeds it by many orders.
REDUCTION_RTOL = 1e-9
REDUCTION_ATOL = 1e-12

#: copies of each paper loop per cold_mixed deck, each with its own
#: builder seed and size.  Eight puts the median op (37th of 74) well
#: inside the paper loops' latency range, where the serial reference
#: and the doall dominate, rather than next to the corpus kernels, and
#: spreads p95 over eight BDNA sizes instead of a seed's one or two.
PAPER_COPIES = 8
#: size draw around each builder's default.
SIZE_SPREAD = (0.9, 1.1)

#: fail_recover strategies; every failing loop runs under each.
FAIL_STRATEGIES = (
    Strategy.SPECULATIVE, Strategy.DOACROSS_RECOVERY, Strategy.STRIPPED,
)
#: failing loops per strategy in one deck copy.  The two ``work``-heavy
#: builders run twice so that two thirds of the ops (where rollback
#: dominates) hold the median; the corpus kernels alternate.
FAIL_KINDS = (
    "dependence_injected", "synthdoacross", "synthdoacross",
    "partial_parallel", "partial_parallel",
)
FAIL_COPIES = 4
#: iterations of the synthetic failing loops (their builders' service
#: catalog size); the seed moves the dependence structure, not the size.
FAIL_N = 160
STRIP_SIZES = (24, 32)
#: corpus kernels built to fail -> their dependence distance, which is
#: also their first iteration (``cumsum`` runs i = 1..n-1 carrying
#: y[i-1]; ``decay_chain`` runs i = k..n-1 carrying a[i-k]).
FAILING_CORPUS = {
    "cumsum": lambda inputs: 1,
    "decay_chain": lambda inputs: int(inputs["k"]),
}


@dataclass
class Op:
    """One distinct unit of work and everything needed to check it."""

    key: str
    frontend: str
    source: object
    inputs: dict
    strategy: Strategy = Strategy.SPECULATIVE
    strip_size: int | None = None
    #: expected LRPD verdict (None for a lift that must be rejected).
    expect_pass: bool | None = True
    expect_reject: str | None = None
    check_arrays: tuple[str, ...] = ()
    check_scalars: tuple[str, ...] = ()
    #: oracle state: ``(arrays, scalars)``.
    reference: tuple[dict, dict] = field(default_factory=lambda: ({}, {}))


@dataclass
class Outcome:
    """What executing one op produced (``plan``/``report`` None on reject)."""

    lifted: object
    plan: object = None
    report: object = None


def model():
    return fx80().with_procs(PROCS)


def execute(op: Op) -> Outcome:
    """The timed unit of the in-process workloads: lift, build a fresh
    runner, run the op's strategy at p=8 with the auto planner."""
    lifted = get_frontend(op.frontend).lift(op.source, inputs=op.inputs)
    if not lifted:
        return Outcome(lifted)
    runner = LoopRunner(lifted.program, lifted.inputs)
    report = runner.run(op.strategy, RunConfig(
        model=model(), engine="auto", strip_size=op.strip_size,
    ))
    return Outcome(lifted, runner.plan, report)


# -- oracles -----------------------------------------------------------------


def walk_reference(source: str, inputs: dict, arrays, scalars) -> tuple[dict, dict]:
    """Final state of the DSL program under the serial tree walker."""
    from repro.dsl.parser import parse

    env = run_serial(parse(source), inputs, fx80(), engine="walk").env
    return (
        {name: env.arrays[name].copy() for name in arrays},
        {name: env.scalars[name] for name in scalars},
    )


def native_reference(loop, inputs: dict) -> tuple[dict, dict]:
    """Final state of the Python kernel run natively on ``inputs``."""
    fresh = copy.deepcopy(inputs)
    result = loop.kernel(**fresh)
    arrays = {name: fresh[name] for name in loop.check_arrays}
    scalars = {}
    if loop.returns:
        values = result if isinstance(result, tuple) else (result,)
        scalars = {
            f"{name}_out": value for name, value in zip(loop.returns, values)
        }
    return arrays, scalars


# -- checks ------------------------------------------------------------------


def _is_reduction(plan, name: str) -> bool:
    # Returned Python scalars are mirrored into live-out ``<name>_out``.
    base = name[:-4] if name.endswith("_out") else name
    return (
        name in plan.reduction_arrays
        or name in plan.scalar_reductions
        or base in plan.scalar_reductions
    )


def _same(got, want, tolerant: bool) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return False
    if got.tobytes() == want.astype(got.dtype).tobytes():
        return True
    return tolerant and bool(np.allclose(
        got, want, rtol=REDUCTION_RTOL, atol=REDUCTION_ATOL, equal_nan=True,
    ))


def check_state(plan, env, procs: int, reference, arrays, scalars) -> str | None:
    """Compare checked arrays/scalars against the oracle; None when equal.

    Bit-exact, except reduction results at p > 1, which get the
    reassociation tolerance.
    """
    ref_arrays, ref_scalars = reference
    for name in arrays:
        if not _same(env.arrays[name], ref_arrays[name],
                     procs > 1 and _is_reduction(plan, name)):
            return f"array {name} differs from the oracle"
    for name in scalars:
        if not _same(env.scalars[name], ref_scalars[name],
                     procs > 1 and _is_reduction(plan, name)):
            return f"scalar {name} differs from the oracle"
    return None


def check(op: Op, outcome: Outcome) -> str | None:
    """Why ``outcome`` is wrong for ``op`` (None when it is right)."""
    decision = outcome.lifted.decision
    if op.expect_reject is not None:
        if decision.ok:
            return f"lift accepted, expected reject {op.expect_reject}"
        if decision.reason != op.expect_reject:
            return f"lift rejected as {decision.reason}, expected {op.expect_reject}"
        return None
    if not decision.ok:
        return f"lift rejected: {decision.explain()}"
    report = outcome.report
    if report.passed is not op.expect_pass:
        return f"verdict passed={report.passed}, expected {op.expect_pass}"
    return check_state(
        outcome.plan, report.env, report.procs, op.reference,
        op.check_arrays, op.check_scalars,
    )


# -- input generation -------------------------------------------------------


def corpus_inputs(name: str, rng: np.random.Generator) -> dict:
    """Seeded inputs for a corpus kernel, shaped like its template.

    Float arrays are redrawn uniformly over the template's value range
    (all-zero outputs stay zero); integer arrays, which hold indices,
    bins and masks, are permuted, so every index stays in range and
    permutations stay permutations.  Scalars keep their values.
    """
    inputs = {}
    for key, value in CORPUS[name].make_inputs().items():
        if isinstance(value, np.ndarray) and value.dtype.kind == "f":
            lo, hi = float(value.min()), float(value.max())
            value = (lo + (hi - lo) * rng.random(value.shape)).astype(value.dtype)
        elif isinstance(value, np.ndarray):
            value = rng.permutation(value.ravel()).reshape(value.shape)
        inputs[key] = value
    return inputs


def _sub_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _paper_op(name: str, builder, rng: np.random.Generator, copy_index: int) -> Op:
    # Every paper builder takes its problem size as the first parameter.
    size_param = next(iter(inspect.signature(builder).parameters.values()))
    size = int(round(size_param.default * rng.uniform(*SIZE_SPREAD)))
    workload = builder(size, seed=_sub_seed(rng))
    op = Op(
        key=f"{name}#{copy_index}",
        frontend="dsl",
        source=workload.source,
        inputs=workload.inputs,
        expect_pass=workload.expectation.test_passes,
        check_arrays=workload.check_arrays,
        check_scalars=workload.check_scalars,
    )
    op.reference = walk_reference(
        workload.source, workload.inputs, op.check_arrays, op.check_scalars,
    )
    return op


def _corpus_op(
    name: str, rng: np.random.Generator, *,
    strategy: Strategy = Strategy.SPECULATIVE, strip_size: int | None = None,
) -> Op:
    loop = CORPUS[name]
    inputs = corpus_inputs(name, rng)
    op = Op(
        key=f"corpus/{name}", frontend="python", source=loop.kernel,
        inputs=inputs, strategy=strategy, strip_size=strip_size,
        expect_pass=loop.expect_pass, expect_reject=loop.reject_reason,
        check_arrays=loop.check_arrays,
        check_scalars=tuple(f"{r}_out" for r in loop.returns),
    )
    if loop.reject_reason is None:
        op.reference = native_reference(loop, inputs)
    return op


def cold_mixed_deck(seed: int) -> list[Op]:
    """Paper loops via ``dsl`` (:data:`PAPER_COPIES` each), every passing
    corpus kernel via ``python``, and the four named rejects."""
    rng = np.random.default_rng([seed, 1])
    ops = [
        _paper_op(name, builder, rng, index)
        for name, builder in PAPER_LOOPS.items()
        for index in range(PAPER_COPIES)
    ]
    ops += [
        _corpus_op(name, rng)
        for name, loop in CORPUS.items()
        if loop.expect_pass or loop.reject_reason is not None
    ]
    return [ops[i] for i in rng.permutation(len(ops))]


# -- fail_recover ------------------------------------------------------------


def _chunks(count: int, strip_size: int | None) -> list[range]:
    """The iteration groups one LRPD test covers: the whole loop, or the
    strip pipeline's consecutive fixed-size strips."""
    size = strip_size or max(count, 1)
    return [range(start, min(start + size, count)) for start in range(0, count, size)]


def indirect_flow_passes(wloc, rloc, strip_size: int | None) -> bool:
    """Brute-force verdict for the ``a(wloc(i))`` / ``a(rloc(i))`` loops:
    a group fails when an iteration reads what an earlier iteration of
    the same group wrote (anti dependences are privatized away)."""
    writer = {int(loc): v for v, loc in enumerate(wloc)}
    for group in _chunks(len(wloc), strip_size):
        for u in group:
            v = writer.get(int(rloc[u]))
            if v is not None and group.start <= v < u:
                return False
    return True


def distance_flow_passes(iterations: int, distance: int, strip_size: int | None) -> bool:
    """Brute-force verdict for a uniform distance-``d`` recurrence: a
    group fails when it holds two iterations ``d`` apart."""
    return all(len(group) <= distance for group in _chunks(iterations, strip_size))


def _synthetic_op(kind: str, rng: np.random.Generator, strategy, strip, index) -> Op:
    n = FAIL_N
    seed = _sub_seed(rng)
    if kind == "dependence_injected":
        workload = build_dependence_injected(
            n, dep_fraction=float(rng.uniform(0.03, 0.06)), seed=seed,
        )
    elif kind == "synthdoacross":
        workload = build_synthdoacross(
            n, distance=int(rng.integers(12, 21)), seed=seed,
        )
    else:
        band = int(rng.integers(12, 21))
        workload = build_partial_parallel(
            n, band_length=band,
            band_start=int(rng.integers(0, n - band + 1)), seed=seed,
        )
    inputs = workload.inputs
    op = Op(
        key=f"{kind}/{strategy.value}#{index}",
        frontend="dsl", source=workload.source, inputs=inputs,
        strategy=strategy, strip_size=strip,
        expect_pass=indirect_flow_passes(inputs["wloc"], inputs["rloc"], strip),
        check_arrays=workload.check_arrays,
    )
    op.reference = walk_reference(workload.source, inputs, op.check_arrays, ())
    return op


def fail_recover_deck(seed: int) -> list[Op]:
    """Loops whose LRPD test fails in whole or in part, each under
    speculation with rollback, DOACROSS recovery and a seeded strip size."""
    rng = np.random.default_rng([seed, 3])
    ops = []
    corpus = list(FAILING_CORPUS)
    for index in range(FAIL_COPIES):
        for number, strategy in enumerate(FAIL_STRATEGIES):

            def strip():
                return (
                    int(rng.choice(STRIP_SIZES))
                    if strategy is Strategy.STRIPPED else None
                )

            for copy_index, kind in enumerate(FAIL_KINDS):
                ops.append(_synthetic_op(
                    kind, rng, strategy, strip(), f"{index}.{copy_index}",
                ))
            name = corpus[(index * len(FAIL_STRATEGIES) + number) % len(corpus)]
            op = _corpus_op(name, rng, strategy=strategy, strip_size=strip())
            op.key = f"corpus/{name}/{strategy.value}#{index}"
            d = FAILING_CORPUS[name](op.inputs)
            op.expect_pass = distance_flow_passes(
                int(op.inputs["n"]) - d, d, op.strip_size,
            )
            ops.append(op)
    return [ops[i] for i in rng.permutation(len(ops))]


# -- warm_serve --------------------------------------------------------------

SERVED_PROCS = (4, 8, 16)
SERVED_ENGINES = ("compiled", "vectorized", "auto")
#: (procs, engine) combinations the seed picks per served corpus kernel
#: and ``synthpass``; paper loops run the whole grid.  Paper jobs are
#: then two thirds of the ops, so the median lands among the mid-cost
#: paper loops and p95 inside TRACK's cluster (TRACK is never reused,
#: see README), not on the edge between two clusters.
SERVED_COMBOS = 2


def served_workloads() -> list[str]:
    """Catalog names of the passing jobs: paper loops, passing corpus
    kernels and ``synthpass``."""
    return (
        [name.split("_")[0].lower() for name in PAPER_LOOPS]
        + [f"corpus/{name}" for name, loop in CORPUS.items() if loop.expect_pass]
        + ["synthpass"]
    )


def warm_serve_deck(seed: int) -> list:
    """Schedule-cached catalog jobs in per-workload bursts.

    A burst is one workload's jobs back to back (a loop a program runs
    again and again, as OCEAN's is), so the two clients mostly wait on
    jobs of the same cost; the seed orders the bursts and the jobs in
    them and picks the grid cells of the cheap workloads.
    """
    from repro.service.protocol import JobRequest

    rng = np.random.default_rng([seed, 2])
    combos = [(p, e) for p in SERVED_PROCS for e in SERVED_ENGINES]
    paper = {name.split("_")[0].lower() for name in PAPER_LOOPS}
    bursts = []
    for name in served_workloads():
        cells = (
            range(len(combos)) if name in paper
            else rng.choice(len(combos), SERVED_COMBOS, replace=False)
        )
        bursts.append([
            JobRequest(workload=name, procs=combos[k][0],
                       engine=combos[k][1], schedule_cache=True)
            for k in rng.permutation(list(cells))
        ])
    return [job for b in rng.permutation(len(bursts)) for job in bursts[b]]


def catalog_reference(name: str):
    """The catalog workload and its oracle state."""
    from repro.service.catalog import build_workload

    workload = build_workload(name)
    if name.startswith("corpus/"):
        loop = CORPUS[name.split("/", 1)[1]]
        return workload, native_reference(loop, loop.make_inputs())
    return workload, walk_reference(
        workload.source, workload.inputs,
        workload.check_arrays, workload.check_scalars,
    )


def served_digests(jobs) -> tuple[dict, list[str]]:
    """Expected ``env_digest`` per job key from a direct in-process
    :meth:`LoopService.execute`, whose state is itself oracle-checked.

    Returns ``(digests, problems)``; a problem is a direct run that
    disagrees with its oracle or with the verdict it was built for.
    """
    from repro.service import server

    captured = []
    original = server.report_payload

    def capture(report):
        captured.append(report)
        return original(report)

    service = server.LoopService()
    references = {}
    digests, problems = {}, []
    server.report_payload = capture
    try:
        for job in sorted(jobs, key=lambda job: job.key()):
            if job.key() in digests:
                continue
            payload = service.execute(job)
            report = captured.pop()
            if job.workload not in references:
                references[job.workload] = catalog_reference(job.workload)
            workload, reference = references[job.workload]
            why = (
                f"verdict passed={report.passed}, expected True"
                if report.passed is not True
                else check_state(
                    service.runner(job.workload).plan, report.env,
                    report.procs, reference,
                    workload.check_arrays, workload.check_scalars,
                )
            )
            if why is not None:
                problems.append(f"direct {job.key()}: {why}")
            digests[job.key()] = payload["env_digest"]
    finally:
        server.report_payload = original
        service.close()
    return digests, problems


def check_served(job, payload: dict, digests: dict) -> str | None:
    """Why a served reply is wrong (None when it is right)."""
    if payload.get("passed") is not True:
        return f"verdict passed={payload.get('passed')}, expected True"
    if payload.get("env_digest") != digests[job.key()]:
        return "env_digest differs from the direct run"
    return None
