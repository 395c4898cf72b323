"""Property: a rollback's serial re-execution is the serial loop, exactly.

Whenever speculation fails, the runtime restores its checkpoint and
re-executes the failed region serially: the whole loop after a
rollback, one strip after a strip rollback, the region a DOACROSS
recovery pipelines, the loop after a failed inspector test, a refusal,
or a schedule-reuse run whose cached verdict failed.  Each of those
re-executions must leave the state the serial loop leaves and cost what
the serial loop costs.  This suite pins them to the independent oracle
— the tree walker's ``run_serial(engine="walk")`` — on random failing
loops at p ∈ {1, 3, 8}, bit for bit:

* final arrays and scalars (after the whole program, including the
  statements around the loop);
* ``times.serial_rerun`` against the oracle's loop time (per strip, the
  oracle's cycles over that strip's iterations);
* ``serial_loop_time`` against the oracle's loop time.

A guard makes sure no rollback path quietly goes back to the tree
walker: with ``Interpreter.exec_iteration`` patched to raise, every
strategy except SERIAL still completes on a failing loop.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.interp.interpreter import Interpreter
from repro.machine.costmodel import CostModel
from repro.runtime.orchestrator import LoopRunner, RunConfig, Strategy
from repro.runtime.results import SerialRun
from repro.runtime.serial import run_serial

from tests.property.test_soundness import (
    GATHER_SCATTER,
    N,
    RMW_PATTERN,
    SIZE,
    gates,
    indices,
    source_to_program,
)

#: a negative-step loop between a setup and a teardown block, so the
#: statements around the loop and the loop variable's exit value are
#: checked too.
REVERSED_RMW = f"""
program revrmw
  integer i, n, last
  integer wloc({N}), rloc({N})
  real a({SIZE}), src({N}), s
  s = 0.5
  do i = n, 1, -1
    a(wloc(i)) = a(wloc(i)) * s + a(rloc(i)) + src(i)
  end do
  last = i
  s = a(1) + a({SIZE})
end
"""

#: a loop-carried scalar: every speculative strategy refuses it up
#: front and runs the loop serially instead.
REFUSED = """
program refused
  integer i, m, n
  real s, a(8)
  do i = m, n
    a(i) = s
    s = a(i) + 1.0
  end do
end
"""

PROGRAMS = {
    "gather_scatter": GATHER_SCATTER,
    "rmw": RMW_PATTERN,
    "reversed_rmw": REVERSED_RMW,
}
PROGRAM_AST = {name: source_to_program(src) for name, src in PROGRAMS.items()}

#: (strategy, extra RunConfig fields) — every path that rolls back.
STRATEGIES = {
    "speculative": (Strategy.SPECULATIVE, {}),
    "speculative_eager": (
        Strategy.SPECULATIVE, {"eager_failure_detection": True},
    ),
    "stripped_fixed": (Strategy.STRIPPED, {"strip_size": 5}),
    "stripped_adaptive": (
        Strategy.STRIPPED, {"strip_size": 2, "adaptive_strip_sizing": True},
    ),
    "doacross_whole": (Strategy.DOACROSS_RECOVERY, {}),
    "doacross_strips": (Strategy.DOACROSS_RECOVERY, {"strip_size": 4}),
    "inspector": (Strategy.INSPECTOR, {}),
}

ENGINES = ("compiled", "vectorized")

procs_st = st.sampled_from([1, 3, 8])


@st.composite
def failing_patterns(draw, reverse: bool = False):
    """``(wloc, rloc, gate)`` with at least one real cross-iteration
    flow dependence: random index arrays with one forced flow between
    consecutive iterations, or a chain at a drawn distance that the
    DOACROSS recovery tier can pipeline."""
    if draw(st.booleans()):
        wloc, rloc, gate = draw(indices), draw(indices), draw(gates)
        k = draw(st.integers(min_value=1, max_value=N - 1))
        # 0-based positions: ``first`` runs before ``second``.
        first, second = (k, k - 1) if reverse else (k - 1, k)
        rloc[second] = wloc[first]
        gate[first] = 1
        return wloc, rloc, gate
    distance = draw(st.integers(min_value=1, max_value=4))
    sign = 1 if reverse else -1
    wloc = list(range(1, N + 1))
    # Reads before the chain starts hit an element no iteration writes.
    rloc = [i + sign * distance if 1 <= i + sign * distance <= N else SIZE
            for i in wloc]
    return wloc, rloc, [1] * N


@st.composite
def programs_and_patterns(draw):
    name = draw(st.sampled_from(sorted(PROGRAMS)))
    return name, draw(failing_patterns(reverse=name == "reversed_rmw"))


def _inputs(program: str, wloc, rloc, gate) -> dict:
    base = {
        "n": N,
        "wloc": np.array(wloc),
        "rloc": np.array(rloc),
        "src": np.linspace(0.1, 1.2, N),
    }
    if program == "gather_scatter":
        base.update(gate=np.array(gate), a=np.linspace(-1.0, 1.0, SIZE),
                    b=np.zeros(SIZE))
    else:
        base["a"] = np.linspace(1.0, 4.0, SIZE)
    return base


def _oracle(runner: LoopRunner, model: CostModel) -> SerialRun:
    return run_serial(
        runner.program, runner.inputs, model, loop=runner.loop, engine="walk"
    )


def _assert_state_matches(report, oracle: SerialRun, plan) -> None:
    """Arrays byte for byte, scalars by value and type (repr round-trips
    floats exactly).

    A committed strip privatizes the loop's scalars and copies out only
    the live-out ones, so once any strip passed, dead private scalars
    (``t``) may keep their pre-loop value; a pure rollback must match
    them too.
    """
    assert sorted(report.env.arrays) == sorted(oracle.env.arrays)
    for name, expected in oracle.env.arrays.items():
        assert report.env.arrays[name].tobytes() == expected.tobytes(), name
    dead = set()
    if any(strip.passed for strip in report.strips):
        dead = set(plan.scalar_classes) - plan.live_out_scalars - {plan.loop.var}

    def scalars(env):
        return {k: repr(v) for k, v in env.scalars.items() if k not in dead}

    assert scalars(report.env) == scalars(oracle.env)


def _assert_rerun_times(report, oracle: SerialRun, model: CostModel) -> None:
    """Each serial re-execution costs what the oracle's loop costs over
    the same iterations."""
    assert report.serial_loop_time == oracle.loop_time
    cycles = [model.iteration_cycles(c) for c in oracle.loop_iteration_costs]
    if report.strips:
        position = 0
        for strip in report.strips:
            span = cycles[position : position + strip.iterations]
            position += strip.iterations
            if strip.passed or strip.recovered:
                assert strip.times.serial_rerun == 0.0
            else:
                assert strip.times.serial_rerun == sum(span), strip.index
        assert position == len(cycles)
    elif report.passed is False and "recovered_iterations" not in report.stats:
        assert report.times.serial_rerun == oracle.loop_time


def _check(runner, report, oracle: SerialRun, model: CostModel) -> None:
    _assert_state_matches(report, oracle, runner.plan)
    _assert_rerun_times(report, oracle, model)


@pytest.mark.parametrize("strategy_name", sorted(STRATEGIES))
@pytest.mark.parametrize("engine", ENGINES)
@settings(max_examples=15, deadline=None)
@given(case=programs_and_patterns(), procs=procs_st)
def test_rollback_matches_walk_oracle(engine, strategy_name, case, procs):
    program, (wloc, rloc, gate) = case
    strategy, extra = STRATEGIES[strategy_name]
    runner = LoopRunner(PROGRAM_AST[program], _inputs(program, wloc, rloc, gate))
    if strategy is Strategy.INSPECTOR and not runner.plan.inspector_extractable:
        return
    model = CostModel(name="h", num_procs=procs)
    oracle = _oracle(runner, model)
    report = runner.run(strategy, RunConfig(model=model, engine=engine, **extra))
    if not report.strips:
        assert report.passed is False
    _check(runner, report, oracle, model)


@pytest.mark.parametrize("engine", ENGINES)
@settings(max_examples=15, deadline=None)
@given(case=programs_and_patterns(), procs=procs_st)
def test_cached_failed_verdict_matches_walk_oracle(engine, case, procs):
    """Schedule reuse of a failed verdict skips the doall and runs the
    loop serially."""
    program, (wloc, rloc, gate) = case
    runner = LoopRunner(PROGRAM_AST[program], _inputs(program, wloc, rloc, gate))
    if not runner.plan.inspector_extractable:
        return
    model = CostModel(name="h", num_procs=procs)
    oracle = _oracle(runner, model)
    config = RunConfig(model=model, engine=engine, use_schedule_cache=True)
    first, second = (runner.run(Strategy.SPECULATIVE, config) for _ in range(2))
    assert first.passed is False and not first.reused_schedule
    assert second.passed is False and second.reused_schedule
    for report in (first, second):
        _check(runner, report, oracle, model)


@pytest.mark.parametrize("procs", [1, 3, 8])
@pytest.mark.parametrize("strategy", [
    Strategy.SPECULATIVE, Strategy.STRIPPED, Strategy.DOACROSS_RECOVERY,
])
@pytest.mark.parametrize("bounds", [(5, 0), (1, 8)], ids=["empty", "full"])
def test_refusal_matches_walk_oracle(bounds, strategy, procs):
    """A refused loop runs serially; an empty range leaves the loop
    variable at its start value."""
    m, n = bounds
    runner = LoopRunner(source_to_program(REFUSED), {"m": m, "n": n, "s": 1.5})
    model = CostModel(name="h", num_procs=procs)
    oracle = _oracle(runner, model)
    report = runner.run(strategy, RunConfig(model=model, strip_size=3))
    assert report.stats.get("refused") == 1.0
    if m > n:
        assert report.env.scalars["i"] == m
    _check(runner, report, oracle, model)


@pytest.mark.parametrize("procs", [1, 3, 8])
@pytest.mark.parametrize("program", ["rmw", "reversed_rmw"])
def test_one_iteration_strips_roll_back(program, procs):
    """The non-directional test fails a one-iteration strip that reads
    and then writes the same element, so every strip rolls back and
    re-executes its single iteration."""
    reverse = program == "reversed_rmw"
    wloc = list(range(1, N + 1))
    rloc = [SIZE] * N
    runner = LoopRunner(PROGRAM_AST[program], _inputs(program, wloc, rloc, None))
    model = CostModel(name="h", num_procs=procs)
    oracle = _oracle(runner, model)
    report = runner.run(Strategy.STRIPPED, RunConfig(
        model=model, strip_size=1, directional=False,
    ))
    assert len(report.strips) == N
    assert not any(strip.passed for strip in report.strips)
    assert report.env.scalars["i"] == (0 if reverse else N + 1)
    _check(runner, report, oracle, model)


def test_no_rollback_path_walks_the_tree(monkeypatch):
    """Every serial re-execution runs on the compiled closures: with the
    tree walker's iteration driver patched to raise, every strategy
    except SERIAL still completes on a failing loop.  (The inspector's
    marking traversal is a subclass of the walker and stays allowed.)"""
    model = CostModel(name="h", num_procs=3)
    writes = list(range(1, N + 1))
    # A distance-2 chain: DOACROSS recovery pipelines it, everything
    # else rolls back.
    chain = LoopRunner(PROGRAM_AST["gather_scatter"], _inputs(
        "gather_scatter", writes, [SIZE, SIZE] + writes[:-2], [1] * N,
    ))
    # Read-then-write of one element: fails even one-iteration strips
    # under the non-directional test.
    rmw = LoopRunner(PROGRAM_AST["rmw"], _inputs("rmw", writes, [SIZE] * N, None))
    refused = LoopRunner(source_to_program(REFUSED), {"m": 1, "n": 8, "s": 1.5})
    cases = [
        (chain, strategy, dict(extra, engine="vectorized"))
        for strategy, extra in STRATEGIES.values()
    ] + [
        (chain, Strategy.SPECULATIVE,
         {"engine": "vectorized", "use_schedule_cache": True}),
        (chain, Strategy.SPECULATIVE,
         {"engine": "vectorized", "use_schedule_cache": True}),
        (rmw, Strategy.STRIPPED,
         {"engine": "vectorized", "strip_size": 1, "directional": False}),
        (refused, Strategy.SPECULATIVE, {"engine": "vectorized"}),
    ]
    # The oracles run on the walker, so take them before the patch.
    oracles = {id(r): _oracle(r, model) for r in (chain, rmw, refused)}

    original = Interpreter.exec_iteration

    def exec_iteration(self, *args, **kwargs):
        if type(self) is Interpreter:
            raise AssertionError("the tree walker re-executed an iteration")
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Interpreter, "exec_iteration", exec_iteration)
    seen = set()
    for runner, strategy, extra in cases:
        report = runner.run(strategy, RunConfig(model=model, **extra))
        assert report.passed is not True
        _check(runner, report, oracles[id(runner)], model)
        if "recovered_iterations" in report.stats:
            seen.add("recovered")
        if report.times.serial_rerun > 0.0:
            seen.add("rerun")
        if report.reused_schedule:
            seen.add("reused")
        if report.stats.get("refused"):
            seen.add("refused")
    assert seen == {"recovered", "rerun", "reused", "refused"}
