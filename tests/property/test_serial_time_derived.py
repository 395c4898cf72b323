"""Property: every report's speedup denominator equals the serial oracle.

A report's ``serial_loop_time`` is the simulated cycles of the target
loop executed serially.  The strategies derive it from the run that
actually happened (the doall's own iteration costs with the marking
overhead removed, the serial re-execution after a rollback, a DOACROSS
recovery's serial equivalent, or their sum over strips) instead of
running the program serially a second time.  This suite pins that
derivation to the independent oracle — the tree walker's
``run_serial(...).loop_time`` — on random passing and failing loops,
for every registered engine and speculative strategy, bit for bit.

It also makes sure no speculative strategy quietly regains the serial
reference run: with ``run_serial`` and ``LoopRunner.serial_run``
patched to raise, every strategy except SERIAL still completes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.costmodel import CostModel
from repro.runtime.engines import registry
from repro.runtime.orchestrator import LoopRunner, RunConfig, Strategy
from repro.runtime.serial import run_serial

from tests.property.test_soundness import (
    GATHER_SCATTER,
    N,
    REDUCTION_MIX,
    RMW_PATTERN,
    SIZE,
    gates,
    indices,
    source_to_program,
)

PROGRAMS = {
    "gather_scatter": GATHER_SCATTER,
    "reduction_mix": REDUCTION_MIX,
    "rmw": RMW_PATTERN,
}
PROGRAM_AST = {name: source_to_program(src) for name, src in PROGRAMS.items()}


ENGINES = {name: {"engine": name} for name in registry.names()}
#: the worker-sharded path: vectorized lanes on two thread-pool workers.
ENGINES["sharded"] = {"engine": "vectorized", "workers": 2}

#: (strategy, extra RunConfig fields) — every speculative path.
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

procs_st = st.sampled_from([1, 3, 8])


@st.composite
def access_patterns(draw):
    """Write/read index arrays: random (mostly failing, sometimes
    passing), or a read chain at a drawn distance — a loop-carried flow
    dependence the DOACROSS recovery tier can pipeline."""
    if draw(st.booleans()):
        return draw(indices), draw(indices)
    distance = draw(st.integers(min_value=1, max_value=4))
    wloc = list(range(1, N + 1))
    rloc = [max(1, i - distance) for i in wloc]
    return wloc, rloc


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
    elif program == "reduction_mix":
        base.update(gate=np.array(gate), a=np.zeros(SIZE),
                    f=np.linspace(1.0, 2.0, SIZE), s=3.0)
    else:
        base.update(a=np.linspace(1.0, 4.0, SIZE))
    return base


def _oracle(runner: LoopRunner, model: CostModel) -> float:
    return run_serial(
        runner.program, runner.inputs, model, loop=runner.loop, engine="walk"
    ).loop_time


@pytest.mark.parametrize("strategy_name", sorted(STRATEGIES))
@pytest.mark.parametrize("engine_name", sorted(ENGINES))
@settings(max_examples=15, deadline=None)
@given(
    program=st.sampled_from(sorted(PROGRAMS)),
    pattern=access_patterns(),
    gate=gates,
    procs=procs_st,
)
def test_serial_loop_time_equals_walk_oracle(
    engine_name, strategy_name, program, pattern, gate, procs
):
    strategy, extra = STRATEGIES[strategy_name]
    wloc, rloc = pattern
    runner = LoopRunner(PROGRAM_AST[program], _inputs(program, wloc, rloc, gate))
    if strategy is Strategy.INSPECTOR and not runner.plan.inspector_extractable:
        return
    config = RunConfig(
        model=CostModel(name="h", num_procs=procs),
        **ENGINES[engine_name], **extra,
    )
    expected = _oracle(runner, config.model)
    report = runner.run(strategy, config)
    assert report.serial_loop_time == expected, (
        f"{strategy_name}/{engine_name}: derived {report.serial_loop_time} "
        f"!= oracle {expected} (passed={report.passed})"
    )


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
@settings(max_examples=20, deadline=None)
@given(
    program=st.sampled_from(sorted(PROGRAMS)),
    pattern=access_patterns(),
    gate=gates,
    procs=procs_st,
)
def test_schedule_reuse_serial_loop_time_equals_walk_oracle(
    engine_name, program, pattern, gate, procs
):
    """The speculative attempt records a verdict; the next two runs
    reuse it (the second also hits the memoized simulated times)."""
    wloc, rloc = pattern
    runner = LoopRunner(PROGRAM_AST[program], _inputs(program, wloc, rloc, gate))
    config = RunConfig(
        model=CostModel(name="h", num_procs=procs),
        use_schedule_cache=True,
        **ENGINES[engine_name],
    )
    expected = _oracle(runner, config.model)
    reports = [runner.run(Strategy.SPECULATIVE, config) for _ in range(3)]
    for report in reports:
        assert report.serial_loop_time == expected
    if runner.plan.inspector_extractable:
        assert [r.reused_schedule for r in reports[:2]] == [False, True]
        if not registry.get(ENGINES[engine_name]["engine"]).caps.planner:
            # A planner may veto a loop that keeps failing instead.
            assert reports[2].reused_schedule


def _forbid_serial_oracle(monkeypatch) -> None:
    """Make every route to the serial oracle raise."""
    from repro.runtime import orchestrator, serial

    def forbidden(*_args, **_kwargs):
        raise AssertionError("the serial reference run was invoked")

    monkeypatch.setattr(serial, "run_serial", forbidden)
    monkeypatch.setattr(orchestrator, "run_serial", forbidden)
    monkeypatch.setattr(LoopRunner, "serial_run", forbidden)


def test_no_speculative_strategy_runs_the_serial_reference(monkeypatch):
    """Patch the serial oracle away: only SERIAL may still need it."""
    program = PROGRAM_AST["rmw"]
    writes = list(range(1, N + 1))
    passing = _inputs("rmw", writes, writes, None)
    failing = _inputs("rmw", writes, [1] + writes[:-1], None)
    # The oracle values, taken before the patch.
    model = CostModel(name="h", num_procs=3)
    expected = {
        id(inputs): _oracle(LoopRunner(program, inputs), model)
        for inputs in (passing, failing)
    }
    _forbid_serial_oracle(monkeypatch)

    seen_pass = seen_fail = False
    for inputs in (passing, failing):
        runner = LoopRunner(program, inputs)
        for engine_fields in ENGINES.values():
            for strategy, extra in STRATEGIES.values():
                config = RunConfig(model=model, **engine_fields, **extra)
                report = runner.run(strategy, config)
                assert report.serial_loop_time == expected[id(inputs)]
                seen_pass |= bool(report.passed)
                seen_fail |= report.passed is False
            reuse = RunConfig(
                model=model, use_schedule_cache=True, **engine_fields
            )
            for _ in range(2):
                report = runner.run(Strategy.SPECULATIVE, reuse)
                assert report.serial_loop_time == expected[id(inputs)]
    assert seen_pass and seen_fail


def test_refused_loop_reports_its_own_serial_time(monkeypatch):
    """A loop-carried scalar refuses speculation up front; the refusal's
    own serial re-run is the denominator."""
    source = (
        "program p\n  integer i, n\n  real s, a(8)\n"
        "  do i = 1, n\n    a(i) = s\n    s = a(i) + 1.0\n  end do\nend\n"
    )
    program = source_to_program(source)
    inputs = {"n": 8, "s": 1.0}
    model = CostModel(name="h", num_procs=4)
    expected = _oracle(LoopRunner(program, inputs), model)
    _forbid_serial_oracle(monkeypatch)
    runner = LoopRunner(program, inputs)
    for strategy in (
        Strategy.SPECULATIVE, Strategy.STRIPPED, Strategy.DOACROSS_RECOVERY
    ):
        report = runner.run(strategy, RunConfig(model=model, strip_size=3))
        assert report.stats.get("refused") == 1.0
        assert report.serial_loop_time == expected
