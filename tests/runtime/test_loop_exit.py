"""The loop variable's exit value after a committed doall.

A passing speculative doall must leave the loop variable where the
serial loop leaves it: one step past the last executed value, or the
start value when the range is empty.  The step comes from the loop's
bounds, not from the executed values, so one-iteration loops with a
non-unit step and empty ranges are the telling cases.  Every passing
strategy is checked against the tree walker's ``run_serial``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dsl.parser import parse
from repro.machine.costmodel import CostModel
from repro.runtime.orchestrator import LoopRunner, RunConfig, Strategy
from repro.runtime.serial import run_serial

SOURCE = """
program loopvar
  integer i, m, n, k, last
  integer idx(16)
  real a(16), v(16)
  do i = m, n, k
    a(idx(i)) = v(i) * 2.0
  end do
  last = i
end
"""

#: (m, n, k): one iteration with step 2, -1 and -3, and an empty range.
BOUNDS = [(5, 5, 2), (5, 5, -1), (9, 9, -3), (9, 3, 1)]

#: (strategy, extra RunConfig fields) — every path that commits a doall.
STRATEGIES = {
    "speculative": (Strategy.SPECULATIVE, {}),
    "eager": (Strategy.SPECULATIVE, {"eager_failure_detection": True}),
    "stripped": (Strategy.STRIPPED, {"strip_size": 2}),
    "inspector": (Strategy.INSPECTOR, {}),
    "doacross_recovery": (Strategy.DOACROSS_RECOVERY, {}),
}


def _inputs(m: int, n: int, k: int) -> dict:
    return {
        "m": m, "n": n, "k": k, "last": -7,
        "idx": np.array([3, 1, 4, 2, 8, 6, 5, 7, 16, 9, 15, 10, 14, 11, 13, 12]),
        "v": np.linspace(0.5, 8.0, 16),
    }


@pytest.mark.parametrize("engine", ["compiled", "vectorized"])
@pytest.mark.parametrize("strategy_name", sorted(STRATEGIES))
@pytest.mark.parametrize("bounds", BOUNDS, ids=lambda b: "m{}_n{}_k{}".format(*b))
def test_exit_value_matches_serial(bounds, strategy_name, engine):
    strategy, extra = STRATEGIES[strategy_name]
    runner = LoopRunner(parse(SOURCE), _inputs(*bounds))
    model = CostModel(name="h", num_procs=4)
    oracle = run_serial(
        runner.program, runner.inputs, model, loop=runner.loop, engine="walk"
    )
    report = runner.run(strategy, RunConfig(model=model, engine=engine, **extra))
    assert report.passed is not False
    for name in ("i", "last"):
        assert report.env.scalars[name] == oracle.env.scalars[name], name
    np.testing.assert_array_equal(report.env.arrays["a"], oracle.env.arrays["a"])


@pytest.mark.parametrize("bounds", BOUNDS, ids=lambda b: "m{}_n{}_k{}".format(*b))
def test_reused_verdict_exit_value_matches_serial(bounds):
    """Schedule reuse commits its unmarked doall through the same path."""
    runner = LoopRunner(parse(SOURCE), _inputs(*bounds))
    model = CostModel(name="h", num_procs=4)
    oracle = run_serial(
        runner.program, runner.inputs, model, loop=runner.loop, engine="walk"
    )
    config = RunConfig(model=model, engine="vectorized", use_schedule_cache=True)
    reports = [runner.run(Strategy.SPECULATIVE, config) for _ in range(2)]
    assert reports[1].reused_schedule
    for report in reports:
        for name in ("i", "last"):
            assert report.env.scalars[name] == oracle.env.scalars[name], name
