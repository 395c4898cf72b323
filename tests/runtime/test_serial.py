"""Serial executor tests."""

import numpy as np

from repro.dsl.parser import parse
from repro.interp.costs import CostCounter
from repro.interp.env import Environment
from repro.interp.interpreter import Interpreter, find_target_loop
from repro.machine.costmodel import CostModel
from repro.runtime.serial import (
    loop_iteration_values,
    rerun_serially,
    run_serial,
)

SOURCE = (
    "program p\n  integer i, n\n  real a(8), s\n"
    "  n = 8\n  s = 0.0\n"
    "  do i = 1, n\n    a(i) = real(i) * 2.0\n  end do\n"
    "  s = a(1)\nend\n"
)


class TestIterationValues:
    def test_simple_range(self):
        assert loop_iteration_values(1, 5, 1) == [1, 2, 3, 4, 5]

    def test_step(self):
        assert loop_iteration_values(1, 10, 3) == [1, 4, 7, 10]

    def test_negative_step(self):
        assert loop_iteration_values(5, 1, -2) == [5, 3, 1]

    def test_empty(self):
        assert loop_iteration_values(5, 1, 1) == []


class TestRunSerial:
    def test_executes_whole_program(self):
        run = run_serial(parse(SOURCE), {}, CostModel())
        assert run.env.arrays["a"][0] == 2.0
        assert run.env.scalars["s"] == 2.0

    def test_loop_time_and_iteration_costs(self):
        run = run_serial(parse(SOURCE), {}, CostModel())
        assert run.num_iterations == 8
        assert len(run.loop_iteration_costs) == 8
        assert run.loop_time > 0.0

    def test_setup_and_teardown_timed_separately(self):
        run = run_serial(parse(SOURCE), {}, CostModel())
        assert run.setup_time > 0.0
        assert run.teardown_time > 0.0

    def test_loop_var_final_value(self):
        run = run_serial(parse(SOURCE), {}, CostModel())
        assert run.env.scalars["i"] == 9

    def test_zero_trip_loop(self):
        source = (
            "program p\n  integer i, n\n  real a(4)\n"
            "  do i = 1, n\n    a(i) = 1.0\n  end do\nend\n"
        )
        run = run_serial(parse(source), {"n": 0}, CostModel())
        assert run.num_iterations == 0
        assert run.loop_time == 0.0


def _env_at_loop_entry(program, inputs=None):
    env = Environment(program, inputs or {})
    loop = find_target_loop(program)
    before = program.body[: program.body.index(loop)]
    Interpreter(program, env, value_based=False).exec_block(before)
    return env, loop


def _walked(program, loop, env, values, step):
    """The tree walker's iterations over ``values`` (the reference)."""
    interp = Interpreter(program, env, cost=CostCounter(), value_based=False)
    for value in values:
        interp.exec_iteration(loop, value)
    return interp.cost.iteration_costs


class TestRerunSerially:
    def test_rerun_produces_serial_result(self):
        program = parse(SOURCE)
        env, loop = _env_at_loop_entry(program)  # n = 8; s = 0.0
        time, iteration_costs = rerun_serially(program, loop, env, CostModel())
        assert time > 0.0
        assert len(iteration_costs) == 8
        np.testing.assert_allclose(
            env.arrays["a"], np.arange(1, 9, dtype=float) * 2.0
        )
        assert env.scalars["i"] == 9

    def test_matches_walker_counts(self):
        program = parse(SOURCE)
        env, loop = _env_at_loop_entry(program)
        reference, _ = _env_at_loop_entry(program)
        model = CostModel()
        time, costs = rerun_serially(program, loop, env, model)
        assert costs == _walked(program, loop, reference, range(1, 9), 1)
        assert time == sum(model.iteration_cycles(c) for c in costs)
        assert env.arrays["a"].tobytes() == reference.arrays["a"].tobytes()

    def test_empty_range_leaves_loop_var_at_start(self):
        source = (
            "program p\n  integer i, m, n\n  real a(4)\n"
            "  do i = m, n\n    a(i) = 1.0\n  end do\nend\n"
        )
        program = parse(source)
        env, loop = _env_at_loop_entry(program, {"m": 3, "n": 0})
        time, costs = rerun_serially(program, loop, env, CostModel())
        assert (time, costs) == (0.0, [])
        assert env.scalars["i"] == 3
        assert not env.arrays["a"].any()

    def test_strip_runs_only_its_values(self):
        program = parse(SOURCE)
        env, loop = _env_at_loop_entry(program)
        time, costs = rerun_serially(program, loop, env, CostModel(), [3, 4, 5], 1)
        assert len(costs) == 3 and time > 0.0
        np.testing.assert_array_equal(
            env.arrays["a"], [0.0, 0.0, 6.0, 8.0, 10.0, 0.0, 0.0, 0.0]
        )
        assert env.scalars["i"] == 6

    def test_one_iteration_strip_with_negative_step(self):
        program = parse(SOURCE)
        env, loop = _env_at_loop_entry(program)
        _time, costs = rerun_serially(program, loop, env, CostModel(), [7], -2)
        assert len(costs) == 1
        assert env.arrays["a"][6] == 14.0
        assert env.scalars["i"] == 5

    def test_negative_step_whole_loop(self):
        source = (
            "program p\n  integer i, n\n  real a(8), s\n  s = 1.0\n"
            "  do i = n, 1, -3\n    s = s * 2.0 + a(i)\n    a(i) = s\n"
            "  end do\nend\n"
        )
        program = parse(source)
        env, loop = _env_at_loop_entry(program, {"n": 8})
        reference, _ = _env_at_loop_entry(program, {"n": 8})
        _time, costs = rerun_serially(program, loop, env, CostModel())
        assert costs == _walked(program, loop, reference, [8, 5, 2], -3)
        assert env.scalars["i"] == -1
        assert env.scalars["s"] == reference.scalars["s"]
        assert env.arrays["a"].tobytes() == reference.arrays["a"].tobytes()
