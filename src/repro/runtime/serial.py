"""Serial execution.

Provides the sequential oracle (:func:`run_serial`, for correctness
checks and the SERIAL strategy), the serial re-execution after a failed
speculation, and :func:`serial_loop_cycles`.  The speculative strategies
take the speedup denominator from the run that happened: the serial
re-execution's time after a rollback, else the doall's own iteration
costs priced without marking — never from a separate oracle run.
"""

from __future__ import annotations

from repro.dsl.ast_nodes import Do, Program
from repro.interp.costs import CostCounter, IterationCost
from repro.interp.env import Environment
from repro.interp.interpreter import Interpreter, find_target_loop, split_at_loop
from repro.machine.costmodel import CostModel
from repro.runtime.results import SerialRun


def loop_iteration_values(start: int, stop: int, step: int) -> list[int]:
    """The iteration values a Fortran do loop executes."""
    values = []
    value = start
    while (step > 0 and value <= stop) or (step < 0 and value >= stop):
        values.append(value)
        value += step
    return values


def run_serial(
    program: Program,
    inputs: dict,
    model: CostModel,
    *,
    loop: Do | None = None,
    engine: str = "walk",
) -> SerialRun:
    """Execute the program serially, timing the target loop per iteration.

    ``engine`` names any registered execution engine; the registry
    substitutes the first serial-capable engine on its fallback chain
    for doall-only engines (e.g. ``parallel`` → ``compiled``), recording
    the substitution on the returned run.  All serial-capable engines
    produce identical state and identical operation counts.
    """
    # Imported lazily: the engine modules import SerialRun helpers from
    # this module.
    from repro.runtime.engines import get_engine, serial_engine_for

    serial_name, substitution = serial_engine_for(engine)
    executor = get_engine(serial_name)

    env = Environment(program, inputs)
    if loop is None:
        loop = find_target_loop(program)
    before, after = split_at_loop(program, loop)

    run = executor.execute_serial(program, env, model, loop, before, after)
    run.engine_substitution = substitution
    return run


def serial_loop_cycles(
    model: CostModel, iteration_costs: list[IterationCost]
) -> float:
    """Simulated serial cycles of a doall's iterations.

    The per-iteration operation counts a doall records are those of the
    serial loop plus the shadow marking, so pricing them with the marks
    removed gives the serial loop time without running the loop again.
    """
    return sum(model.unmarked_cycles(c) for c in iteration_costs)


def rerun_values_serially(
    interp: Interpreter,
    loop: Do,
    values: list[int],
    step: int,
    model: CostModel,
) -> tuple[float, list[IterationCost]]:
    """Serially re-execute one *strip* of the target loop after a
    strip-local rollback.

    Unlike :func:`rerun_loop_serially` the loop bounds are not
    re-evaluated — the strip pipeline already knows the iteration values
    it speculated over — so only the executed iterations are charged.
    ``step`` positions the loop variable past the strip, exactly where
    a serial execution of those iterations would leave it.
    """
    cost = CostCounter()
    previous = interp.cost
    interp.cost = cost
    for value in values:
        interp.exec_iteration(loop, value)
    if values:
        interp.env.set_scalar(loop.var, values[-1] + step)
    interp.cost = previous
    iteration_costs = list(cost.iteration_costs)
    return sum(model.iteration_cycles(c) for c in iteration_costs), iteration_costs


def rerun_loop_serially(
    interp: Interpreter,
    loop: Do,
    model: CostModel,
) -> tuple[float, list[IterationCost]]:
    """Re-execute the target loop serially (after a rollback).

    Uses the given interpreter (plain memory, no marking) and returns the
    simulated serial time.
    """
    cost = CostCounter()
    previous = interp.cost
    interp.cost = cost
    start, stop, step = interp.eval_loop_bounds(loop)
    values = loop_iteration_values(start, stop, step)
    for value in values:
        interp.exec_iteration(loop, value)
    interp.env.set_scalar(loop.var, (values[-1] + step) if values else start)
    interp.cost = previous
    iteration_costs = list(cost.iteration_costs)
    return sum(model.iteration_cycles(c) for c in iteration_costs), iteration_costs
