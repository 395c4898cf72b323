"""Serial execution.

Provides the sequential oracle (:func:`run_serial`, for correctness
checks and the SERIAL strategy), the serial re-execution after a failed
speculation (:func:`rerun_serially`), and :func:`serial_loop_cycles`.
Every re-execution — whole-loop rollback, strip rollback, DOACROSS
recovery, refusal, the inspector's fail branch and schedule reuse of a
failed verdict — runs on the compiled closures of
:mod:`repro.interp.compiled`, never on the tree walker.  The speculative
strategies take the speedup denominator from the run that happened: the
serial re-execution's time after a rollback, else the doall's own
iteration costs priced without marking — never from a separate oracle
run.
"""

from __future__ import annotations

from repro.dsl.ast_nodes import Do, Program
from repro.interp.compiled import compile_program
from repro.interp.costs import CostCounter, IterationCost
from repro.interp.env import Environment
from repro.interp.interpreter import find_target_loop, split_at_loop
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
    for doall-only engines (e.g. ``vectorized`` → ``compiled``), recording
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


def rerun_serially(
    program: Program,
    loop: Do,
    env: Environment,
    model: CostModel,
    values: list[int] | None = None,
    step: int = 1,
) -> tuple[float, list[IterationCost]]:
    """Serially re-execute the target loop in place after a rollback.

    Runs on the compiled closures (:mod:`repro.interp.compiled`), which
    are state- and count-identical to the tree walker.  With ``values``
    None the loop bounds are evaluated from ``env`` (at loop entry) and
    the whole loop runs; an empty range leaves the loop variable at its
    start value, as Fortran does.  Otherwise only ``values`` run — one
    strip, or a region the strip pipeline or DOACROSS recovery already
    enumerated — and ``step`` places the loop variable one step past the
    last of them.  Returns the simulated serial cycles of the executed
    iterations and their per-iteration costs.
    """
    compiled = compile_program(program)
    if values is None:
        start, stop, step = compiled.loop_bounds(loop, env)
        values = loop_iteration_values(start, stop, step)
        if not values:
            env.set_scalar(loop.var, start)
    cost = CostCounter()
    compiled.run_loop(loop, env, cost, values)
    if values:
        env.set_scalar(loop.var, values[-1] + step)
    iteration_costs = cost.iteration_costs
    return sum(model.iteration_cycles(c) for c in iteration_costs), iteration_costs


#: The rollback call sites use these names for whole-loop and strip
#: re-executions, and ``perfbench/tracer.py`` patches them by name to
#: time the rollback layer; both are :func:`rerun_serially`.
rerun_loop_serially = rerun_values_serially = rerun_serially
