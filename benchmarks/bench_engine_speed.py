"""Infrastructure benchmark — execution-engine wall-clock comparison.

Not a paper artifact: measures this repository's execution engines
(tree-walking interpreter vs closure-compiled fast path) on BDNA, both
on the serial run and on the full speculative protocol.  The compiled
engines must produce bit-identical simulated times, test outcomes and
memory state — the only thing allowed to differ is the real wall clock.
The two engines of every comparison run alternately, round by round,
and each side keeps its best of ``ROUNDS`` (``paired_min_wall``), so a
scheduler hiccup on one side cannot fail a ratio gate.
"""

import numpy as np

from conftest import (
    calibrate,
    min_wall,
    paired_min_wall,
    run_once,
    write_bench_json,
)
from repro.analysis.instrument import build_plan
from repro.dsl.parser import parse
from repro.interp.env import Environment
from repro.interp.interpreter import Interpreter, split_at_loop
from repro.machine.costmodel import fx80
from repro.machine.schedule import ScheduleKind
from repro.machine.simulator import DoallSimulator
from repro.runtime.orchestrator import LoopRunner, RunConfig, Strategy
from repro.runtime.serial import run_serial
from repro.runtime.speculative import run_speculative
from repro.workloads.bdna import build_bdna
from repro.workloads.spice import build_spice
from repro.workloads.synthetic import build_synthdoacross
from repro.workloads.track import build_track

ROUNDS = 7
PROCS = 8


def _env_state(env: Environment):
    return (
        {name: arr.copy() for name, arr in env.arrays.items()},
        dict(env.scalars),
    )


def _assert_same_env(state_a, state_b) -> None:
    arrays_a, scalars_a = state_a
    arrays_b, scalars_b = state_b
    assert scalars_a == scalars_b
    assert arrays_a.keys() == arrays_b.keys()
    for name, arr in arrays_a.items():
        assert np.array_equal(arr, arrays_b[name]), name


def test_engine_speed_serial(benchmark, artifact):
    workload = build_bdna(n=400)
    program = parse(workload.source)

    def measure():
        return paired_min_wall(
            lambda: run_serial(program, workload.inputs, fx80(), engine="walk"),
            lambda: run_serial(program, workload.inputs, fx80(), engine="compiled"),
            rounds=ROUNDS,
        )

    (walk_wall, walk_run), (fast_wall, fast_run) = run_once(benchmark, measure)

    artifact(
        "engine_speed",
        "\n".join(
            [
                f"Execution engines on BDNA n=400 (serial run, best of {ROUNDS})",
                f"tree walker : {walk_wall * 1000:8.1f} ms wall clock",
                f"compiled    : {fast_wall * 1000:8.1f} ms wall clock "
                f"({walk_wall / fast_wall:.2f}x)",
                f"identical simulated loop time: "
                f"{walk_run.loop_time == fast_run.loop_time}",
            ]
        ),
    )

    # Same simulated behaviour...
    assert walk_run.loop_time == fast_run.loop_time
    assert walk_run.num_iterations == fast_run.num_iterations
    assert walk_run.loop_iteration_costs == fast_run.loop_iteration_costs
    # ...delivered faster for real.
    assert fast_wall < walk_wall


def test_engine_speed_speculative(benchmark, artifact):
    """The compiled speculative engine: >=2x over the instrumented walker.

    Runs the full protocol (checkpoint, marked doall, LRPD analysis,
    merge) on BDNA and asserts bit-identical simulated loop time, shadow
    analysis result and post-loop environment between the engines.
    """
    workload = build_bdna(n=400)
    program = parse(workload.source)
    plan = build_plan(program)
    loop = plan.loop
    before, _after = split_at_loop(program, loop)

    def speculative(engine: str):
        env = Environment(program, workload.inputs)
        Interpreter(program, env, value_based=False).exec_block(before)
        sim = DoallSimulator(fx80().with_procs(PROCS), ScheduleKind.BLOCK)
        outcome = run_speculative(program, loop, env, plan, sim, engine=engine)
        return outcome, _env_state(env)

    def measure():
        calibration_s = calibrate()
        walk, fast = paired_min_wall(
            lambda: speculative("walk"), lambda: speculative("compiled"),
            rounds=ROUNDS,
        )
        return calibration_s, walk, fast

    calibration_s, (walk_wall, (walk_out, walk_env)), (fast_wall, (fast_out, fast_env)) = (
        run_once(benchmark, measure)
    )
    ratio = walk_wall / fast_wall

    write_bench_json(
        "engine_speed",
        calibration_s,
        {"walk_speculative": walk_wall, "compiled_speculative": fast_wall},
        extra={"walk_over_compiled": ratio},
    )

    artifact(
        "engine_speed_speculative",
        "\n".join(
            [
                f"Execution engines on BDNA n=400 "
                f"(speculative protocol, p={PROCS}, best of {ROUNDS})",
                f"instrumented walker: {walk_wall * 1000:8.1f} ms wall clock",
                f"compiled engine    : {fast_wall * 1000:8.1f} ms wall clock "
                f"({ratio:.2f}x)",
                f"LRPD passed (both engines): {walk_out.result.passed}",
                f"identical simulated times : {walk_out.times == fast_out.times}",
            ]
        ),
    )

    # Bit-identical simulated protocol under both engines.
    assert walk_out.result == fast_out.result
    assert walk_out.result.passed
    assert walk_out.times == fast_out.times
    assert walk_out.stats == fast_out.stats
    _assert_same_env(walk_env, fast_env)
    # The perf target: the compiled engine halves the attempt's wall clock.
    assert ratio >= 2.0, f"compiled speculative engine only {ratio:.2f}x"


def test_engine_speed_vectorized(benchmark, artifact):
    """The vectorized whole-block engine: >=3x over compiled on BDNA.

    The larger n=800 instance is where whole-block lowering pays: the
    per-iteration Python dispatch the compiled engine still does is
    replaced by a handful of NumPy kernels over index vectors plus one
    bulk shadow-marking pass.  The block must actually commit (no
    fallback) and every observable must match the compiled engine.
    """
    workload = build_bdna(n=800)
    program = parse(workload.source)
    plan = build_plan(program)
    loop = plan.loop
    before, _after = split_at_loop(program, loop)

    def speculative(engine: str):
        env = Environment(program, workload.inputs)
        Interpreter(program, env, value_based=False).exec_block(before)
        sim = DoallSimulator(fx80().with_procs(PROCS), ScheduleKind.BLOCK)
        outcome = run_speculative(program, loop, env, plan, sim, engine=engine)
        return outcome, _env_state(env)

    def measure():
        calibration_s = calibrate()
        fast, vec = paired_min_wall(
            lambda: speculative("compiled"), lambda: speculative("vectorized"),
            rounds=ROUNDS,
        )
        return calibration_s, fast, vec

    calibration_s, (fast_wall, (fast_out, fast_env)), (vec_wall, (vec_out, vec_env)) = (
        run_once(benchmark, measure)
    )
    ratio = fast_wall / vec_wall

    write_bench_json(
        "engine_speed",
        calibration_s,
        {
            "compiled_speculative_n800": fast_wall,
            "vectorized_speculative": vec_wall,
        },
        extra={"compiled_over_vectorized": ratio},
        merge=True,
    )

    artifact(
        "engine_speed_vectorized",
        "\n".join(
            [
                f"Execution engines on BDNA n=800 "
                f"(speculative protocol, p={PROCS}, best of {ROUNDS})",
                f"compiled engine  : {fast_wall * 1000:8.1f} ms wall clock",
                f"vectorized engine: {vec_wall * 1000:8.1f} ms wall clock "
                f"({ratio:.2f}x)",
                f"block committed vectorized: "
                f"{vec_out.run.engine_used == 'vectorized'}",
                f"LRPD passed (both engines): {fast_out.result.passed}",
                f"identical simulated times : {fast_out.times == vec_out.times}",
            ]
        ),
    )

    # The block must commit — a silent fallback would time compiled twice.
    assert vec_out.run.engine_used == "vectorized"
    assert vec_out.run.fallback_reason is None
    # Bit-identical simulated protocol under both engines.
    assert fast_out.result == vec_out.result
    assert fast_out.result.passed
    assert fast_out.times == vec_out.times
    assert fast_out.stats == vec_out.stats
    assert fast_out.run.iteration_costs == vec_out.run.iteration_costs
    _assert_same_env(fast_env, vec_env)
    # The perf target: whole-block lowering is >=3x over closure dispatch.
    assert ratio >= 3.0, f"vectorized speculative engine only {ratio:.2f}x"


def test_engine_speed_transcendental(benchmark, artifact):
    """The vectorized engine on TRACK, whose body calls ``exp``.

    exp/log/sin/cos run through ``math.*`` once per active lane, so the
    block commits whole instead of degrading to compiled; TRACK's
    privatized ``out``/``iw`` live in the sparse lane store.  The block
    must commit (no fallback) and every observable must match the
    compiled engine.
    """
    workload = build_track()
    program = parse(workload.source)
    plan = build_plan(program)
    loop = plan.loop
    before, _after = split_at_loop(program, loop)

    def speculative(engine: str):
        env = Environment(program, workload.inputs)
        Interpreter(program, env, value_based=False).exec_block(before)
        sim = DoallSimulator(fx80().with_procs(PROCS), ScheduleKind.BLOCK)
        outcome = run_speculative(program, loop, env, plan, sim, engine=engine)
        return outcome, _env_state(env)

    def measure():
        calibration_s = calibrate()
        fast, vec = paired_min_wall(
            lambda: speculative("compiled"), lambda: speculative("vectorized"),
            rounds=ROUNDS,
        )
        return calibration_s, fast, vec

    calibration_s, (fast_wall, (fast_out, fast_env)), (vec_wall, (vec_out, vec_env)) = (
        run_once(benchmark, measure)
    )
    ratio = fast_wall / vec_wall

    write_bench_json(
        "engine_speed",
        calibration_s,
        {"vectorized_transcendental": vec_wall},
        extra={"compiled_over_vectorized_transcendental": ratio},
        merge=True,
    )

    artifact(
        "engine_speed_transcendental",
        "\n".join(
            [
                f"Execution engines on TRACK n={len(workload.inputs['data'])} "
                f"(speculative protocol, p={PROCS}, best of {ROUNDS})",
                f"compiled engine  : {fast_wall * 1000:8.1f} ms wall clock",
                f"vectorized engine: {vec_wall * 1000:8.1f} ms wall clock "
                f"({ratio:.2f}x)",
                f"block committed vectorized: "
                f"{vec_out.run.engine_used == 'vectorized'}",
                f"LRPD passed (both engines): {fast_out.result.passed}",
                f"identical simulated times : {fast_out.times == vec_out.times}",
            ]
        ),
    )

    # The block must commit — a silent fallback would time compiled twice.
    assert vec_out.run.engine_used == "vectorized"
    assert vec_out.run.fallback_reason is None
    # Bit-identical simulated protocol under both engines.
    assert fast_out.result == vec_out.result
    assert fast_out.result.passed
    assert fast_out.times == vec_out.times
    assert fast_out.stats == vec_out.stats
    assert fast_out.run.iteration_costs == vec_out.run.iteration_costs
    _assert_same_env(fast_env, vec_env)


def test_engine_speed_spice(benchmark, artifact):
    """The vectorized engine on SPICE, which reduces ``y`` through the
    private temporary ``t`` in both arms of an ``if``.

    The lanes log each contribution for the exec-order partial fold
    instead of materializing the running value, so the block commits
    whole instead of degrading to compiled.  The block must commit (no
    fallback) and every observable must match the compiled engine.
    """
    workload = build_spice()
    program = parse(workload.source)
    plan = build_plan(program)
    loop = plan.loop
    before, _after = split_at_loop(program, loop)

    # The serial linked-list traversal ahead of the doall runs once, on
    # the tree walker; each timed run starts from a copy of its state.
    entry = Environment(program, workload.inputs)
    Interpreter(program, entry, value_based=False).exec_block(before)

    def speculative(engine: str):
        env = entry.copy()
        sim = DoallSimulator(fx80().with_procs(PROCS), ScheduleKind.BLOCK)
        outcome = run_speculative(program, loop, env, plan, sim, engine=engine)
        return outcome, _env_state(env)

    def measure():
        calibration_s = calibrate()
        fast, vec = paired_min_wall(
            lambda: speculative("compiled"), lambda: speculative("vectorized"),
            rounds=ROUNDS,
        )
        return calibration_s, fast, vec

    calibration_s, (fast_wall, (fast_out, fast_env)), (vec_wall, (vec_out, vec_env)) = (
        run_once(benchmark, measure)
    )
    ratio = fast_wall / vec_wall

    write_bench_json(
        "engine_speed",
        calibration_s,
        {"vectorized_spice": vec_wall},
        extra={"compiled_over_vectorized_spice": ratio},
        merge=True,
    )

    artifact(
        "engine_speed_spice",
        "\n".join(
            [
                f"Execution engines on SPICE n={workload.inputs['n']} "
                f"(speculative protocol, p={PROCS}, best of {ROUNDS})",
                f"compiled engine  : {fast_wall * 1000:8.1f} ms wall clock",
                f"vectorized engine: {vec_wall * 1000:8.1f} ms wall clock "
                f"({ratio:.2f}x)",
                f"block committed vectorized: "
                f"{vec_out.run.engine_used == 'vectorized'}",
                f"LRPD passed (both engines): {fast_out.result.passed}",
                f"identical simulated times : {fast_out.times == vec_out.times}",
            ]
        ),
    )

    # The block must commit — a silent fallback would time compiled twice.
    assert vec_out.run.engine_used == "vectorized"
    assert vec_out.run.fallback_reason is None
    # Bit-identical simulated protocol under both engines.
    assert fast_out.result == vec_out.result
    assert fast_out.result.passed
    assert fast_out.times == vec_out.times
    assert fast_out.stats == vec_out.stats
    assert fast_out.run.iteration_costs == vec_out.run.iteration_costs
    _assert_same_env(fast_env, vec_env)


def test_engine_speed_auto(benchmark, artifact):
    """The auto planner matches explicit vectorized on BDNA n=800.

    ``engine="auto"`` must pick the vectorized engine here (classifier
    accepts, trip count far above the threshold) and its one-off
    planning cost — a classifier pass over the loop body — must be noise
    next to the block execution, so the wall clock stays within
    tolerance of the explicit request.  Everything else is the standard
    parity contract.
    """
    workload = build_bdna(n=800)
    program = parse(workload.source)
    plan = build_plan(program)
    loop = plan.loop
    before, _after = split_at_loop(program, loop)

    def speculative(engine: str):
        env = Environment(program, workload.inputs)
        Interpreter(program, env, value_based=False).exec_block(before)
        sim = DoallSimulator(fx80().with_procs(PROCS), ScheduleKind.BLOCK)
        outcome = run_speculative(program, loop, env, plan, sim, engine=engine)
        return outcome, _env_state(env)

    def measure():
        calibration_s = calibrate()
        vec, auto = paired_min_wall(
            lambda: speculative("vectorized"), lambda: speculative("auto"),
            rounds=ROUNDS,
        )
        return calibration_s, vec, auto

    calibration_s, (vec_wall, (vec_out, vec_env)), (auto_wall, (auto_out, auto_env)) = (
        run_once(benchmark, measure)
    )
    overhead = auto_wall / vec_wall

    write_bench_json(
        "engine_speed",
        calibration_s,
        {"auto_speculative": auto_wall},
        extra={"auto_over_vectorized": overhead},
        merge=True,
    )

    artifact(
        "engine_speed_auto",
        "\n".join(
            [
                f"Auto engine selection on BDNA n=800 "
                f"(speculative protocol, p={PROCS}, best of {ROUNDS})",
                f"explicit vectorized: {vec_wall * 1000:8.1f} ms wall clock",
                f"auto (planner)     : {auto_wall * 1000:8.1f} ms wall clock "
                f"({overhead:.2f}x)",
                f"planner picked     : {auto_out.run.engine_used} "
                f"({auto_out.run.engine_decision})",
                f"identical simulated times : {vec_out.times == auto_out.times}",
            ]
        ),
    )

    # The planner must pick the whole-block engine and say why.
    assert auto_out.run.engine_used == "vectorized"
    assert "classifier accepted" in auto_out.run.engine_decision
    # Bit-identical simulated protocol either way.
    assert vec_out.result == auto_out.result
    assert vec_out.result.passed
    assert vec_out.times == auto_out.times
    assert vec_out.stats == auto_out.stats
    assert vec_out.run.iteration_costs == auto_out.run.iteration_costs
    _assert_same_env(vec_env, auto_env)
    # Planning overhead is noise: within 25% of the explicit request
    # (the same tolerance the CI regression gate applies).
    assert overhead <= 1.25, f"auto planner overhead {overhead:.2f}x"


def test_engine_speed_fresh_runner(benchmark, artifact):
    """A fresh ``LoopRunner``'s first speculative run, end to end.

    This is what every ``repro run`` pays: plan, loop-entry setup,
    marked doall, LRPD analysis and commit.  The speedup denominator
    comes from the doall's own iteration costs, so no serial reference
    run is paid; it must still equal the tree walker's serial loop time
    bit for bit.
    """
    workload = build_bdna(n=800)
    program = parse(workload.source)
    config = RunConfig(model=fx80().with_procs(PROCS), engine="vectorized")

    def fresh_run():
        runner = LoopRunner(program, workload.inputs)
        return runner.run(Strategy.SPECULATIVE, config)

    def measure():
        calibration_s = calibrate()
        return calibration_s, min_wall(fresh_run, rounds=ROUNDS)

    calibration_s, (wall, report) = run_once(benchmark, measure)
    oracle = run_serial(program, workload.inputs, config.model, engine="walk")

    write_bench_json(
        "engine_speed",
        calibration_s,
        {"fresh_runner_speculative": wall},
        merge=True,
    )

    artifact(
        "engine_speed_fresh_runner",
        "\n".join(
            [
                f"Fresh LoopRunner on BDNA n=800 "
                f"(speculative, vectorized, p={PROCS}, best of {ROUNDS})",
                f"end to end       : {wall * 1000:8.1f} ms wall clock",
                f"engine used      : {report.engine_used}",
                f"LRPD passed      : {report.passed}",
                f"serial loop time : {report.serial_loop_time:.1f} cycles "
                f"(walk oracle {oracle.loop_time:.1f})",
                f"simulated speedup: {report.speedup:.2f}",
            ]
        ),
    )

    assert report.passed
    assert report.engine_used == "vectorized"
    # The derived denominator is the serial oracle's, bit for bit.
    assert report.serial_loop_time == oracle.loop_time


def test_engine_speed_rollback(benchmark, artifact):
    """A fresh ``LoopRunner``'s speculative run that fails and rolls back.

    SYNTH_DOACROSS carries a flow dependence on every chain, so the LRPD
    test fails and the run pays checkpoint, marked doall, analysis,
    restore and the serial re-execution — the failure path the paper
    prices as serial time plus a bounded overhead.  The re-executed
    state and the serial loop time must equal the tree walker's, bit for
    bit.
    """
    workload = build_synthdoacross(400)
    program = parse(workload.source)
    config = RunConfig(model=fx80().with_procs(PROCS), engine="vectorized")

    def fresh_run():
        runner = LoopRunner(program, workload.inputs)
        return runner.run(Strategy.SPECULATIVE, config)

    def measure():
        calibration_s = calibrate()
        return calibration_s, min_wall(fresh_run, rounds=ROUNDS)

    calibration_s, (wall, report) = run_once(benchmark, measure)
    oracle = run_serial(program, workload.inputs, config.model, engine="walk")

    write_bench_json(
        "engine_speed",
        calibration_s,
        {"rollback_speculative": wall},
        merge=True,
    )

    artifact(
        "engine_speed_rollback",
        "\n".join(
            [
                f"Fresh LoopRunner on SYNTH_DOACROSS n=400 "
                f"(speculative, vectorized, p={PROCS}, best of {ROUNDS})",
                f"end to end       : {wall * 1000:8.1f} ms wall clock",
                f"LRPD passed      : {report.passed}",
                f"serial re-run    : {report.times.serial_rerun:.1f} cycles "
                f"(walk oracle {oracle.loop_time:.1f})",
                f"simulated speedup: {report.speedup:.2f}",
            ]
        ),
    )

    assert report.passed is False
    assert report.times.serial_rerun == oracle.loop_time
    assert report.serial_loop_time == oracle.loop_time
    assert {k: repr(v) for k, v in report.env.scalars.items()} == {
        k: repr(v) for k, v in oracle.env.scalars.items()
    }
    assert report.env.arrays.keys() == oracle.env.arrays.keys()
    for name, expected in oracle.env.arrays.items():
        assert report.env.arrays[name].tobytes() == expected.tobytes(), name


def test_engine_speed_small_trip(benchmark, artifact):
    """``auto`` on a small-trip loop: BDNA n=120, 120 iterations.

    This is the loop the retired worker backends were gated on.  The
    planner must commit it whole-block on ``vectorized`` with no
    fallback, single-process, and every observable — verdict, simulated
    times, stats, shadow marks and post-loop memory — must match the
    compiled engine bit for bit.
    """
    workload = build_bdna(n=120)
    program = parse(workload.source)
    plan = build_plan(program)
    loop = plan.loop
    before, _after = split_at_loop(program, loop)

    def speculative(engine: str):
        env = Environment(program, workload.inputs)
        Interpreter(program, env, value_based=False).exec_block(before)
        sim = DoallSimulator(fx80().with_procs(PROCS), ScheduleKind.BLOCK)
        outcome = run_speculative(program, loop, env, plan, sim, engine=engine)
        return outcome, _env_state(env)

    def measure():
        calibration_s = calibrate()
        fast, auto = paired_min_wall(
            lambda: speculative("compiled"), lambda: speculative("auto"),
            rounds=ROUNDS,
        )
        return calibration_s, fast, auto

    calibration_s, (fast_wall, (fast_out, fast_env)), (auto_wall, (auto_out, auto_env)) = (
        run_once(benchmark, measure)
    )
    ratio = fast_wall / auto_wall

    write_bench_json(
        "engine_speed",
        calibration_s,
        {"bdna_small_auto": auto_wall},
        extra={"compiled_over_auto_small_trip": ratio},
        merge=True,
    )

    artifact(
        "engine_speed_small_trip",
        "\n".join(
            [
                f"Small-trip BDNA n=120 "
                f"(speculative protocol, p={PROCS}, best of {ROUNDS})",
                f"compiled engine: {fast_wall * 1000:8.1f} ms wall clock",
                f"auto (planner) : {auto_wall * 1000:8.1f} ms wall clock "
                f"({ratio:.2f}x)",
                f"planner picked : {auto_out.run.engine_used} "
                f"({auto_out.run.engine_decision})",
                f"identical simulated times : {fast_out.times == auto_out.times}",
            ]
        ),
    )

    # The planner must commit the block — no fallback to compiled.
    assert auto_out.run.engine_used == "vectorized"
    assert auto_out.run.fallback_reason is None
    # Bit-identical simulated protocol under both engines.
    assert fast_out.result == auto_out.result
    assert fast_out.result.passed
    assert fast_out.times == auto_out.times
    assert fast_out.stats == auto_out.stats
    assert fast_out.run.iteration_costs == auto_out.run.iteration_costs
    for name, shadow in fast_out.run.marker.shadows.items():
        other = auto_out.run.marker.shadows[name]
        assert (shadow.tw, shadow.tm) == (other.tw, other.tm), name
        for field in ("w", "r", "np_", "nx", "redux_touched", "multi_w"):
            assert np.array_equal(
                getattr(shadow, field), getattr(other, field)
            ), f"{name}.{field}"
    _assert_same_env(fast_env, auto_env)
