"""Property: every registered engine ≡ the tree walker.

Random execution-safe programs (guarded arithmetic, in-range subscripts)
must produce identical final state AND identical operation counts under
every serial-capable engine — the compiled fast path may not drift
semantically.  The same holds for the speculative engines: random
workloads with reductions, passing and failing speculations (including
eager aborts) must yield the same LRPD outcome, shadow counts, simulated
times and memory state for every registered engine (the vectorized
whole-block engine commits in bulk or falls back, the ``auto`` planner
delegates to its pick — all bit-identical by contract).

The engine lists are drawn from the registry, so a newly registered
engine joins these suites automatically.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.instrument import build_plan
from repro.dsl.parser import parse
from repro.interp.compiled import compile_program
from repro.interp.env import Environment
from repro.interp.interpreter import Interpreter
from repro.machine.costmodel import fx80
from repro.machine.schedule import ScheduleKind
from repro.machine.simulator import DoallSimulator
from repro.runtime.engines import registry
from repro.runtime.serial import run_serial
from repro.runtime.speculative import run_speculative

#: every registered engine, run single-process (the worker-sharded
#: path has its own parity suite in tests/runtime/test_thread_backend.py
#: and tests/property/test_parallel_props.py).
IN_PROCESS_ENGINES = registry.names()

N = 8
SIZE = 10

TEMPLATE = f"""
program randexec
  integer i, j, n
  integer idx({N}), gate({N})
  real a({SIZE}), b({SIZE}), x, y
  do i = 1, n
    x = a(idx(i)) * {{c1}} + real(i)
    if (gate(i) == 1 and x > {{c2}}) then
      b(idx(i)) = x - y
      y = y + {{c3}}
    else
      do j = 1, {{inner}}
        b(j) = b(j) * {{c4}} + x
      end do
    end if
    a(idx(i)) = min(max(x, -100.0), 100.0)
  end do
end
"""

constants = st.floats(
    min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False
)
indices = st.lists(st.integers(min_value=1, max_value=SIZE), min_size=N, max_size=N)
gates = st.lists(st.integers(min_value=0, max_value=1), min_size=N, max_size=N)


@settings(max_examples=100, deadline=None)
@given(
    c1=constants, c2=constants, c3=constants, c4=constants,
    inner=st.integers(min_value=0, max_value=4),
    idx=indices, gate=gates,
)
def test_engines_agree(c1, c2, c3, c4, inner, idx, gate):
    source = TEMPLATE.format(c1=repr(abs(c1)), c2=repr(abs(c2)),
                             c3=repr(abs(c3)), c4=repr(abs(c4)), inner=inner)
    inputs = {
        "n": N,
        "idx": np.array(idx),
        "gate": np.array(gate),
        "a": np.linspace(-1.0, 1.0, SIZE),
        "b": np.linspace(2.0, 3.0, SIZE),
        "y": 0.25,
    }

    program_a = parse(source)
    env_a = Environment(program_a, inputs)
    walker = Interpreter(program_a, env_a, value_based=False)
    walker.run()

    program_b = parse(source)
    env_b = Environment(program_b, inputs)
    cost_b = compile_program(program_b).run(env_b)

    assert env_a.scalars == env_b.scalars
    np.testing.assert_array_equal(env_a.arrays["a"], env_b.arrays["a"])
    np.testing.assert_array_equal(env_a.arrays["b"], env_b.arrays["b"])
    assert walker.cost.total() == cost_b.total()

    # Every serial-capable engine in the registry agrees with the walker
    # on state, iteration costs and phase times.
    runs = {
        engine.name: run_serial(
            parse(source), inputs, fx80(), engine=engine.name
        )
        for engine in registry.all()
        if engine.caps.supports_serial
    }
    reference = runs["walk"]
    for name, other in runs.items():
        if name == "walk":
            continue
        assert reference.env.scalars == other.env.scalars
        np.testing.assert_array_equal(
            reference.env.arrays["a"], other.env.arrays["a"]
        )
        np.testing.assert_array_equal(
            reference.env.arrays["b"], other.env.arrays["b"]
        )
        assert reference.loop_iteration_costs == other.loop_iteration_costs
        assert reference.loop_time == other.loop_time
        assert reference.setup_time == other.setup_time
        assert reference.teardown_time == other.teardown_time


SPEC_N = 10
SPEC_SIZE = 12

SPEC_TEMPLATE = f"""
program randspec
  integer i, n
  integer w({SPEC_N}), r({SPEC_N}), ridx({SPEC_N})
  real a({SPEC_SIZE}), s({SPEC_SIZE}), v({SPEC_N}), x, y, hi, lo
  do i = 1, n
    x = a(r(i)) + v(i)
    y = exp(x * 0.5) + sin(x) - log(abs(x) + 1.0) * cos(v(i))
    a(w(i)) = y * 0.5
    s(ridx(i)) = s(ridx(i)) + x
    hi = max(hi, y)
    lo = min(x, lo)
  end do
end
"""

spec_indices = st.lists(
    st.integers(min_value=1, max_value=SPEC_SIZE),
    min_size=SPEC_N, max_size=SPEC_N,
)


@settings(max_examples=50, deadline=None)
@given(w=spec_indices, r=spec_indices, ridx=spec_indices, eager=st.booleans())
def test_speculative_engines_agree(w, r, ridx, eager):
    """Walker ≡ compiled ≡ vectorized on the full speculative protocol.

    The random w/r vectors produce passing runs (disjoint, privatizable)
    and failing ones (cross-iteration flow dependences) — with ``eager``
    the latter abort mid-doall, exercising the batched-marking engine's
    small-buffer replay path.  The body also carries exp/sin/log/cos
    terms and ``max``/``min`` scalar reductions in both operand orders.
    Every observable must match: LRPD result (per-array tw/tm/failed
    elements), simulated time breakdown, run stats (marks, iterations,
    aborted_after) and the post-loop memory, scalars compared by repr so
    a -0.0/0.0 difference counts.
    """
    source = SPEC_TEMPLATE
    inputs = {
        "n": SPEC_N,
        "w": np.array(w),
        "r": np.array(r),
        "ridx": np.array(ridx),
        "v": np.linspace(0.5, 1.5, SPEC_N),
        "a": np.linspace(-1.0, 1.0, SPEC_SIZE),
        "s": np.zeros(SPEC_SIZE),
        "x": 0.0,
        "y": 0.0,
        "hi": -10.0,
        "lo": 10.0,
    }

    outcomes = {}
    envs = {}
    for engine in IN_PROCESS_ENGINES:
        program = parse(source)
        plan = build_plan(program)
        env = Environment(program, inputs)
        sim = DoallSimulator(fx80().with_procs(4), ScheduleKind.BLOCK)
        outcomes[engine] = run_speculative(
            program, plan.loop, env, plan, sim, eager=eager, engine=engine
        )
        envs[engine] = env

    walk = outcomes["walk"]
    for engine in IN_PROCESS_ENGINES:
        if engine == "walk":
            continue
        other = outcomes[engine]
        assert walk.result == other.result
        assert walk.times == other.times
        assert walk.stats == other.stats
        assert walk.run.aborted == other.run.aborted
        assert walk.run.executed_iterations == other.run.executed_iterations
        assert walk.run.iteration_costs == other.run.iteration_costs
        assert {k: repr(v) for k, v in envs["walk"].scalars.items()} == {
            k: repr(v) for k, v in envs[engine].scalars.items()
        }
        for name in ("a", "s"):
            np.testing.assert_array_equal(
                envs["walk"].arrays[name], envs[engine].arrays[name]
            )


TEMP_N = 20
TEMP_SIZE = 6

TEMP_TEMPLATE = f"""
program randtemp
  integer i, n
  integer w({TEMP_N}), r({TEMP_N}), k({TEMP_N}), gate({TEMP_N})
  real a({TEMP_SIZE}), b({TEMP_SIZE}), y({TEMP_SIZE}), v({TEMP_N}), x, t
  do i = 1, n
    x = b(r(i)) + v(i)
    if (gate(i) == 1 and x > {{c}}) then
      t = y(k(i)) + x * {{c1}}
    else
      t = y(k(i)) - v(i) * {{c2}}
    end if
    a(w(i)) = x * 0.5
    y(k(i)) = t
  end do
end
"""

temp_indices = st.lists(
    st.integers(min_value=1, max_value=TEMP_SIZE),
    min_size=TEMP_N, max_size=TEMP_N,
)


@settings(max_examples=40, deadline=None)
@given(
    c=constants, c1=constants, c2=constants,
    w=temp_indices, r=temp_indices, k=temp_indices,
    gate=st.lists(
        st.integers(min_value=0, max_value=1), min_size=TEMP_N, max_size=TEMP_N
    ),
    eager=st.booleans(),
)
def test_reduction_through_temporary_engines_agree(c, c1, c2, w, r, k, gate, eager):
    """The SPICE shape: ``y`` reduced through the private temporary
    ``t`` in both arms of an ``if`` on loaded data, over colliding
    ``k`` (and a privatized ``a`` written at colliding ``w``).  Every
    registered engine matches the walker on every observable, and
    ``vectorized`` and ``auto`` commit the block whole."""
    source = TEMP_TEMPLATE.format(c=repr(c), c1=repr(c1), c2=repr(c2))
    inputs = {
        "n": TEMP_N,
        "w": np.array(w),
        "r": np.array(r),
        "k": np.array(k),
        "gate": np.array(gate),
        "v": np.linspace(-1.5, 1.5, TEMP_N),
        "b": np.linspace(-1.0, 1.0, TEMP_SIZE),
        "y": np.linspace(0.5, -0.5, TEMP_SIZE),
        "x": 0.0,
        "t": 0.0,
    }

    outcomes = {}
    envs = {}
    for engine in IN_PROCESS_ENGINES:
        program = parse(source)
        plan = build_plan(program)
        env = Environment(program, inputs)
        sim = DoallSimulator(fx80().with_procs(4), ScheduleKind.BLOCK)
        outcomes[engine] = run_speculative(
            program, plan.loop, env, plan, sim, eager=eager, engine=engine
        )
        envs[engine] = env

    assert "y" in plan.reduction_arrays
    assert outcomes["walk"].result.passed
    assert outcomes["vectorized"].run.engine_used == "vectorized"
    assert outcomes["auto"].run.engine_used == "vectorized"
    walk = outcomes["walk"]
    for engine in IN_PROCESS_ENGINES:
        if engine == "walk":
            continue
        other = outcomes[engine]
        assert walk.result == other.result
        assert walk.times == other.times
        assert walk.stats == other.stats
        assert walk.run.iteration_costs == other.run.iteration_costs
        assert {k: repr(v) for k, v in envs["walk"].scalars.items()} == {
            k: repr(v) for k, v in envs[engine].scalars.items()
        }
        for name in ("a", "y"):
            np.testing.assert_array_equal(
                envs["walk"].arrays[name], envs[engine].arrays[name]
            )
