"""The vectorized whole-block engine: parity, composition, fallback.

The engine contract (see :mod:`repro.interp.vectorized_spec`) is that a
committed vectorized block is *bit-identical* to the compiled engine on
every observable — LRPD verdict and per-array detail, simulated time
breakdown, run stats, per-iteration costs, post-loop memory — and that
any loop the classifier or a runtime guard rejects silently degrades to
the compiled engine with the reason recorded on the report.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

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
from repro.workloads.adm import build_adm
from repro.workloads.bdna import build_bdna
from repro.workloads.dyfesm import build_dyfesm
from repro.workloads.mdg import build_mdg
from repro.workloads.ocean import build_ocean
from repro.workloads.spice import build_spice
from repro.workloads.synthetic import build_synthdoacross
from repro.workloads.track import build_track

PROCS = 8


def _speculative(workload, engine, *, eager=False, workers=None):
    program = parse(workload.source)
    plan = build_plan(program)
    before, _after = split_at_loop(program, plan.loop)
    env = Environment(program, workload.inputs)
    Interpreter(program, env, value_based=False).exec_block(before)
    sim = DoallSimulator(fx80().with_procs(PROCS), ScheduleKind.BLOCK)
    outcome = run_speculative(
        program, plan.loop, env, plan, sim,
        engine=engine, eager=eager, workers=workers,
    )
    return outcome, env


def _assert_outcomes_identical(ref, ref_env, vec, vec_env):
    assert ref.result == vec.result
    assert ref.times == vec.times
    assert ref.stats == vec.stats
    assert ref.run.aborted == vec.run.aborted
    assert ref.run.executed_iterations == vec.run.executed_iterations
    assert ref.run.iteration_costs == vec.run.iteration_costs
    assert ref_env.scalars == vec_env.scalars
    assert ref_env.arrays.keys() == vec_env.arrays.keys()
    for name in ref_env.arrays:
        np.testing.assert_array_equal(
            ref_env.arrays[name], vec_env.arrays[name], err_msg=name
        )


WORKLOADS = [
    pytest.param(lambda: build_bdna(n=120), id="bdna"),
    pytest.param(lambda: build_mdg(n=80), id="mdg"),
    pytest.param(lambda: build_ocean(nk=150), id="ocean"),
    pytest.param(lambda: build_ocean(nk=150, overlap=True), id="ocean-fail"),
    pytest.param(lambda: build_adm(n=120), id="adm"),
    pytest.param(lambda: build_track(n=150), id="track"),
    pytest.param(lambda: build_dyfesm(n=120), id="dyfesm"),
]


class TestWholeBlockParity:
    @pytest.mark.parametrize("build", WORKLOADS)
    @pytest.mark.parametrize("eager", [False, True], ids=["lazy", "eager"])
    def test_bit_identical_to_compiled(self, build, eager):
        ref, ref_env = _speculative(build(), "compiled", eager=eager)
        vec, vec_env = _speculative(build(), "vectorized", eager=eager)
        _assert_outcomes_identical(ref, ref_env, vec, vec_env)

    def test_committed_block_reports_vectorized_engine(self):
        vec, _env = _speculative(build_bdna(n=60), "vectorized")
        assert vec.run.engine_used == "vectorized"
        assert vec.run.fallback_reason is None

    def test_eager_abort_delegates_with_identical_outcome(self):
        """An eager failure inside the block bails pre-commit; the
        compiled rerun reproduces the mid-doall abort point exactly."""
        ref, ref_env = _speculative(
            build_ocean(nk=150, overlap=True), "compiled", eager=True
        )
        vec, vec_env = _speculative(
            build_ocean(nk=150, overlap=True), "vectorized", eager=True
        )
        assert ref.run.aborted and vec.run.aborted
        assert vec.run.engine_used == "compiled"
        assert vec.run.fallback_reason is not None
        _assert_outcomes_identical(ref, ref_env, vec, vec_env)

    def test_shadow_state_identical(self):
        ref, _a = _speculative(build_mdg(n=60), "compiled")
        vec, _b = _speculative(build_mdg(n=60), "vectorized")
        for name, shadow in ref.run.marker.shadows.items():
            other = vec.run.marker.shadows[name]
            assert shadow.tw == other.tw
            assert shadow.tm == other.tm
            np.testing.assert_array_equal(shadow.w, other.w)
            np.testing.assert_array_equal(shadow.r, other.r)
            np.testing.assert_array_equal(shadow.np_, other.np_)
            np.testing.assert_array_equal(shadow.nx, other.nx)


class TestComposition:
    """The vectorized engine composes with the strip pipeline and the
    thread-pool worker sharding without perturbing a single observable."""

    def _reports(self, config_kwargs):
        reports = {}
        for engine in ("compiled", "vectorized"):
            workload = build_bdna(n=60)
            runner = LoopRunner(workload.program(), workload.inputs)
            cfg = RunConfig(
                model=fx80().with_procs(PROCS), engine=engine, **config_kwargs
            )
            reports[engine] = runner.run(Strategy.STRIPPED, cfg)
        return reports["compiled"], reports["vectorized"]

    @pytest.mark.parametrize("strip_size", [7, 16])
    def test_stripped_pipeline(self, strip_size):
        ref, vec = self._reports({"strip_size": strip_size})
        assert ref.times.as_dict() == vec.times.as_dict()
        assert ref.stats == vec.stats
        assert len(ref.strips) == len(vec.strips)
        assert vec.fallbacks == []
        for name in ref.env.arrays:
            np.testing.assert_array_equal(
                ref.env.arrays[name], vec.env.arrays[name]
            )

    def test_worker_backend(self):
        ref, ref_env = _speculative(build_bdna(n=60), "compiled")
        vec, vec_env = _speculative(build_bdna(n=60), "vectorized", workers=2)
        assert vec.run.engine_used == "vectorized"
        _assert_outcomes_identical(ref, ref_env, vec, vec_env)

    def test_stripped_with_workers(self):
        ref, vec = self._reports({"strip_size": 16, "workers": 2})
        assert ref.times.as_dict() == vec.times.as_dict()
        assert ref.stats == vec.stats
        for name in ref.env.arrays:
            np.testing.assert_array_equal(
                ref.env.arrays[name], vec.env.arrays[name]
            )


    @pytest.mark.parametrize(
        "build, config_kwargs",
        [
            (lambda: build_bdna(n=60), {"workers": 2}),
            (lambda: build_bdna(n=60), {"strip_size": 16}),
            (lambda: build_adm(n=60), {}),
            (lambda: build_adm(n=60), {"strip_size": 16}),
            (lambda: build_track(n=100), {}),
            (lambda: build_track(n=100), {"strip_size": 16}),
            (lambda: build_dyfesm(n=80), {}),
            (lambda: build_dyfesm(n=80), {"strip_size": 16}),
        ],
        ids=[
            "worker_sharded", "stripped", "adm", "adm-stripped", "track",
            "track-stripped", "dyfesm", "dyfesm-stripped",
        ],
    )
    def test_matches_walk_oracle(self, build, config_kwargs):
        """Worker-sharded, strip-mined and plain whole-block runs leave
        the state the tree walker's serial run leaves (dead private
        scalars excepted: a committed doall copies out only live-out
        ones)."""
        workload = build()
        runner = LoopRunner(workload.program(), workload.inputs)
        model = fx80().with_procs(PROCS)
        strategy = (
            Strategy.STRIPPED if "strip_size" in config_kwargs
            else Strategy.SPECULATIVE
        )
        report = runner.run(
            strategy, RunConfig(model=model, engine="vectorized", **config_kwargs)
        )
        oracle = run_serial(
            runner.program, runner.inputs, model, loop=runner.loop,
            engine="walk",
        )
        assert report.passed
        assert report.engine_used == "vectorized"
        assert report.serial_loop_time == oracle.loop_time
        plan = runner.plan
        dead = set(plan.scalar_classes) - plan.live_out_scalars - {plan.loop.var}
        assert dead  # the exemption is real, not vacuous

        def live(env):
            return {k: v for k, v in env.scalars.items() if k not in dead}

        assert live(report.env) == live(oracle.env)
        # At p > 1 the reduction merge reassociates FP sums (1-ULP drift).
        for name in oracle.env.arrays:
            np.testing.assert_allclose(
                report.env.arrays[name], oracle.env.arrays[name],
                rtol=1e-12, atol=0.0, err_msg=name,
            )


class TestFallback:
    def test_rejected_workload_completes_via_compiled(self):
        """SPICE's reduction arrays are read outside their updates — the
        classifier rejects, and the run must complete on the compiled
        engine with the reject reason recorded."""
        ref, ref_env = _speculative(build_spice(n=80), "compiled")
        vec, vec_env = _speculative(build_spice(n=80), "vectorized")
        assert vec.run.engine_used == "compiled"
        assert vec.run.fallback_reason is not None
        assert "reduction" in vec.run.fallback_reason
        _assert_outcomes_identical(ref, ref_env, vec, vec_env)

    def test_fallbacks_recorded_on_report(self):
        workload = build_spice(n=80)
        runner = LoopRunner(workload.program(), workload.inputs)
        report = runner.run(
            Strategy.SPECULATIVE,
            RunConfig(model=fx80().with_procs(4), engine="vectorized"),
        )
        assert len(report.fallbacks) == 1
        loop_key, reason = report.fallbacks[0]
        assert "reduction" in reason
        assert loop_key

    def test_accepted_workload_records_no_fallback(self):
        workload = build_bdna(n=60)
        runner = LoopRunner(workload.program(), workload.inputs)
        report = runner.run(
            Strategy.SPECULATIVE,
            RunConfig(model=fx80().with_procs(4), engine="vectorized"),
        )
        assert report.fallbacks == []

    def test_runtime_bail_falls_back_bit_identically(self):
        """A loop the classifier accepts but whose execution trips a
        runtime guard (scalar carried across iterations of a virtual
        processor) must degrade to compiled mid-flight, pre-commit."""
        source = (
            "program p\n  integer i, n, idx(8)\n  real a(8), v(8), t\n"
            "  do i = 1, n\n    if (v(i) > 0.5) then\n      t = v(i)\n"
            "    end if\n    a(idx(i)) = t\n  end do\nend\n"
        )
        inputs = {
            "n": 8,
            "idx": np.array([3, 1, 4, 2, 8, 6, 5, 7]),
            "v": np.array([0.9, 0.1, 0.8, 0.2, 0.7, 0.3, 0.6, 0.4]),
            "t": 0.0,
        }
        outcomes = {}
        envs = {}
        for engine in ("compiled", "vectorized"):
            program = parse(source)
            plan = build_plan(program)
            env = Environment(program, inputs)
            sim = DoallSimulator(fx80().with_procs(4), ScheduleKind.BLOCK)
            outcomes[engine] = run_speculative(
                program, plan.loop, env, plan, sim, engine=engine
            )
            envs[engine] = env
        vec = outcomes["vectorized"]
        if vec.run.engine_used == "compiled":
            assert vec.run.fallback_reason
        _assert_outcomes_identical(
            outcomes["compiled"], envs["compiled"], vec, envs["vectorized"]
        )


class TestFloatOverflow:
    def test_overflow_is_silent_and_matches_the_walker(self):
        """Python floats overflow to inf silently, so the walker does; a
        vectorized strip whose ``t * t`` overflows must neither print a
        NumPy RuntimeWarning nor leave a different state."""
        workload = build_synthdoacross(160, distance=12, seed=0)
        program = workload.program()
        model = fx80().with_procs(PROCS)
        oracle = run_serial(program, workload.inputs, model, engine="walk")
        runner = LoopRunner(program, workload.inputs)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = runner.run(
                Strategy.STRIPPED,
                RunConfig(model=model, engine="vectorized", strip_size=24),
            )
        assert report.engine_used == "vectorized"
        assert np.isinf(oracle.env.arrays["a"]).any()
        for name, expected in oracle.env.arrays.items():
            assert report.env.arrays[name].tobytes() == expected.tobytes(), name
        assert report.serial_loop_time == oracle.loop_time


def _record_bails(monkeypatch) -> list[str]:
    """Spy on the engine's whole-block attempts; returns the bail reasons."""
    import repro.runtime.engines.vectorized as vectorized_engine
    from repro.interp.vectorized_spec import VectorizeBail

    bails: list[str] = []
    real = vectorized_engine.execute_vectorized_block

    def spy(*args, **kwargs):
        try:
            return real(*args, **kwargs)
        except VectorizeBail as bail:
            bails.append(bail.reason)
            raise

    monkeypatch.setattr(vectorized_engine, "execute_vectorized_block", spy)
    return bails


LIBM_SOURCE = """program libm
  integer i, n, idx(40)
  real a(40), v(40)
  do i = 1, n
    if (v(i) > 0.0) then
      a(idx(i)) = {expr}
    else
      a(idx(i)) = v(i)
    end if
  end do
end
"""


def _libm_inputs(values):
    return {
        "n": 40,
        "idx": np.random.default_rng(0).permutation(40) + 1,
        "v": np.asarray(values, dtype=np.float64),
    }


class TestLibmIntrinsics:
    """exp/log/sin/cos run through ``math.*`` once per active lane."""

    @pytest.mark.parametrize(
        "expr, values, reason",
        [
            ("log(v(i) - 2.0)", np.linspace(0.1, 3.0, 40), "log"),
            ("exp(v(i) * 1000.0)", np.linspace(0.0, 1.0, 40), "exp"),
        ],
        ids=["log-nonpositive", "exp-overflow"],
    )
    def test_raising_lane_bails_then_compiled_raises_walker_error(
        self, monkeypatch, expr, values, reason
    ):
        source = LIBM_SOURCE.format(expr=expr)
        inputs = _libm_inputs(values)
        with pytest.raises(Exception) as walk_error:
            run_serial(parse(source), inputs, fx80(), engine="walk")
        bails = _record_bails(monkeypatch)
        runner = LoopRunner(parse(source), inputs)
        with pytest.raises(type(walk_error.value)) as vec_error:
            runner.run(
                Strategy.SPECULATIVE,
                RunConfig(model=fx80().with_procs(PROCS), engine="vectorized"),
            )
        assert str(vec_error.value) == str(walk_error.value)
        assert len(bails) == 1 and reason in bails[0]

    def test_overflow_on_masked_off_lane_commits_vectorized(self, monkeypatch):
        # exp(0 - 1000 v) overflows on every v < 0 lane, but those lanes
        # take the else branch: like the walker, they never evaluate it.
        source = LIBM_SOURCE.format(expr="exp(0.0 - v(i) * 1000.0) + sin(v(i))")
        inputs = _libm_inputs(np.linspace(-1.0, 1.0, 40))
        model = fx80().with_procs(PROCS)
        oracle = run_serial(parse(source), inputs, model, engine="walk")
        bails = _record_bails(monkeypatch)
        report = LoopRunner(parse(source), inputs).run(
            Strategy.SPECULATIVE, RunConfig(model=model, engine="vectorized")
        )
        assert bails == []
        assert report.engine_used == "vectorized"
        assert report.fallbacks == []
        assert report.serial_loop_time == oracle.loop_time
        for name, expected in oracle.env.arrays.items():
            assert report.env.arrays[name].tobytes() == expected.tobytes(), name


MINMAX_SOURCE = """program minmax
  integer i, n
  integer k(40), kmax, kmin
  real v(40), hi, lo
  do i = 1, n
    hi = max(hi, v(i))
    lo = min(v(i), lo)
    kmax = max(k(i), kmax)
    kmin = min(kmin, k(i))
  end do
end
"""


def _minmax_inputs():
    nan = float("nan")
    v = [-0.0, 0.0, nan, -3.0, -0.0, 0.0, -3.0, nan, 0.0, -0.0] * 3 + [
        -1.0, nan, 0.0, -0.0, -0.0, 0.0, -2.0, nan, 0.0, -0.0,
    ]
    return {
        "n": 40,
        "v": np.asarray(v),
        "k": np.random.default_rng(3).integers(-5, 6, 40),
        "hi": -5.0, "lo": 1.0, "kmax": -100, "kmin": 100,
    }


def _scalar_reprs(env) -> dict[str, str]:
    # repr tells -0.0 from 0.0 and matches nan with nan.
    return {name: repr(value) for name, value in env.scalars.items()}


class TestMinMaxScalarReductions:
    """``s = max(s, e)`` / ``s = min(e, s)`` fold with Python's builtin
    min/max in exec order: first-wins ties (-0.0 vs 0.0), NaN handling
    and integer kind all follow the walker."""

    def _run(self, engine, procs):
        runner = LoopRunner(parse(MINMAX_SOURCE), _minmax_inputs())
        return runner.run(
            Strategy.SPECULATIVE,
            RunConfig(model=fx80().with_procs(procs), engine=engine),
        )

    def test_bit_exact_vs_walk_at_p1(self):
        oracle = run_serial(
            parse(MINMAX_SOURCE), _minmax_inputs(), fx80(), engine="walk"
        )
        expected = _scalar_reprs(oracle.env)
        # The data reaches the interesting cases: a first-wins -0.0 tie
        # for ``hi``, a NaN reset then a tie for the reversed ``lo``.
        assert expected["hi"] == "-0.0" and expected["lo"] == "-0.0"
        report = self._run("vectorized", 1)
        assert report.engine_used == "vectorized"
        assert report.fallbacks == []
        assert _scalar_reprs(report.env) == expected
        assert report.serial_loop_time == oracle.loop_time

    def test_bit_exact_vs_walk_at_p8(self):
        # At p=8 the per-processor partials reassociate the fold, so the
        # walker running the same speculative protocol is the oracle.
        walk = self._run("walk", 8)
        report = self._run("vectorized", 8)
        assert report.engine_used == "vectorized"
        assert report.fallbacks == []
        assert _scalar_reprs(report.env) == _scalar_reprs(walk.env)
        assert report.times.as_dict() == walk.times.as_dict()
        assert report.stats == walk.stats


class TestSparsePrivateStore:
    def test_private_array_above_old_dense_cap_commits_vectorized(self):
        """1,100 lanes × an 8,192-element private array is 9.0M cells —
        over the 2**23 dense budget the engine once bailed on.  The
        sparse lane store holds only the cells the lanes write; the
        masked second store must overwrite the first before the read."""
        n, size = 1100, 8192
        assert n * size > 1 << 23
        source = f"""program bigpriv
  integer i, n, idx({n}), perm({n})
  real w({size}), v({n}), out({n})
  do i = 1, n
    w(idx(i)) = v(i) * 2.0
    if (v(i) > 0.0) then
      w(idx(i)) = v(i) + 1.0
    end if
    out(perm(i)) = w(idx(i)) * 3.0
  end do
end
"""
        rng = np.random.default_rng(7)
        inputs = {
            "n": n,
            "idx": rng.integers(1, size + 1, n),
            "perm": rng.permutation(n) + 1,
            "v": rng.normal(size=n),
        }
        reports = {}
        for engine in ("compiled", "vectorized"):
            runner = LoopRunner(parse(source), inputs)
            reports[engine] = runner.run(
                Strategy.SPECULATIVE,
                RunConfig(model=fx80().with_procs(PROCS), engine=engine),
            )
        # Every tested array gets per-processor private copies.
        assert "w" in runner.plan.tested_arrays
        ref, vec = reports["compiled"], reports["vectorized"]
        assert vec.engine_used == "vectorized"
        assert vec.fallbacks == []
        assert ref.passed and vec.passed
        assert ref.times.as_dict() == vec.times.as_dict()
        assert ref.stats == vec.stats
        for name, expected in ref.env.arrays.items():
            assert vec.env.arrays[name].tobytes() == expected.tobytes(), name


class TestLazyTaints:
    def test_masked_overwrite_keeps_untaken_lanes_taints(self):
        """``t`` holds a pending read of ``a(r(i))``; the ``if`` clears it
        on the taken lanes only, so the untaken lanes must still report
        the read when ``t`` escapes — here it is the read that exposes
        the cross-iteration flow, so the LRPD test must fail."""
        source = (
            "program p\n  integer i, n, r(40), w(40), g(40)\n"
            "  real a(40), b(40), t\n"
            "  do i = 1, n\n    t = a(r(i))\n    if (g(i) == 1) then\n"
            "      t = 1.0\n    end if\n    b(w(i)) = t\n"
            "    a(w(i)) = 2.0\n  end do\nend\n"
        )
        w = np.random.default_rng(5).permutation(40) + 1
        inputs = {
            "n": 40,
            "w": w,
            # each iteration reads what the previous one wrote
            "r": np.roll(w, 1),
            "g": np.arange(40) % 2,
            "a": np.linspace(0.0, 1.0, 40),
            "b": np.zeros(40),
        }
        outcomes, envs = {}, {}
        for engine in ("compiled", "vectorized"):
            program = parse(source)
            plan = build_plan(program)
            env = Environment(program, inputs)
            # Cyclic: the reader of each write runs on another processor,
            # so no lane reads a value carried within its own processor.
            sim = DoallSimulator(fx80().with_procs(4), ScheduleKind.CYCLIC)
            outcomes[engine] = run_speculative(
                program, plan.loop, env, plan, sim, engine=engine,
                schedule=ScheduleKind.CYCLIC,
            )
            envs[engine] = env
        ref, vec = outcomes["compiled"], outcomes["vectorized"]
        assert vec.run.engine_used == "vectorized"
        assert not ref.result.passed
        _assert_outcomes_identical(ref, envs["compiled"], vec, envs["vectorized"])
