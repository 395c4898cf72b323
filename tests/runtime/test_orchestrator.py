"""LoopRunner orchestration tests: strategies, refusal, schedule reuse."""

import numpy as np
import pytest

from repro.dsl.parser import parse
from repro.machine.costmodel import CostModel
from repro.runtime.adaptive import AdaptiveRunner
from repro.runtime.orchestrator import LoopRunner, RunConfig, Strategy
from repro.runtime.serial import run_serial
from repro.workloads.bdna import build_bdna

from tests.conftest import assert_env_matches, make_runner

PERMUTED = (
    "program p\n  integer i, n, idx(8)\n  real a(8), v(8)\n"
    "  do i = 1, n\n    a(idx(i)) = v(i) * 2.0\n  end do\nend\n"
)
PERMUTED_INPUTS = {
    "n": 8, "idx": np.array([3, 1, 4, 2, 8, 6, 5, 7]), "v": np.arange(8.0),
}


def config(procs=4, **kw):
    return RunConfig(model=CostModel(num_procs=procs), **kw)


class TestStrategies:
    def test_serial_strategy(self):
        runner = make_runner(PERMUTED, dict(PERMUTED_INPUTS))
        report = runner.run(Strategy.SERIAL, config())
        assert report.strategy == "serial"
        assert report.speedup == pytest.approx(1.0)

    def test_all_strategies_agree_on_state(self):
        results = {}
        for strategy in (Strategy.SERIAL, Strategy.SPECULATIVE, Strategy.INSPECTOR):
            runner = make_runner(PERMUTED, dict(PERMUTED_INPUTS))
            results[strategy] = runner.run(strategy, config())
        base = results[Strategy.SERIAL].env
        for strategy in (Strategy.SPECULATIVE, Strategy.INSPECTOR):
            assert_env_matches(results[strategy].env, base, arrays=["a"])

    def test_describe_is_informative(self):
        runner = make_runner(PERMUTED, dict(PERMUTED_INPUTS))
        text = runner.run(Strategy.SPECULATIVE, config()).describe()
        assert "speculative" in text
        assert "speedup" in text


class TestCarriedScalarRefusal:
    SOURCE = (
        "program p\n  integer i, n\n  real s, a(8)\n"
        "  do i = 1, n\n    a(i) = s\n    s = a(i) + 1.0\n  end do\nend\n"
    )

    def test_refuses_speculation(self):
        runner = make_runner(self.SOURCE, {"n": 8, "s": 1.0})
        report = runner.run(Strategy.SPECULATIVE, config())
        assert report.strategy == "serial"
        assert report.stats.get("refused") == 1.0

    def test_state_still_correct(self):
        runner = make_runner(self.SOURCE, {"n": 8, "s": 1.0})
        serial = runner.serial_run(CostModel(num_procs=4))
        report = runner.run(Strategy.SPECULATIVE, config())
        assert_env_matches(report.env, serial.env, arrays=["a"], scalars=["s"])


class TestScheduleReuse:
    def test_second_invocation_reuses(self):
        runner = make_runner(PERMUTED, dict(PERMUTED_INPUTS))
        cfg = config(use_schedule_cache=True)
        first = runner.run(Strategy.SPECULATIVE, cfg)
        second = runner.run(Strategy.SPECULATIVE, cfg)
        assert not first.reused_schedule
        assert second.reused_schedule
        assert second.loop_time < first.loop_time
        assert second.times.analysis == 0.0

    def test_reused_run_still_correct(self):
        runner = make_runner(PERMUTED, dict(PERMUTED_INPUTS))
        cfg = config(use_schedule_cache=True)
        runner.run(Strategy.SPECULATIVE, cfg)
        serial = runner.serial_run(cfg.model)
        second = runner.run(Strategy.SPECULATIVE, cfg)
        assert_env_matches(second.env, serial.env, arrays=["a"])

    def test_failed_result_cached_too(self):
        source = (
            "program p\n  integer i, n, w(6), r(6)\n  real a(12), v(6)\n"
            "  do i = 1, n\n    a(w(i)) = a(r(i)) + v(i)\n  end do\nend\n"
        )
        inputs = {
            "n": 6,
            "w": np.array([1, 2, 3, 4, 5, 6]),
            "r": np.array([7, 1, 8, 9, 3, 10]),
            "v": np.arange(6.0),
        }
        runner = make_runner(source, inputs)
        cfg = config(use_schedule_cache=True)
        first = runner.run(Strategy.SPECULATIVE, cfg)
        second = runner.run(Strategy.SPECULATIVE, cfg)
        assert not first.passed
        assert second.reused_schedule
        assert not second.passed
        # A cached failure goes straight to serial: no checkpoint at all.
        assert second.times.checkpoint == 0.0

    def test_no_reuse_across_pattern_change(self):
        runner = make_runner(PERMUTED, dict(PERMUTED_INPUTS))
        cfg = config(use_schedule_cache=True)
        runner.run(Strategy.SPECULATIVE, cfg)
        runner.inputs["idx"] = np.arange(8, 0, -1)
        report = runner.run(Strategy.SPECULATIVE, cfg)
        assert not report.reused_schedule


class TestSerialRunCaching:
    def test_serial_run_cached_per_machine(self):
        runner = make_runner(PERMUTED, dict(PERMUTED_INPUTS))
        model = CostModel(num_procs=4)
        first = runner.serial_run(model)
        second = runner.serial_run(model)
        assert first is second


class TestSerialReportIsolation:
    def test_serial_reports_do_not_alias_the_cached_oracle(self):
        workload = build_bdna(n=100)
        runner = LoopRunner(parse(workload.source), workload.inputs)
        cfg = config()
        first = runner.run(Strategy.SERIAL, cfg)
        second = runner.run(Strategy.SERIAL, cfg)
        assert first.env is not second.env
        name = next(iter(second.env.arrays))
        expected = second.env.arrays[name].copy()
        # A caller editing one report must not reach any other.
        first.env.arrays[name][...] = -1
        np.testing.assert_array_equal(second.env.arrays[name], expected)
        np.testing.assert_array_equal(
            runner.serial_run(cfg.model, cfg.engine).env.arrays[name], expected
        )
        third = runner.run(Strategy.SERIAL, cfg)
        np.testing.assert_array_equal(third.env.arrays[name], expected)


class TestSerialTimeAfterInputChange:
    """The speedup denominator follows the inputs of the run it reports."""

    @staticmethod
    def _oracle(runner, model):
        return run_serial(
            runner.program, runner.inputs, model, loop=runner.loop,
            engine="walk",
        ).loop_time

    def test_raw_runner_inputs_replaced_between_runs(self):
        runner = make_runner(PERMUTED, dict(PERMUTED_INPUTS))
        cfg = config()
        first = runner.run(Strategy.SPECULATIVE, cfg)
        assert first.serial_loop_time == self._oracle(runner, cfg.model)
        runner.inputs["n"] = 5
        second = runner.run(Strategy.SPECULATIVE, cfg)
        assert second.serial_loop_time == self._oracle(runner, cfg.model)
        assert second.serial_loop_time < first.serial_loop_time

    def test_adaptive_runner_set_input(self):
        cfg = config()
        adaptive = AdaptiveRunner(
            parse(PERMUTED), dict(PERMUTED_INPUTS), config=cfg
        )
        first = adaptive.invoke()
        adaptive.set_input("n", 5)
        second = adaptive.invoke()
        assert second.strategy == Strategy.SPECULATIVE.value
        assert second.serial_loop_time == self._oracle(adaptive._runner, cfg.model)
        assert second.serial_loop_time < first.serial_loop_time
