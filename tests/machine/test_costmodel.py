"""Cost model tests."""


import pytest

from repro.errors import MachineConfigError
from repro.interp.costs import IterationCost
from repro.machine.costmodel import CostModel, fx80, fx2800


class TestIterationCycles:
    def test_weighted_sum(self):
        model = CostModel(
            flop=1.0, mem_access=2.0, scalar_op=0.5, intrinsic=8.0,
            branch=1.0, mark=4.0,
        )
        cost = IterationCost(
            flops=3, mem_reads=1, mem_writes=1, scalar_ops=4,
            intrinsics=1, branches=2, marks=5,
        )
        assert model.iteration_cycles(cost) == 3 + 4 + 2 + 8 + 2 + 20

    def test_empty_iteration_is_free(self):
        assert CostModel().iteration_cycles(IterationCost()) == 0.0

    def test_unmarked_cycles_drop_only_the_marking(self):
        model = fx80()
        cost = IterationCost(
            flops=3, mem_reads=7, mem_writes=1, scalar_ops=5,
            intrinsics=1, branches=2, marks=5,
        )
        unmarked = model.unmarked_cycles(cost)
        assert unmarked == model.iteration_cycles(cost.without_marks())
        assert model.iteration_cycles(cost) == unmarked + 5 * model.mark


class TestPhases:
    def test_barrier_grows_with_procs(self):
        model = CostModel()
        assert model.barrier(8) > model.barrier(2)

    def test_parallel_sweep_scales_down_with_procs(self):
        model = CostModel()
        assert model.parallel_sweep(1000, 8, 1.0) < model.parallel_sweep(1000, 2, 1.0)

    def test_parallel_sweep_zero_elements_free(self):
        assert CostModel().parallel_sweep(0, 8, 1.0) == 0.0

    def test_analysis_time_includes_barrier(self):
        model = CostModel()
        assert model.analysis_time(100, 4) > model.barrier(4)


class TestMachines:
    def test_fx80_has_8_processors(self):
        assert fx80().num_procs == 8

    def test_fx2800_has_14_processors(self):
        assert fx2800().num_procs == 14

    def test_with_procs_changes_only_procs(self):
        base = fx80()
        altered = base.with_procs(4)
        assert altered.num_procs == 4
        assert altered.mem_access == base.mem_access
        assert altered.name == base.name

    def test_invalid_proc_count_rejected(self):
        with pytest.raises(MachineConfigError):
            CostModel(num_procs=0)

    def test_models_are_frozen(self):
        with pytest.raises(AttributeError):
            fx80().num_procs = 2
