"""Cycle-cost model for the simulated machine.

All weights are in abstract cycles.  The defaults are chosen to mirror
the qualitative behaviour the paper reports on the Alliant machines:
marking a reference costs a handful of cycles (address arithmetic plus a
shadow store), barriers and critical sections are expensive relative to
arithmetic, and the analysis/merge phases are linear in the shadow size
divided by the processor count plus a logarithmic combining term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.errors import MachineConfigError
from repro.interp.costs import IterationCost


@dataclass(frozen=True)
class CostModel:
    """Cycle weights of the simulated machine."""

    name: str = "generic"
    num_procs: int = 8

    # per interpreter operation
    flop: float = 1.0
    mem_access: float = 2.0
    scalar_op: float = 0.25
    intrinsic: float = 8.0
    branch: float = 1.0
    mark: float = 4.0

    # scheduling / synchronization
    dispatch_per_iteration: float = 3.0
    barrier_base: float = 200.0
    barrier_per_proc: float = 12.0
    critical_section: float = 60.0

    # speculative-framework phases, per element
    checkpoint_per_element: float = 0.5
    restore_per_element: float = 0.5
    private_init_per_element: float = 0.5
    shadow_init_per_element: float = 0.25
    analysis_per_element: float = 1.0
    reduction_merge_per_element: float = 3.0
    copy_out_per_element: float = 2.0

    def __post_init__(self) -> None:
        if self.num_procs < 1:
            raise MachineConfigError("a machine needs at least one processor")

    # -- conversions ---------------------------------------------------------

    def iteration_cycles(self, cost: IterationCost) -> float:
        """Cycles for one loop iteration's operation counts."""
        return self.unmarked_cycles(cost) + cost.marks * self.mark

    def unmarked_cycles(self, cost: IterationCost) -> float:
        """Cycles of one iteration's operations without its shadow
        marking: what the same iteration costs in the serial loop.

        Bit-identical to ``iteration_cycles(cost.without_marks())``: the
        marking term is added last, and adding ``0.0`` is exact.
        """
        return (
            cost.flops * self.flop
            + (cost.mem_reads + cost.mem_writes) * self.mem_access
            + cost.scalar_ops * self.scalar_op
            + cost.intrinsics * self.intrinsic
            + cost.branches * self.branch
        )

    def barrier(self, p: int) -> float:
        """Cost of one global barrier among ``p`` processors."""
        return self.barrier_base + self.barrier_per_proc * p

    def parallel_sweep(self, elements: int, p: int, per_element: float) -> float:
        """A fully parallel O(elements/p + log p) phase."""
        if elements <= 0:
            return 0.0
        return per_element * math.ceil(elements / p) + self.barrier_per_proc * math.log2(
            max(p, 2)
        )

    def analysis_time(self, shadow_elements: int, p: int) -> float:
        """The LRPD analysis phase: vector ops over shadows + combining."""
        return self.parallel_sweep(shadow_elements, p, self.analysis_per_element) + self.barrier(p)

    def with_procs(self, p: int) -> "CostModel":
        """The same machine with a different processor count."""
        return replace(self, num_procs=p)


def fx80() -> CostModel:
    """An Alliant FX/80-flavoured machine: 8 processors, pricier memory."""
    return CostModel(
        name="fx80",
        num_procs=8,
        mem_access=2.5,
        barrier_base=250.0,
        barrier_per_proc=15.0,
    )


def fx2800() -> CostModel:
    """An Alliant FX/2800-flavoured machine: 14 faster processors."""
    return CostModel(
        name="fx2800",
        num_procs=14,
        mem_access=2.0,
        barrier_base=180.0,
        barrier_per_proc=10.0,
    )
