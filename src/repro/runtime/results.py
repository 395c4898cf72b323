"""Result records of strategy executions."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.outcomes import LrpdResult
from repro.interp.costs import IterationCost
from repro.interp.env import Environment
from repro.machine.stats import StripRecord, TimeBreakdown, WallClock


@dataclass
class SerialRun:
    """A serial oracle execution of a whole program."""

    env: Environment
    loop_iteration_costs: list[IterationCost]
    loop_time: float      # simulated cycles of the target loop alone
    setup_time: float
    teardown_time: float
    num_iterations: int
    #: the serial-capable engine that executed the program.
    engine: str = "walk"
    #: set when the requested engine cannot run serially and the registry
    #: substituted one from its fallback chain (e.g. parallel → compiled).
    engine_substitution: str | None = None


@dataclass
class ExecutionReport:
    """Outcome of running the target loop under one strategy."""

    strategy: str                 # serial | speculative | stripped | inspector
    machine: str
    procs: int
    passed: bool | None           # None when no test ran
    test_result: LrpdResult | None
    times: TimeBreakdown
    serial_loop_time: float
    env: Environment
    reused_schedule: bool = False
    stats: dict[str, float] = field(default_factory=dict)
    #: per-strip records of a strip-mined execution (empty otherwise).
    strips: list[StripRecord] = field(default_factory=list)
    #: measured wall-clock phase durations (None when not recorded);
    #: real seconds, reported alongside — never mixed into — the
    #: simulated cycle accounting above.
    wall: WallClock | None = None
    #: per-loop engine fallback decisions: (loop key, reject reason)
    #: recorded when a requested engine (e.g. "vectorized") silently
    #: degraded to compiled.  Printed under the CLI's ``--verbose``.
    fallbacks: list[tuple[str, str]] = field(default_factory=list)
    #: the engine that actually executed the (first strip of the) loop.
    engine_used: str | None = None
    #: per-loop ``auto`` planner decisions: (loop key, reason).  Empty
    #: for explicit engine requests.  Printed under ``--verbose``.
    engine_decisions: list[tuple[str, str]] = field(default_factory=list)
    #: profile-store verdict-cache counters (lookups/hits/misses/
    #: evictions/entries) snapshotted after the run.  Kept out of
    #: :attr:`stats` on purpose — engine parity asserts ``stats``
    #: equality across engines, and cache state is cross-run memory,
    #: not a property of this execution.  Printed under ``--verbose``.
    cache_stats: dict[str, int] = field(default_factory=dict)

    @property
    def loop_time(self) -> float:
        return self.times.total()

    @property
    def speedup(self) -> float:
        """Simulated speedup of the loop vs its serial execution."""
        total = self.loop_time
        if total <= 0.0:
            return float("inf")
        return self.serial_loop_time / total

    def describe(self) -> str:
        test = self.test_result.describe() if self.test_result else "no test"
        strips = ""
        if self.strips:
            failed = sum(1 for s in self.strips if not s.passed)
            strips = f", {len(self.strips)} strips ({failed} rolled back)"
        return (
            f"{self.strategy} on {self.machine} (p={self.procs}): "
            f"speedup {self.speedup:.2f} ({test}{strips})"
        )
