"""Shared benchmark fixtures.

Every benchmark regenerates one of the paper's tables or figures, prints
it, saves the rendering under ``benchmarks/artifacts/`` (the files
EXPERIMENTS.md references) and asserts the *shape* the paper reports.
"""

from __future__ import annotations

import json
import pathlib
import time

import pytest

ARTIFACTS = pathlib.Path(__file__).parent / "artifacts"


def calibrate(rounds: int = 3) -> float:
    """Machine-speed yardstick: best-of wall clock of a fixed CPU spin.

    ``BENCH_*.json`` files store every measured wall time normalized by
    this, so the CI regression gate compares machine-portable ratios
    instead of absolute seconds from whatever runner it landed on.
    """

    def spin() -> int:
        acc = 0
        for i in range(1_500_000):
            acc += i ^ (i >> 3)
        return acc

    best = None
    for _ in range(rounds):
        begin = time.perf_counter()
        spin()
        elapsed = time.perf_counter() - begin
        if best is None or elapsed < best:
            best = elapsed
    return best


def min_wall(fn, rounds: int = 3):
    """Best-of-``rounds`` wall clock and the last round's result.

    One scheduler hiccup costs one round, not the measurement.  Two
    sides of a comparison are timed with :func:`paired_min_wall`.
    """
    best = None
    result = None
    for _ in range(rounds):
        begin = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - begin
        if best is None or elapsed < best:
            best = elapsed
    return best, result


def paired_min_wall(fn_a, fn_b, rounds: int = 5):
    """Best-of-``rounds`` wall clock of two sides, alternated round by round.

    Runs A, B, A, B, ... so both sides see the same machine state in
    every round and neither gets warm-cache rounds the other does not; a
    scheduler hiccup slows one round of one side, and the best of
    ``rounds`` discards it.  Returns ``((best_a, last_result_a),
    (best_b, last_result_b))``.
    """
    walls: tuple[list[float], list[float]] = ([], [])
    results = [None, None]
    for _ in range(rounds):
        for side, fn in enumerate((fn_a, fn_b)):
            begin = time.perf_counter()
            results[side] = fn()
            walls[side].append(time.perf_counter() - begin)
    return (min(walls[0]), results[0]), (min(walls[1]), results[1])


def write_bench_json(
    name: str,
    calibration_s: float,
    entries: dict[str, float],
    extra: dict | None = None,
    merge: bool = False,
) -> pathlib.Path:
    """Write ``BENCH_<name>.json`` (the regression gate's input).

    ``entries`` maps measurement keys to wall-clock seconds; each is
    stored with its calibration-normalized ratio, which is what
    ``check_regression.py`` compares against the checked-in baseline.

    With ``merge=True`` an existing file's entries are kept and only the
    given keys replaced — for benchmarks whose measurements come from
    several tests contributing to one gate file.  Each entry carries its
    own normalized ratio, so mixing calibrations across tests is sound.
    """
    ARTIFACTS.mkdir(exist_ok=True)
    path = ARTIFACTS / f"BENCH_{name}.json"
    payload = {"benchmark": name, "entries": {}}
    if merge and path.exists():
        payload = json.loads(path.read_text())
    payload["calibration_s"] = calibration_s
    payload["entries"].update(
        {
            key: {"wall_s": wall, "normalized": wall / calibration_s}
            for key, wall in entries.items()
        }
    )
    if extra:
        payload.update(extra)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


@pytest.fixture
def artifact(capsys):
    """Write (and echo) a named evaluation artifact."""

    def write(name: str, text: str) -> None:
        ARTIFACTS.mkdir(exist_ok=True)
        path = ARTIFACTS / f"{name}.txt"
        path.write_text(text + "\n")
        with capsys.disabled():
            print(f"\n=== {name} ===")
            print(text)

    return write


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


FIGURE_PROCS = (1, 2, 4, 8, 12, 14, 16)


def loop_figure_bench(
    benchmark,
    artifact,
    workload,
    figure_name,
    *,
    include_setup=False,
    expect_inspector=True,
    min_speedup_at_8=1.5,
):
    """Shared skeleton for the per-loop speedup figures.

    Asserts the shapes common to all of the paper's loop figures:
    monotone-ish growth with processors, ideal dominating both
    strategies, and real speedup at p=8.  Returns the series dict for
    loop-specific assertions.
    """
    from repro.evalx.figures import loop_figure
    from repro.evalx.render import ascii_chart, format_figure
    from repro.machine.costmodel import fx80

    figure = run_once(
        benchmark,
        lambda: loop_figure(
            workload, procs=FIGURE_PROCS, model=fx80(), include_setup=include_setup
        ),
    )
    artifact(
        figure_name,
        format_figure(figure, title=f"{figure_name}: speedup vs processors")
        + "\n\n"
        + ascii_chart(figure, title=f"{figure_name} (speedup vs processors)"),
    )

    assert ("inspector" in figure) == expect_inspector
    ideal = figure["ideal"].speedups()
    for label, series in figure.items():
        speedups = series.speedups()
        assert speedups[-1] > speedups[0], f"{label} does not scale"
        if label != "ideal":
            for measured, bound in zip(speedups, ideal):
                assert measured <= bound + 1e-9, label

    spec_at_8 = figure["speculative"].points[3]
    assert spec_at_8.procs == 8
    assert spec_at_8.speedup > min_speedup_at_8
    return figure
