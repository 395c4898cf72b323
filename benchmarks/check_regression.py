"""CI wall-clock regression gate.

Compares the ``BENCH_*.json`` files a benchmark run just produced
against the checked-in baseline (``benchmarks/baselines/``) and fails
if any measurement's *calibration-normalized* wall time regressed by
more than the tolerance.  Normalized ratios — measured wall divided by
a fixed CPU-spin calibration run on the same machine — are what make
the gate portable across runner hardware generations.

::

    python benchmarks/check_regression.py \
        benchmarks/artifacts/BENCH_engine_speed.json \
        benchmarks/artifacts/BENCH_auto_feedback.json \
        --baseline benchmarks/baselines/bench_baseline.json

Entries present in the current run but absent from the baseline are
reported and allowed (new benchmarks should not need a lockstep
baseline update to land); entries that regressed past the tolerance
fail the run with a per-entry report.

``--require BENCH/KEY`` (repeatable) inverts the leniency for named
entries: the run fails if a required measurement is missing from the
current results.  Use it for gate-critical entries — a benchmark that
silently stopped emitting its key would otherwise pass the gate by
omission.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

DEFAULT_BASELINE = pathlib.Path(__file__).parent / "baselines" / "bench_baseline.json"
DEFAULT_TOLERANCE = 0.25


def load_current(path: pathlib.Path) -> tuple[str, dict[str, float]]:
    """Read one BENCH_*.json and return (benchmark name, normalized map)."""
    payload = json.loads(path.read_text())
    name = payload["benchmark"]
    normalized = {
        key: entry["normalized"] for key, entry in payload["entries"].items()
    }
    return name, normalized


def compare(
    current: dict[str, dict[str, float]],
    baseline: dict[str, dict],
    tolerance: float,
) -> tuple[list[str], list[str]]:
    """Return (regressions, notes) comparing normalized ratios."""
    regressions: list[str] = []
    notes: list[str] = []
    for bench, entries in sorted(current.items()):
        base_entries = baseline.get(bench, {}).get("entries", {})
        if not base_entries:
            notes.append(f"{bench}: no baseline recorded (allowed)")
            continue
        for key, value in sorted(entries.items()):
            base = base_entries.get(key)
            if base is None:
                notes.append(f"{bench}/{key}: new entry, no baseline (allowed)")
                continue
            limit = base * (1.0 + tolerance)
            verdict = "ok" if value <= limit else "REGRESSED"
            notes.append(
                f"{bench}/{key}: {value:.3f} vs baseline {base:.3f} "
                f"(limit {limit:.3f}) {verdict}"
            )
            if value > limit:
                regressions.append(
                    f"{bench}/{key}: normalized {value:.3f} exceeds "
                    f"baseline {base:.3f} by more than {tolerance:.0%}"
                )
    return regressions, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail if benchmark wall clock regressed vs the baseline."
    )
    parser.add_argument(
        "results", nargs="+", type=pathlib.Path,
        help="BENCH_*.json files from the current run",
    )
    parser.add_argument(
        "--baseline", type=pathlib.Path, default=DEFAULT_BASELINE,
        help="checked-in baseline JSON (default: %(default)s)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help="allowed fractional slowdown before failing (default: %(default)s)",
    )
    parser.add_argument(
        "--require", action="append", default=[], metavar="BENCH/KEY",
        help="fail if this entry is absent from the current results "
             "(repeatable; e.g. engine_speed/vectorized_speculative)",
    )
    args = parser.parse_args(argv)

    current: dict[str, dict[str, float]] = {}
    for path in args.results:
        if not path.exists():
            print(f"error: missing benchmark result {path}", file=sys.stderr)
            return 1
        name, normalized = load_current(path)
        current[name] = normalized

    missing = []
    for spec in args.require:
        bench, _, key = spec.partition("/")
        if not key or key not in current.get(bench, {}):
            missing.append(spec)
    if missing:
        print(
            f"{len(missing)} required benchmark entr"
            f"{'y is' if len(missing) == 1 else 'ies are'} missing:",
            file=sys.stderr,
        )
        for spec in missing:
            print(f"  {spec}", file=sys.stderr)
        return 1

    baseline = json.loads(args.baseline.read_text()) if args.baseline.exists() else {}
    if not baseline:
        print(f"warning: no baseline at {args.baseline}; nothing to gate against")

    regressions, notes = compare(current, baseline, args.tolerance)
    for note in notes:
        print(note)
    if regressions:
        print(f"\n{len(regressions)} benchmark regression(s):", file=sys.stderr)
        for line in regressions:
            print(f"  {line}", file=sys.stderr)
        return 1
    print("\nbenchmark wall clock within tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
