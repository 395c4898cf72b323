"""Self-test of the benchmark's correctness accounting.

    python3 -m pytest perfbench/test_checks.py -q

``failed_frac`` (reported as ``ok_frac`` and the ``failed`` count) must
not be vacuously zero: a corrupted result, a wrong verdict, a wrong lift
decision and a wrong served digest must each count as a failed op.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import decks  # noqa: E402
import run  # noqa: E402


@pytest.fixture(scope="module")
def small_deck():
    """One paper loop, one passing corpus kernel and one named reject."""
    deck = decks.cold_mixed_deck(5)
    picks = {}
    for op in deck:
        kind = (
            "reject" if op.expect_reject
            else "python" if op.frontend == "python" else "dsl"
        )
        picks.setdefault(kind, op)
    return [picks["dsl"], picks["python"], picks["reject"]]


def _phase(deck):
    return run.in_process_phase(deck, 0, min_ops=0)


def test_honest_results_pass(small_deck):
    phase = _phase(small_deck)
    assert phase.attempted == len(small_deck)
    assert phase.failures == []


def test_corrupted_result_counts_as_failed(small_deck, monkeypatch):
    execute = decks.execute

    def corrupting(op):
        outcome = execute(op)
        if outcome.report is not None:
            name = op.check_arrays[0] if op.check_arrays else op.check_scalars[0]
            env = outcome.report.env
            if name in env.arrays:
                env.arrays[name][0] += 1.0
            else:
                env.scalars[name] += 1.0
        return outcome

    monkeypatch.setattr(decks, "execute", corrupting)
    phase = _phase(small_deck)
    assert len(phase.failures) == 2  # the reject has no result to corrupt
    assert all("differs from the oracle" in why for why in phase.failures)


def test_wrong_verdict_counts_as_failed(small_deck, monkeypatch):
    execute = decks.execute

    def flipping(op):
        outcome = execute(op)
        if outcome.report is not None:
            outcome.report.passed = not outcome.report.passed
        return outcome

    monkeypatch.setattr(decks, "execute", flipping)
    phase = _phase(small_deck)
    assert len(phase.failures) == 2
    assert all("verdict" in why for why in phase.failures)


def test_raising_op_counts_as_failed(small_deck, monkeypatch):
    def raising(op):
        raise RuntimeError("boom")

    monkeypatch.setattr(decks, "execute", raising)
    phase = _phase(small_deck)
    assert len(phase.failures) == phase.attempted == len(small_deck)


def test_unexpected_lift_decision_counts_as_failed(small_deck):
    reject = small_deck[2]
    accepted = decks.Op(
        key="accepts", frontend="python", source=decks.CORPUS["saxpy"].kernel,
        inputs=decks.CORPUS["saxpy"].make_inputs(), expect_pass=None,
        expect_reject=reject.expect_reject,
    )
    assert "lift accepted" in decks.check(accepted, decks.execute(accepted))


def test_reduction_tolerance_is_tight():
    ref = np.array([1.0, 2.0])
    assert decks._same(ref + 1e-14, ref, tolerant=True)
    assert not decks._same(ref + 1e-14, ref, tolerant=False)
    assert not decks._same(ref + 1e-3, ref, tolerant=True)


def test_served_checks():
    job = decks.warm_serve_deck(5)[0]
    digests = {job.key(): "abc"}
    assert decks.check_served(job, {"passed": True, "env_digest": "abc"}, digests) is None
    assert "env_digest" in decks.check_served(
        job, {"passed": True, "env_digest": "abd"}, digests
    )
    assert "verdict" in decks.check_served(
        job, {"passed": False, "env_digest": "abc"}, digests
    )


@pytest.mark.parametrize("strip, expected", [(None, False), (2, True), (4, False)])
def test_brute_force_flow_verdict(strip, expected):
    # Iteration 2 reads what iteration 1 wrote (0-based positions).
    wloc = np.array([1, 2, 3, 4])
    rloc = np.array([9, 9, 2, 9])
    assert decks.indirect_flow_passes(wloc, rloc, strip) is expected


def test_metric_names_match_benchmark_json():
    import json

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
