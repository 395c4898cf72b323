"""Static vectorizability classifier for the whole-block engine."""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.instrument import build_plan
from repro.analysis.vectorize import SAFE_INTRINSICS, classify_loop
from repro.dsl.parser import parse
from repro.workloads.adm import build_adm
from repro.workloads.bdna import build_bdna
from repro.workloads.dyfesm import build_dyfesm
from repro.workloads.mdg import build_mdg
from repro.workloads.ocean import build_ocean
from repro.workloads.spice import build_spice
from repro.workloads.synthetic import build_reduction_copy
from repro.workloads.track import build_track


def classify_source(source: str):
    program = parse(source)
    plan = build_plan(program)
    return classify_loop(program, plan.loop, plan)


def classify_workload(workload):
    program = workload.program()
    plan = build_plan(program)
    return classify_loop(program, plan.loop, plan)


class TestPaperWorkloads:
    @pytest.mark.parametrize(
        "build", [build_bdna, build_mdg, build_ocean], ids=["bdna", "mdg", "ocean"]
    )
    def test_vectorizable_workloads_accepted(self, build):
        decision = classify_workload(build())
        assert decision.ok, decision.reason
        assert decision.reason is None

    @pytest.mark.parametrize("mode", [1, 2])
    def test_spice_accepted_with_reduction_through_temporary(self, mode):
        # t = y(node2(p)) ± ...; y(node2(p)) = t: forward substitution
        # proves the reduction, and t is a pure carrier of it.
        workload = build_spice(n=40, mode=mode)
        program = workload.program()
        plan = build_plan(program)
        (cand,) = [c for c in plan.reductions.candidates if c.array == "y"]
        assert len(cand.load_ref_ids) == 2  # one load per if arm
        decision = classify_loop(program, plan.loop, plan)
        assert decision.ok, decision.reason

    @pytest.mark.parametrize(
        "build, intrinsic",
        [(build_track, "exp"), (build_adm, "sin")],
        ids=["track", "adm"],
    )
    def test_transcendental_intrinsics_accepted(self, build, intrinsic):
        # exp/sin run through math.* per active lane: exact by
        # construction, so they no longer cost the loop its lowering.
        assert intrinsic in SAFE_INTRINSICS
        decision = classify_workload(build())
        assert decision.ok, decision.reason

    def test_dyfesm_accepted_with_max_scalar_reduction(self):
        workload = build_dyfesm()
        program = workload.program()
        plan = build_plan(program)
        assert plan.scalar_reductions == {"bmax": "max"}
        decision = classify_loop(program, plan.loop, plan)
        assert decision.ok, decision.reason


class TestSyntheticShapes:
    def test_plain_gather_scatter_accepted(self):
        decision = classify_source(
            "program p\n  integer i, n, idx(8)\n  real a(8), v(8)\n"
            "  do i = 1, n\n    a(idx(i)) = v(i) * 2.0\n  end do\nend\n"
        )
        assert decision.ok

    def test_safe_intrinsics_accepted(self):
        assert "sqrt" in SAFE_INTRINSICS
        decision = classify_source(
            "program p\n  integer i, n, idx(8)\n  real a(8), v(8)\n"
            "  do i = 1, n\n    a(idx(i)) = sqrt(abs(v(i)))\n  end do\nend\n"
        )
        assert decision.ok

    def test_unsafe_intrinsic_rejected(self):
        decision = classify_source(
            "program p\n  integer i, n, idx(8)\n  real a(8), v(8)\n"
            "  do i = 1, n\n    a(idx(i)) = v(i) ** 2.0\n  end do\nend\n"
        )
        assert not decision.ok
        assert "**" in decision.reason

    @pytest.mark.parametrize(
        "update",
        ["s = max(s, v(i))", "s = max(v(i), s)", "s = min(s, v(i))",
         "s = min(v(i), s)"],
        ids=["max-self-first", "max-self-last", "min-self-first",
             "min-self-last"],
    )
    def test_min_max_scalar_reduction_forms_accepted(self, update):
        decision = classify_source(
            "program p\n  integer i, n\n  real v(8), s\n"
            f"  do i = 1, n\n    {update}\n  end do\nend\n"
        )
        assert decision.ok, decision.reason

    def test_mixed_kind_max_scalar_reduction_rejected(self):
        decision = classify_source(
            "program p\n  integer i, n, k(8)\n  real s\n"
            "  do i = 1, n\n    s = max(s, k(i))\n  end do\nend\n"
        )
        assert not decision.ok
        assert "mixed integer/real" in decision.reason

    def test_untested_shared_store_rejected(self):
        # An affine store needs no speculation, so the array is neither
        # tested nor privatized — its values must land per iteration,
        # which the whole-block commit cannot honour.
        decision = classify_source(
            "program p\n  integer i, n\n  real a(8), v(8)\n"
            "  do i = 1, n\n    a(i) = v(i)\n  end do\nend\n"
        )
        assert not decision.ok
        assert "shared array" in decision.reason

    def test_decision_is_falsy_on_reject(self):
        decision = classify_source(
            "program p\n  integer i, n, idx(8)\n  real a(8), v(8)\n"
            "  do i = 1, n\n    a(idx(i)) = v(i) ** 2.0\n  end do\nend\n"
        )
        assert bool(decision) is False
        assert bool(classify_source(
            "program p\n  integer i, n, idx(8)\n  real a(8), v(8)\n"
            "  do i = 1, n\n    a(idx(i)) = v(i)\n  end do\nend\n"
        )) is True


REDUX_LOAD_REASON = "reduction-array load outside its own update statement"

TEMP_HEAD = (
    "program p\n  integer i, n, k, idx(8)\n"
    "  real y(8), v(8), w(8), t, u, last\n  do i = 1, n\n    k = idx(i)\n"
)


def _temp_loop(body: str, after: str = "") -> str:
    return TEMP_HEAD + body + "  end do\n" + after + "end\n"


def _plan_of(source: str):
    program = parse(source)
    return program, build_plan(program)


class TestReductionTemporaries:
    """``t = A(e) op rest; ...; A(e) = t`` lowers whole-block only when
    ``t`` is a pure carrier; every other shape keeps the reject reason
    the classifier gave before temporaries were accepted."""

    def test_temporary_in_both_arms_accepted(self):
        decision = classify_source(_temp_loop(
            "    if (v(i) > 0.0) then\n      t = y(k) + v(i)\n"
            "    else\n      t = y(k) - w(i) * 0.5\n    end if\n"
            "    y(k) = t\n"
        ))
        assert decision.ok, decision.reason

    @pytest.mark.parametrize(
        "update", ["t = v(i) + y(k)", "t = y(k) * v(i)", "t = v(i) * y(k)"]
    )
    def test_commuted_and_product_forms_accepted(self, update):
        decision = classify_source(_temp_loop(f"    {update}\n    y(k) = t\n"))
        assert decision.ok, decision.reason

    def test_temporary_read_twice_rejected(self):
        program, plan = _plan_of(_temp_loop(
            "    t = y(k) + v(i)\n    u = t * 2.0\n    y(k) = t\n"
        ))
        assert plan.reductions.arrays() == {"y"}  # the reduction is valid
        decision = classify_loop(program, plan.loop, plan)
        assert not decision.ok
        assert decision.reason == REDUX_LOAD_REASON

    def test_temporary_live_after_loop_rejected(self):
        # Read after the loop, ``t`` would expose one processor's running
        # partial: forward substitution no longer proves the reduction,
        # and the classifier's own liveness rule rejects it regardless.
        program, plan = _plan_of(_temp_loop(
            "    t = y(k) + v(i)\n    y(k) = t\n", after="  last = t\n"
        ))
        assert "t" in plan.live_out_scalars
        assert plan.reductions.arrays() == set()
        _program, dead_plan = _plan_of(_temp_loop(
            "    t = y(k) + v(i)\n    y(k) = t\n"
        ))
        assert classify_loop(_program, dead_plan.loop, dead_plan).ok
        live_plan = dataclasses.replace(
            dead_plan, live_out_scalars=frozenset({"t"})
        )
        decision = classify_loop(_program, dead_plan.loop, live_plan)
        assert not decision.ok
        assert decision.reason == REDUX_LOAD_REASON

    def test_update_between_load_and_store_rejected(self):
        # The lanes would fold both contributions; the compiled engine's
        # store of t overwrites the middle update.
        program, plan = _plan_of(_temp_loop(
            "    t = y(k) + v(i)\n    y(k) = y(k) + w(i)\n    y(k) = t\n"
        ))
        assert plan.reductions.arrays() == {"y"}
        decision = classify_loop(program, plan.loop, plan)
        assert not decision.ok
        assert decision.reason == REDUX_LOAD_REASON

    def test_nested_expression_rejected(self):
        # (y(k) + v) + w: the fold would reassociate the contribution.
        decision = classify_source(_temp_loop(
            "    t = y(k) + v(i) + w(i)\n    y(k) = t\n"
        ))
        assert not decision.ok
        assert decision.reason == REDUX_LOAD_REASON

    def test_integer_temporary_rejected(self):
        # An integer t truncates each running value the compiled engine
        # stores; the lanes' contributions never see that truncation.
        program, plan = _plan_of(
            "program p\n  integer i, n, k, idx(8), t\n  real y(8), v(8)\n"
            "  do i = 1, n\n    k = idx(i)\n    t = y(k) + v(i)\n"
            "    y(k) = t\n  end do\nend\n"
        )
        assert plan.reductions.arrays() == {"y"}
        decision = classify_loop(program, plan.loop, plan)
        assert not decision.ok
        assert decision.reason == REDUX_LOAD_REASON

    def test_reduction_copy_workload_rejected(self):
        decision = classify_workload(build_reduction_copy())
        assert not decision.ok
        assert decision.reason == REDUX_LOAD_REASON
