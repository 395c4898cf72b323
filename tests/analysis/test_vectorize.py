"""Static vectorizability classifier for the whole-block engine."""

from __future__ import annotations

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

    def test_spice_rejected_for_redux_load_outside_update(self):
        decision = classify_workload(build_spice(n=40))
        assert not decision.ok
        assert "reduction" in decision.reason

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
