"""Reduction recognition tests: syntactic baseline vs forward substitution."""


from repro.analysis.instrument import number_refs
from repro.analysis.reduction import (
    find_reductions,
    syntactic_reductions,
)
from repro.dsl.parser import parse
from repro.interp.interpreter import find_target_loop


def analyzed(source, live_out=frozenset()):
    program = parse(source)
    number_refs(program)
    loop = find_target_loop(program)
    from repro.analysis.symtab import summarize_body

    written = set(summarize_body(loop.body).arrays_written)
    return find_reductions(loop, written, frozenset(live_out)), loop


def loop_of(source):
    program = parse(source)
    number_refs(program)
    return find_target_loop(program)


class TestSyntacticBaseline:
    def test_direct_sum_matched(self):
        loop = loop_of(
            "program p\n  integer i, n, idx(10)\n  real a(10)\n"
            "  do i = 1, n\n    a(idx(i)) = a(idx(i)) + 1.0\n  end do\nend\n"
        )
        assert len(syntactic_reductions(loop.body, {"a"})) == 1

    def test_through_temporary_not_matched_syntactically(self):
        loop = loop_of(
            "program p\n  integer i, n, idx(10)\n  real a(10), t\n"
            "  do i = 1, n\n    t = a(idx(i))\n    a(idx(i)) = t + 1.0\n"
            "  end do\nend\n"
        )
        assert syntactic_reductions(loop.body, {"a"}) == []

    def test_min_max_matched(self):
        loop = loop_of(
            "program p\n  integer i, n, idx(10)\n  real a(10), v(10)\n"
            "  do i = 1, n\n    a(idx(i)) = min(a(idx(i)), v(i))\n  end do\nend\n"
        )
        assert len(syntactic_reductions(loop.body, {"a"})) == 1

    def test_self_referencing_contribution_rejected(self):
        loop = loop_of(
            "program p\n  integer i, n, idx(10)\n  real a(10)\n"
            "  do i = 1, n\n    a(idx(i)) = a(idx(i)) + a(i)\n  end do\nend\n"
        )
        assert syntactic_reductions(loop.body, {"a"}) == []


class TestForwardSubstitution:
    def test_direct_sum(self):
        report, _loop = analyzed(
            "program p\n  integer i, n, idx(10)\n  real a(10)\n"
            "  do i = 1, n\n    a(idx(i)) = a(idx(i)) + 1.0\n  end do\nend\n"
        )
        assert len(report.candidates) == 1
        assert report.candidates[0].op == "+"

    def test_subtraction_is_sum_reduction(self):
        report, _ = analyzed(
            "program p\n  integer i, n, idx(10)\n  real a(10), v(10)\n"
            "  do i = 1, n\n    a(idx(i)) = a(idx(i)) - v(i)\n  end do\nend\n"
        )
        assert [c.op for c in report.candidates] == ["+"]

    def test_product_reduction(self):
        report, _ = analyzed(
            "program p\n  integer i, n, idx(10)\n  real a(10), v(10)\n"
            "  do i = 1, n\n    a(idx(i)) = a(idx(i)) * v(i)\n  end do\nend\n"
        )
        assert [c.op for c in report.candidates] == ["*"]

    def test_through_temporary(self):
        report, _ = analyzed(
            "program p\n  integer i, n, idx(10)\n  real a(10), t, t2\n"
            "  do i = 1, n\n    t = a(idx(i))\n    t2 = t + 2.0\n"
            "    a(idx(i)) = t2\n  end do\nend\n"
        )
        assert len(report.candidates) == 1
        # Both the load and the store reference sites are labelled.
        assert len(report.redux_refs) >= 2

    def test_through_control_flow(self):
        report, _ = analyzed(
            "program p\n  integer i, n, m, idx(10)\n  real a(10), t\n"
            "  do i = 1, n\n"
            "    if (m == 1) then\n      t = a(idx(i)) + 1.0\n"
            "    else\n      t = a(idx(i)) - 2.0\n    end if\n"
            "    a(idx(i)) = t\n  end do\nend\n"
        )
        assert [c.op for c in report.candidates] == ["+"]

    def test_conflicting_ops_across_branches_rejected(self):
        report, _ = analyzed(
            "program p\n  integer i, n, m, idx(10)\n  real a(10), t\n"
            "  do i = 1, n\n"
            "    if (m == 1) then\n      t = a(idx(i)) + 1.0\n"
            "    else\n      t = a(idx(i)) * 2.0\n    end if\n"
            "    a(idx(i)) = t\n  end do\nend\n"
        )
        assert report.candidates == []

    def test_overwriting_branch_rejected(self):
        # One path stores an unrelated value: not a reduction.
        report, _ = analyzed(
            "program p\n  integer i, n, m, idx(10)\n  real a(10), t\n"
            "  do i = 1, n\n"
            "    if (m == 1) then\n      t = a(idx(i)) + 1.0\n"
            "    else\n      t = 0.0\n    end if\n"
            "    a(idx(i)) = t\n  end do\nend\n"
        )
        assert report.candidates == []

    def test_escaping_value_rejected(self):
        # The loaded value also escapes to another array.
        report, _ = analyzed(
            "program p\n  integer i, n, idx(10)\n  real a(10), w(10), t\n"
            "  do i = 1, n\n    t = a(idx(i))\n    a(idx(i)) = t + 1.0\n"
            "    w(i) = t\n  end do\nend\n"
        )
        assert all(c.array != "a" for c in report.candidates)

    def test_value_used_in_condition_rejected(self):
        report, _ = analyzed(
            "program p\n  integer i, n, idx(10)\n  real a(10), t, x\n"
            "  do i = 1, n\n    t = a(idx(i))\n"
            "    if (t > 0.0) then\n      x = 1.0\n    end if\n"
            "    a(idx(i)) = t + 1.0\n  end do\nend\n"
        )
        assert report.candidates == []

    def test_value_live_after_loop_rejected(self):
        # A live-out scalar's final value is observed after the loop: the
        # last processor's running partial is not the serial value.
        source = (
            "program p\n  integer i, n, idx(10)\n  real a(10), t\n"
            "  do i = 1, n\n    t = a(idx(i)) + 1.0\n    a(idx(i)) = t\n"
            "  end do\nend\n"
        )
        assert analyzed(source)[0].arrays() == {"a"}
        report, _ = analyzed(source, live_out={"t"})
        assert report.candidates == []

    def test_reduction_inside_inner_loop(self):
        report, _ = analyzed(
            "program p\n  integer i, j, n, m, idx(10)\n  real a(10), v(10)\n"
            "  do i = 1, n\n    do j = 1, m\n"
            "      a(idx(j)) = a(idx(j)) + v(j)\n    end do\n  end do\nend\n"
        )
        assert [c.op for c in report.candidates] == ["+"]

    def test_different_subscript_rejected(self):
        report, _ = analyzed(
            "program p\n  integer i, n, idx(10)\n  real a(10)\n"
            "  do i = 1, n\n    a(idx(i)) = a(i) + 1.0\n  end do\nend\n"
        )
        assert report.candidates == []

    def test_two_reduction_statements_same_array(self):
        report, _ = analyzed(
            "program p\n  integer i, n, idx(10), jdx(10)\n  real a(10), v(10)\n"
            "  do i = 1, n\n    a(idx(i)) = a(idx(i)) + v(i)\n"
            "    a(jdx(i)) = a(jdx(i)) + 2.0\n  end do\nend\n"
        )
        assert len(report.candidates) == 2

    def test_subscript_redefined_between_load_and_store_rejected(self):
        # j changes between the load and the store: different elements.
        report, _ = analyzed(
            "program p\n  integer i, j, n, idx(10)\n  real a(10), t\n"
            "  do i = 1, n\n    j = idx(i)\n    t = a(j)\n    j = j + 1\n"
            "    a(j) = t + 1.0\n  end do\nend\n"
        )
        assert report.candidates == []


class TestScalarReductions:
    def test_simple_sum(self):
        report, _ = analyzed(
            "program p\n  integer i, n\n  real s, v(10)\n"
            "  do i = 1, n\n    s = s + v(i)\n  end do\nend\n"
        )
        assert report.scalar_reductions == {"s": "+"}

    def test_max_reduction(self):
        report, _ = analyzed(
            "program p\n  integer i, n\n  real s, v(10)\n"
            "  do i = 1, n\n    s = max(s, v(i))\n  end do\nend\n"
        )
        assert report.scalar_reductions == {"s": "max"}

    def test_conditional_update(self):
        report, _ = analyzed(
            "program p\n  integer i, n\n  real s, v(10)\n"
            "  do i = 1, n\n    if (v(i) > 0.0) then\n      s = s + v(i)\n"
            "    end if\n  end do\nend\n"
        )
        assert report.scalar_reductions == {"s": "+"}

    def test_accumulation_in_inner_loop(self):
        report, _ = analyzed(
            "program p\n  integer i, j, n, m\n  real s, v(10)\n"
            "  do i = 1, n\n    do j = 1, m\n      s = s + v(j)\n"
            "    end do\n  end do\nend\n"
        )
        assert report.scalar_reductions == {"s": "+"}

    def test_scalar_used_in_condition_rejected(self):
        report, _ = analyzed(
            "program p\n  integer i, n\n  real s, x, v(10)\n"
            "  do i = 1, n\n    if (s > 0.0) then\n      x = 1.0\n    end if\n"
            "    s = s + v(i)\n  end do\nend\n"
        )
        assert report.scalar_reductions == {}

    def test_scalar_escaping_to_array_rejected(self):
        report, _ = analyzed(
            "program p\n  integer i, n\n  real s, w(10), v(10)\n"
            "  do i = 1, n\n    s = s + v(i)\n    w(i) = s\n  end do\nend\n"
        )
        assert report.scalar_reductions == {}

    def test_private_scalar_not_a_reduction(self):
        report, _ = analyzed(
            "program p\n  integer i, n\n  real s, w(10), v(10)\n"
            "  do i = 1, n\n    s = v(i)\n    s = s + 1.0\n    w(i) = s\n"
            "  end do\nend\n"
        )
        assert report.scalar_reductions == {}


class TestDemandDrivenSubstitution:
    """The forward-substitution pass is demand-driven: scalar
    definitions are recorded as placeholders and only expanded when a
    demand point (a store, a condition, a bound, the loop-exit merge)
    actually reads them."""

    def test_counters_on_report(self):
        report, _ = analyzed(
            "program p\n  integer i, n, idx(10)\n  real a(10), t\n"
            "  do i = 1, n\n    t = a(idx(i))\n    a(idx(i)) = t + 1.0\n"
            "  end do\nend\n"
        )
        assert report.candidates  # substitution still sees through t
        assert report.defs_recorded >= 1
        assert 0 < report.defs_expanded <= report.defs_recorded

    def test_dead_definition_never_expanded(self):
        # ``t`` is overwritten before every use: the first definition is
        # recorded but no demand point ever reads it, so it stays
        # unexpanded — the laziness the refactor buys, observable.
        report, _ = analyzed(
            "program p\n  integer i, n, idx(10)\n  real a(10), t, u\n"
            "  do i = 1, n\n    t = a(idx(i)) * 2.0\n    t = 1.0\n"
            "    u = a(idx(i))\n    a(idx(i)) = u + t\n  end do\nend\n"
        )
        assert report.candidates
        assert report.defs_expanded < report.defs_recorded

    def test_dead_subscript_load_does_not_escape(self):
        # The dead definition reads a(idx(i)); eager substitution would
        # have evaluated it (escaping the idx(i) subscript), demand
        # substitution never looks — a(...) stays a recognized
        # reduction rather than being demoted by a phantom read.
        report, _ = analyzed(
            "program p\n  integer i, n, idx(10)\n  real a(10), t\n"
            "  do i = 1, n\n    t = a(idx(i))\n    t = 0.0\n"
            "    a(idx(i)) = a(idx(i)) + t + 1.0\n  end do\nend\n"
        )
        assert sorted(report.arrays()) == ["a"]
