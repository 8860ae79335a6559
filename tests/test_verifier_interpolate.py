"""Trace feasibility and annotation tests."""

import pytest

from repro.lang import assign, assume, havoc
from repro.logic import FALSE, Solver, TRUE, add, eq, ge, gt, intc, lt, var
from repro.verifier import (
    annotate_trace,
    extract_predicates,
    path_formula,
    refutes,
    trace_feasible,
)

x, y = var("x"), var("y")


@pytest.fixture()
def solver():
    return Solver()


class TestPathFormula:
    def test_renaming_threads_through(self, solver):
        trace = [
            assign(0, "x", add(x, intc(1))),
            assign(0, "x", add(x, intc(1))),
        ]
        formula, renaming = path_formula(eq(x, intc(0)), trace)
        assert renaming["x"] == var("x@2")
        model = solver.model(formula)
        assert model["x@2"] == 2

    def test_guard_blocks(self, solver):
        trace = [assume(0, gt(x, intc(5)))]
        formula, _ = path_formula(eq(x, intc(0)), trace)
        assert not solver.is_sat(formula)

    def test_havoc_fresh_choice(self, solver):
        trace = [havoc(0, "x"), assume(0, eq(x, intc(42)))]
        formula, renaming = path_formula(eq(x, intc(0)), trace)
        model = solver.model(formula)
        assert model[renaming["x"].name] == 42


class TestTraceFeasible:
    def test_feasible_trace(self, solver):
        trace = [assign(0, "x", add(x, intc(1)))]
        assert trace_feasible(solver, eq(x, intc(0)), trace)

    def test_infeasible_guard(self, solver):
        trace = [
            assign(0, "x", intc(0)),
            assume(0, gt(x, intc(0))),
        ]
        assert not trace_feasible(solver, TRUE, trace)

    def test_post_violation(self, solver):
        trace = [assign(0, "x", intc(1))]
        # can the trace end with x != 1?  no.
        assert not trace_feasible(solver, TRUE, trace, post=eq(x, intc(1)))
        # can it end with x != 2?  yes.
        assert trace_feasible(solver, TRUE, trace, post=eq(x, intc(2)))


class TestAnnotation:
    def test_wp_chain_hoare_valid(self, solver):
        trace = [
            assign(0, "x", add(x, intc(1))),
            assign(0, "x", add(x, intc(1))),
        ]
        annotation = annotate_trace(trace, ge(x, intc(2)))
        assert len(annotation) == 3
        # each {I_k} a_k {I_k+1} is valid: I_k == wp by construction
        for stmt, pre_a, post_a in zip(trace, annotation, annotation[1:]):
            assert solver.implies(pre_a, stmt.wp(post_a))

    def test_refutes_infeasible_trace(self, solver):
        # x=0; assume x>0  cannot run: annotate with FALSE at the end
        trace = [
            assign(0, "x", intc(0)),
            assume(0, gt(x, intc(0))),
        ]
        annotation = annotate_trace(trace, FALSE)
        assert refutes(solver, TRUE, annotation)

    def test_does_not_refute_feasible_trace(self, solver):
        trace = [assign(0, "x", intc(1))]
        annotation = annotate_trace(trace, FALSE)
        assert not refutes(solver, TRUE, annotation)

    def test_extract_predicates_dedup(self):
        trace = [assume(0, gt(x, intc(0))), assume(0, gt(x, intc(0)))]
        annotation = annotate_trace(trace, FALSE)
        preds = extract_predicates(annotation)
        assert len(preds) == len(set(preds))

    def test_extract_splits_conjunctions(self):
        from repro.logic import and_

        annotation = [and_(gt(x, intc(0)), lt(y, intc(5)))]
        preds = extract_predicates(annotation)
        assert gt(x, intc(0)) in preds
        assert lt(y, intc(5)) in preds
