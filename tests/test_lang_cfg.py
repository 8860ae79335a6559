"""Thread CFG compilation tests (control flow shapes, atomic paths)."""

import pytest

from repro.lang import ast, compile_thread
from repro.lang.cfg import CompileError
from repro.logic import Solver, and_, gt, intc, var

x, y = var("x"), var("y")


def compile_body(stmt):
    return compile_thread(stmt, name="T", index=0)


class TestStraightLine:
    def test_skip(self):
        cfg = compile_body(ast.Skip())
        assert cfg.size == 2
        (stmt,) = cfg.enabled(cfg.initial)
        assert stmt.guard == evaluate_true()

    def test_seq_chain(self):
        body = ast.Seq.of(
            [ast.Assign("x", intc(1)), ast.Assign("y", intc(2))]
        )
        cfg = compile_body(body)
        assert cfg.size == 3
        first = cfg.enabled(cfg.initial)[0]
        assert first.updates == {"x": intc(1)}

    def test_exit_has_no_edges(self):
        cfg = compile_body(ast.Assign("x", intc(1)))
        assert not cfg.enabled(cfg.exit)


class TestBranching:
    def test_if_guards_negate(self):
        body = ast.If(gt(x, intc(0)), ast.Assign("y", intc(1)), ast.Skip())
        cfg = compile_body(body)
        guards = sorted(
            (s.guard for s in cfg.enabled(cfg.initial)), key=repr
        )
        solver = Solver()
        assert not solver.is_sat(and_(*guards))
        assert solver.is_valid(guards[0] | guards[1])

    def test_if_else_skip_joins_directly(self):
        body = ast.If(gt(x, intc(0)), ast.Assign("y", intc(1)), ast.Skip())
        cfg = compile_body(body)
        # locations: entry, then-branch entry, exit
        assert cfg.size == 3

    def test_nondeterministic_if(self):
        body = ast.If(None, ast.Assign("y", intc(1)), ast.Assign("y", intc(2)))
        cfg = compile_body(body)
        for stmt in cfg.enabled(cfg.initial):
            assert stmt.guard == evaluate_true()

    def test_while_structure(self):
        body = ast.While(gt(x, intc(0)), ast.Assign("x", intc(0)))
        cfg = compile_body(body)
        edges = cfg.enabled(cfg.initial)
        assert len(edges) == 2  # enter and leave
        # body loops back to the head
        enter = next(s for s in edges if s.guard == gt(x, intc(0)))
        after_enter = cfg.step(cfg.initial, enter)
        (body_stmt,) = cfg.enabled(after_enter)
        assert cfg.step(after_enter, body_stmt) == cfg.initial


class TestAsserts:
    def test_error_location_created(self):
        cfg = compile_body(ast.Assert(gt(x, intc(0))))
        assert cfg.error is not None
        labels = {s.label for s in cfg.enabled(cfg.initial)}
        assert any("assert-pass" in l for l in labels)
        assert any("assert-fail" in l for l in labels)

    def test_fail_edge_targets_error(self):
        cfg = compile_body(ast.Assert(gt(x, intc(0))))
        fail = next(
            s for s in cfg.enabled(cfg.initial) if "fail" in s.label
        )
        assert cfg.step(cfg.initial, fail) == cfg.error

    def test_error_location_terminal(self):
        cfg = compile_body(ast.Assert(gt(x, intc(0))))
        assert not cfg.enabled(cfg.error)


class TestAtomicCompilation:
    def test_single_letter_for_block(self):
        body = ast.Atomic(
            ast.Seq.of(
                [
                    ast.Assume(gt(x, intc(0))),
                    ast.Assign("x", intc(0)),
                    ast.Assign("y", x),
                ]
            )
        )
        cfg = compile_body(body)
        (letter,) = cfg.enabled(cfg.initial)
        assert letter.guard == gt(x, intc(0))
        # composition is sequential inside the block: y reads the NEW x
        assert letter.updates["y"] == intc(0)
        assert letter.updates["x"] == intc(0)

    def test_branch_inside_atomic_gives_two_letters(self):
        body = ast.Atomic(
            ast.If(gt(x, intc(0)), ast.Assign("y", intc(1)), ast.Assign("y", intc(2)))
        )
        cfg = compile_body(body)
        assert len(cfg.enabled(cfg.initial)) == 2

    def test_sequencing_inside_atomic_composes(self):
        body = ast.Atomic(
            ast.Seq.of(
                [ast.Assign("x", intc(5)), ast.Assign("y", x)]
            )
        )
        cfg = compile_body(body)
        (letter,) = cfg.enabled(cfg.initial)
        # y := x AFTER x := 5 means y gets 5
        assert letter.updates["y"] == intc(5)

    def test_assert_inside_atomic_splits(self):
        body = ast.Atomic(
            ast.Seq.of([ast.Assign("x", intc(1)), ast.Assert(gt(x, intc(0)))])
        )
        cfg = compile_body(body)
        assert cfg.error is not None
        assert len(cfg.enabled(cfg.initial)) == 2

    def test_loop_inside_atomic_rejected(self):
        body = ast.Atomic(ast.While(None, ast.Skip()))
        with pytest.raises(CompileError):
            compile_body(body)

    def test_havoc_inside_atomic(self):
        body = ast.Atomic(
            ast.Seq.of([ast.Havoc("x"), ast.Assume(gt(x, intc(0)))])
        )
        cfg = compile_body(body)
        (letter,) = cfg.enabled(cfg.initial)
        assert letter.choices
        assert not letter.is_deterministic


class TestReachability:
    def test_reachable_from(self):
        body = ast.Seq.of(
            [ast.Assign("x", intc(1)), ast.Assign("x", intc(2))]
        )
        cfg = compile_body(body)
        assert cfg.reachable_from(cfg.initial) == cfg.locations
        assert cfg.reachable_from(cfg.exit) == {cfg.exit}


def evaluate_true():
    from repro.logic import TRUE

    return TRUE
