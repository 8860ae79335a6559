"""Concrete interpreter tests."""

from repro.lang import explore_concrete, parse, replay


class TestExploreConcrete:
    def test_safe_program(self):
        prog = parse(
            "var x: int = 0;"
            "thread A { x := x + 1; assert x > 0; }"
        )
        result = explore_concrete(prog)
        assert not result.found_violation

    def test_buggy_program(self):
        prog = parse(
            "var x: int = 0;"
            "thread A { assert x == 1; }"
        )
        result = explore_concrete(prog)
        assert result.found_violation
        assert any("assert-fail" in s.label for s in result.violation)

    def test_race_found(self):
        # classic lost-update shape: B can run between A's test and set
        prog = parse(
            """
            var x: int = 0;
            thread A { assume x == 0; x := x + 1; assert x == 1; }
            thread B { x := x + 5; }
            """
        )
        result = explore_concrete(prog, value_range=(0,), choice_values=(0,))
        assert result.found_violation

    def test_atomic_protects(self):
        prog = parse(
            """
            var x: int = 0;
            var done: bool = false;
            thread A { atomic { assume !done; x := x + 1; done := true; } assert x >= 1; }
            thread B { assume done; x := x + 5; }
            """
        )
        result = explore_concrete(prog)
        assert not result.found_violation

    def test_completed_stores(self):
        prog = parse(
            "var x: int = 0; thread A { x := 7; }"
        )
        result = explore_concrete(prog)
        assert any(env["x"] == 7 for env in result.completed_stores)

    def test_forced_initials_respected(self):
        prog = parse(
            "var x: int = 3; thread A { assert x == 3; }"
        )
        result = explore_concrete(prog)
        assert not result.found_violation


class TestReplay:
    def test_replay_trace(self):
        prog = parse("var x: int = 0; thread A { x := x + 1; x := x + 1; }")
        thread = prog.threads[0]
        trace = [thread.enabled(thread.initial)[0]]
        mid = thread.step(thread.initial, trace[0])
        trace.append(thread.enabled(mid)[0])
        env = replay(prog, trace, {"x": 0})
        assert env == {"x": 2}

    def test_replay_blocked_guard(self):
        prog = parse("var x: int = 0; thread A { assume x > 5; }")
        thread = prog.threads[0]
        stmt = thread.enabled(thread.initial)[0]
        assert replay(prog, [stmt], {"x": 0}) is None
