"""Arrays in the language front-end and verifier (heap modeling, §8)."""

import pytest

from repro import Verdict, VerifierConfig, parse, verify
from repro.core import ConditionalCommutativity
from repro.lang import ParseError, explore_concrete, parse_program
from repro.logic import Store, ne, var


class TestParsing:
    def test_array_decl(self):
        prog = parse("var h: int[]; thread T { h[0] := 1; }")
        assert "h" in prog.array_variables()

    def test_array_read_write(self):
        prog = parse(
            "var h: int[]; var x: int = 0;"
            "thread T { h[x] := 5; x := h[0]; }"
        )
        thread = prog.threads[0]
        first = thread.enabled(thread.initial)[0]
        assert isinstance(first.updates["h"], Store)

    def test_array_initializer_rejected(self):
        with pytest.raises(ParseError):
            parse_program("var h: int[] = 0; thread T { skip; }")

    def test_array_havoc_rejected(self):
        with pytest.raises(ParseError):
            parse_program("var h: int[]; thread T { havoc h; }")

    def test_bare_array_in_expression_rejected(self):
        with pytest.raises(ParseError):
            parse_program("var h: int[]; var x: int; thread T { x := h; }")

    def test_array_local(self):
        prog = parse(
            """
            thread T[2] {
                local buf: int[];
                buf[0] := 1;
                assert buf[0] == 1;
            }
            """
        )
        arrays = prog.array_variables()
        assert "buf$T1" in arrays and "buf$T2" in arrays


class TestVerification:
    def test_correct_single_thread(self):
        prog = parse(
            """
            var h: int[];
            thread T { h[0] := 7; assert h[0] == 7; }
            """
        )
        result = verify(prog, config=VerifierConfig(max_rounds=20))
        assert result.verdict == Verdict.CORRECT

    def test_read_preserves_other_cell(self):
        prog = parse(
            """
            var h: int[];
            var x: int = 0;
            thread T { h[0] := 1; h[1] := 2; assert h[0] == 1; }
            """
        )
        result = verify(prog, config=VerifierConfig(max_rounds=20))
        assert result.verdict == Verdict.CORRECT

    def test_race_on_same_cell_found(self):
        prog = parse(
            """
            var h: int[];
            thread A { h[0] := 1; assert h[0] == 1; }
            thread B { h[0] := 2; }
            """
        )
        result = verify(prog, config=VerifierConfig(max_rounds=20))
        assert result.verdict == Verdict.INCORRECT

    def test_disjoint_cells_safe(self):
        prog = parse(
            """
            var h: int[];
            thread A { h[0] := 1; assert h[0] == 1; }
            thread B { h[1] := 2; }
            """
        )
        result = verify(prog, config=VerifierConfig(max_rounds=20))
        assert result.verdict == Verdict.CORRECT

    def test_symbolic_indices_nonaliasing(self):
        """The paper's aliasing example: disjointness comes from the pre."""
        prog = parse(
            """
            var h: int[];
            var i: int = 0;
            var j: int = 1;
            thread A { h[i] := 1; assert h[i] == 1; }
            thread B { h[j] := 2; }
            """
        )
        result = verify(prog, config=VerifierConfig(max_rounds=25))
        assert result.verdict == Verdict.CORRECT

    def test_symbolic_indices_may_alias(self):
        prog = parse(
            """
            var h: int[];
            var i: int = 0;
            var j: int = 0;
            thread A { h[i] := 1; assert h[i] == 1; }
            thread B { h[j] := 2; }
            """
        )
        result = verify(prog, config=VerifierConfig(max_rounds=25))
        assert result.verdict == Verdict.INCORRECT


class TestConditionalCommutativityViaAliasing:
    def test_pointer_writes_commute_under_disjointness(self):
        prog = parse(
            """
            var h: int[];
            var i: int = 0;
            var j: int = 1;
            thread A { h[i] := 1; }
            thread B { h[j] := 2; }
            """
        )
        rel = ConditionalCommutativity()
        (a,) = prog.threads[0].enabled(prog.threads[0].initial)
        (b,) = prog.threads[1].enabled(prog.threads[1].initial)
        assert not rel.commute(a, b)
        assert rel.commute_under(ne(var("i"), var("j")), a, b)


class TestConcreteInterpreter:
    def test_concrete_exploration_with_arrays(self):
        prog = parse(
            """
            var h: int[];
            thread A { h[0] := 1; assert h[0] == 1; }
            thread B { h[0] := 2; }
            """
        )
        result = explore_concrete(prog, max_states=5_000)
        assert result.found_violation
