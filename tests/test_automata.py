"""DFA and lazy-automaton tests."""

import pytest

from repro.automata import (
    DFA,
    ExplorationLimit,
    MappedLazyDFA,
    count_reachable_states,
    materialize,
)


def ab_star_ending_b() -> DFA:
    """Words over {a, b} ending in b."""
    return DFA.build(
        alphabet={"a", "b"},
        transitions={
            (0, "a"): 0,
            (0, "b"): 1,
            (1, "a"): 0,
            (1, "b"): 1,
        },
        initial=0,
        finals={1},
    )


def finite_lang(words: set[tuple[str, ...]], alphabet: set[str]) -> DFA:
    """A trie-shaped DFA for a finite language."""
    transitions = {}
    finals = set()
    for w in words:
        for i in range(len(w)):
            transitions[(w[:i], w[i])] = w[: i + 1]
        finals.add(w)
    return DFA.build(alphabet, transitions, (), finals)


class TestBasics:
    def test_accepts(self):
        d = ab_star_ending_b()
        assert d.accepts(("b",))
        assert d.accepts(("a", "a", "b"))
        assert not d.accepts(())
        assert not d.accepts(("b", "a"))

    def test_run_dies_on_missing_edge(self):
        d = finite_lang({("a", "b")}, {"a", "b"})
        assert d.run(("b",)) is None
        assert not d.accepts(("b",))

    def test_states_and_count(self):
        d = ab_star_ending_b()
        assert d.num_states() == 2

    def test_unreachable_states_not_counted(self):
        d = DFA.build({"a"}, {(0, "a"): 0, (5, "a"): 0}, 0, {0})
        assert d.num_states() == 1


class TestLanguageOps:
    def test_words_enumeration(self):
        d = finite_lang({("a",), ("a", "b")}, {"a", "b"})
        assert d.language_up_to(2) == {("a",), ("a", "b")}


class TestLazy:
    def _counter(self, limit: int) -> MappedLazyDFA:
        return MappedLazyDFA(
            initial=0,
            successors=lambda q: [("inc", q + 1)] if q < limit else [],
            accepting=lambda q: q == limit,
        )

    def test_materialize(self):
        d = materialize(self._counter(3), {"inc"})
        assert d.accepts(("inc",) * 3)
        assert not d.accepts(("inc",) * 2)
        assert d.num_states() == 4

    def test_count_reachable(self):
        assert count_reachable_states(self._counter(5)) == 6

    def test_exploration_limit(self):
        unbounded = MappedLazyDFA(
            0, lambda q: [("inc", q + 1)], lambda q: False
        )
        with pytest.raises(ExplorationLimit):
            count_reachable_states(unbounded, max_states=100)

