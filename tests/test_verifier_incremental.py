"""Incremental CEGAR rounds: differential and unit tests.

Incremental mode keeps the delta-aware Floyd/Hoare step cache across
vocabulary growth; proof-check rounds themselves start cold.  Three
layers of evidence that it is semantically inert:

* a hypothesis differential drives an incremental
  :class:`FloydHoareAutomaton` through random vocabulary-growth
  schedules and checks every ``initial_state``/``step`` answer against a
  from-scratch automaton rebuilt after each growth step;
* full ``verify()`` runs over the mutex and bluetooth families compare
  incremental and non-incremental rounds for both search strategies —
  verdict, rounds, counterexample, proof size, vocabulary, and
  per-round state counts must be identical;
* a hypothesis differential over random programs runs the production
  configuration (fast engine, incremental) against the coldest oracle
  (pure engine, non-incremental) under BFS and DFS.

Unit tests pin the shared antichain helpers.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from helpers import fingerprint, small_programs
from repro.benchmarks import bluetooth, mutex
from repro.core import maximal_antichain, minimal_antichain
from repro.core.commutativity import ConditionalCommutativity
from repro.lang import assign, assume
from repro.logic import Solver, add, and_, eq, ge, gt, intc, le, sub, var
from repro.verifier import FloydHoareAutomaton, VerifierConfig, verify

x, y = var("x"), var("y")

# -- hypothesis differential: delta FH steps vs from-scratch ----------------

_PREDS = [
    ge(x, intc(0)),
    ge(x, intc(1)),
    le(x, intc(3)),
    eq(x, y),
    ge(y, intc(0)),
    le(y, intc(2)),
    gt(x, y),
    eq(x, intc(2)),
]

_LETTERS = [
    assign(0, "x", add(x, intc(1))),
    assign(1, "y", sub(y, intc(1))),
    assign(0, "x", y),
    assign(1, "y", intc(0)),
    assume(0, ge(x, intc(1))),
    assume(1, le(y, intc(1))),
]

_PRES = [
    eq(x, intc(0)),
    and_(eq(x, intc(0)), eq(y, intc(0))),
    ge(x, intc(2)),
    and_(ge(x, intc(0)), le(x, intc(0))),
]


@given(
    growth=st.lists(
        st.integers(min_value=0, max_value=len(_PREDS) - 1),
        min_size=1,
        max_size=6,
    ),
    letters=st.lists(
        st.integers(min_value=0, max_value=len(_LETTERS) - 1),
        min_size=1,
        max_size=5,
    ),
    pre_index=st.integers(min_value=0, max_value=len(_PRES) - 1),
)
@settings(max_examples=40, deadline=None)
def test_incremental_fh_matches_fresh(growth, letters, pre_index):
    """After every vocabulary growth, the delta-stepped automaton must
    answer exactly like one rebuilt from scratch over the same
    predicates — states, bottom-ness, and the implied-predicate scan."""
    solver = Solver()
    pre = _PRES[pre_index]
    inc = FloydHoareAutomaton([], solver, incremental=True)
    word = [_LETTERS[i] for i in letters]
    for grow in growth:
        inc.add_predicate(_PREDS[grow])
        fresh = FloydHoareAutomaton(
            list(inc.predicates), solver, incremental=False
        )
        si = inc.initial_state(pre)
        sf = fresh.initial_state(pre)
        assert si == sf
        for letter in word:
            si = inc.step(si, letter)
            sf = fresh.step(sf, letter)
            assert si == sf
            assert inc.is_bottom(si) == fresh.is_bottom(sf)


def test_delta_counters_fire_on_growth():
    solver = Solver()
    fh = FloydHoareAutomaton([_PREDS[0]], solver, incremental=True)
    state = fh.initial_state(_PRES[0])
    state = fh.step(state, _LETTERS[0])
    fh.add_predicate(_PREDS[1])
    nxt = fh.initial_state(_PRES[0])
    fh.step(nxt, _LETTERS[0])
    assert fh.stats.step_delta_hits > 0
    assert fh.stats.initial_delta_hits > 0


def test_non_incremental_never_reuses_across_growth():
    solver = Solver()
    fh = FloydHoareAutomaton([_PREDS[0]], solver, incremental=False)
    state = fh.initial_state(_PRES[0])
    fh.step(state, _LETTERS[0])
    fh.add_predicate(_PREDS[1])
    nxt = fh.initial_state(_PRES[0])
    fh.step(nxt, _LETTERS[0])
    assert fh.stats.step_delta_hits == 0
    assert fh.stats.initial_delta_hits == 0


# -- verify(): incremental vs scratch over mutex/bluetooth families ---------

_FAMILY = [
    ("dekker", mutex.dekker),
    ("dekker-bug", lambda: mutex.dekker(correct=False)),
    ("readers-writer(2)", lambda: mutex.readers_writer(2)),
    ("double-observer", mutex.double_observer),
    ("bluetooth(2)", lambda: bluetooth(2)),
    ("bluetooth(2)-bug", lambda: bluetooth(2, correct=False)),
]


def _run(build, *, incremental: bool, search: str):
    solver = Solver()
    config = VerifierConfig(
        search=search,
        incremental=incremental,
        max_rounds=30,
        time_budget=None,
    )
    return verify(
        build(),
        commutativity=ConditionalCommutativity(solver),
        config=config,
        solver=solver,
    )


def _labels(counterexample):
    if counterexample is None:
        return None
    return [s.label for s in counterexample]


@pytest.mark.parametrize("search", ["bfs", "dfs"])
@pytest.mark.parametrize("name,build", _FAMILY, ids=[n for n, _ in _FAMILY])
def test_incremental_and_scratch_verify_agree(search, name, build):
    inc = _run(build, incremental=True, search=search)
    scratch = _run(build, incremental=False, search=search)
    assert inc.verdict == scratch.verdict
    assert inc.rounds == scratch.rounds
    assert inc.proof_size == scratch.proof_size
    assert inc.num_predicates == scratch.num_predicates
    # statements compare by identity across the two program builds, so
    # compare the counterexample as a label word
    assert _labels(inc.counterexample) == _labels(scratch.counterexample)
    assert [r.states_explored for r in inc.round_stats] == [
        r.states_explored for r in scratch.round_stats
    ]
    # scratch mode must stay entirely off the reuse paths
    sqs = scratch.query_stats
    assert sqs.fh_step_delta_hits == 0
    assert sqs.fh_initial_delta_hits == 0


def test_delta_steps_fire_on_bfs_family():
    """The agreement above would be vacuous if the delta path never ran."""
    delta = sum(
        _run(build, incremental=True, search="bfs").query_stats.fh_step_delta_hits
        for _, build in _FAMILY
    )
    assert delta > 0


def test_dfs_keeps_delta_steps():
    qs = _run(mutex.dekker, incremental=True, search="dfs").query_stats
    assert qs.fh_step_delta_hits > 0


# -- production configuration vs the coldest oracle --------------------------


@pytest.mark.parametrize("search", ["bfs", "dfs"])
@settings(max_examples=15, deadline=None)
@given(program=small_programs())
def test_production_matches_cold_pure_oracle(search, program):
    """Fast engine with incremental rounds against the pure engine with
    nothing carried across rounds but the proof."""
    production = verify(
        program,
        config=VerifierConfig(
            engine="fast", incremental=True, search=search, max_rounds=8
        ),
    )
    oracle = verify(
        program,
        config=VerifierConfig(
            engine="pure", incremental=False, search=search, max_rounds=8
        ),
    )
    assert fingerprint(production) == fingerprint(oracle)


# -- shared antichain helpers -----------------------------------------------

_SETS = [
    frozenset({1, 2}),
    frozenset({1}),
    frozenset({2, 3}),
    frozenset({1, 2, 3}),
    frozenset({1}),  # duplicate survives exactly once
]


def test_minimal_antichain():
    kept = minimal_antichain(_SETS)
    assert sorted(kept, key=sorted) == [frozenset({1}), frozenset({2, 3})]


def test_maximal_antichain():
    assert maximal_antichain(_SETS) == [frozenset({1, 2, 3})]


@given(
    st.lists(
        st.frozensets(st.integers(min_value=0, max_value=5), max_size=4),
        max_size=12,
    )
)
@settings(max_examples=60, deadline=None)
def test_antichain_helpers_match_naive_filter(sets):
    minimal = set(minimal_antichain(sets))
    assert minimal == {
        s for s in sets if not any(r < s for r in sets)
    }
    maximal = set(maximal_antichain(sets))
    assert maximal == {
        s for s in sets if not any(r > s for r in sets)
    }
