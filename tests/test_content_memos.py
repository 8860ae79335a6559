"""Memos keyed by letter content are shared by thread copies, never wrong.

A letter's ``content_id`` names its transition relation (guard, updates,
choices), whatever its thread and label.  The commutativity condition
memo and the Floyd/Hoare weakest-precondition memo are keyed by it, so
copies of one statement in different threads build each term once.
These tests pin that a shared entry is the very term a fresh build of
the asking letters interns, that the condition memo keeps the uid
orientation its terms are built in, and that havoc copies never share.
"""

from __future__ import annotations

import pytest

import repro.core.commutativity as commutativity
from repro.benchmarks import svcomp
from repro.core.commutativity import composition_equal_condition
from repro.lang import assign, havoc, parse
from repro.logic import Solver, TRUE, add, intc, var
from repro.verifier import verify
from repro.verifier.hoare import FloydHoareAutomaton


@pytest.fixture
def cold_condition_memos():
    """Both condition memos empty, before and after the test."""
    commutativity._condition_cache.clear()
    commutativity._content_condition_cache.clear()
    yield
    commutativity._condition_cache.clear()
    commutativity._content_condition_cache.clear()


def _fresh_condition(a, b):
    """The condition a build with no memo entry interns for (a, b)."""
    commutativity._condition_cache.clear()
    commutativity._content_condition_cache.clear()
    return composition_equal_condition(a, b)


def _asked_pairs(monkeypatch, program):
    """Every (a, b) the verifier asks a condition for, with its answer."""
    asked = []

    def recording(a, b):
        condition = composition_equal_condition(a, b)
        asked.append((a, b, condition))
        return condition

    monkeypatch.setattr(commutativity, "composition_equal_condition", recording)
    verify(program)
    monkeypatch.undo()
    return asked


def _letters_by_label(program, thread):
    """Thread *thread*'s letters, keyed by label minus the thread name."""
    return {
        s.label.split(":", 1)[1]: s
        for s in program.alphabet()
        if s.thread == thread
    }


def test_memoized_conditions_are_fresh_builds(monkeypatch, cold_condition_memos):
    program = svcomp.mutex_atomic(4)
    asked = _asked_pairs(monkeypatch, program)
    pairs = {(a.uid, b.uid) for a, b, _ in asked}
    # copies share: many uid pairs, few contents
    assert len(pairs) > len(commutativity._content_condition_cache) > 1
    for a, b, condition in asked:
        assert _fresh_condition(a, b) is condition


def test_thread_copies_share_one_condition(cold_condition_memos):
    program = svcomp.mutex_atomic(3)
    letters = [_letters_by_label(program, t) for t in range(3)]
    assert letters[0]["atomic"].content_id == letters[1]["atomic"].content_id
    first = composition_equal_condition(letters[0]["atomic"], letters[1]["lock:="])
    for i, j in ((0, 2), (1, 2)):
        again = composition_equal_condition(letters[i]["atomic"], letters[j]["lock:="])
        assert again is first
    assert len(commutativity._content_condition_cache) == 1
    assert len(commutativity._condition_cache) == 3


def test_both_uid_orientations_of_a_content_pair_get_their_own_entry(
    cold_condition_memos,
):
    program = svcomp.mutex_atomic(2)
    t0, t1 = _letters_by_label(program, 0), _letters_by_label(program, 1)
    # content (increment, check) and (check, increment)
    a, b = t0["critical:="], t1["assert-pass"]
    c, d = t0["assert-pass"], t1["critical:="]
    assert a.uid < b.uid and c.uid < d.uid
    forward = composition_equal_condition(a, b)
    backward = composition_equal_condition(c, d)
    memo = commutativity._content_condition_cache
    assert (a.content_id, b.content_id) in memo
    assert (c.content_id, d.content_id) in memo
    assert len(memo) == 2
    # the two orientations build different terms for the same relation
    assert forward is not backward
    assert _fresh_condition(a, b) is forward
    assert _fresh_condition(c, d) is backward


def test_havoc_copies_keep_distinct_content_ids():
    h0, h1 = havoc(0, "x"), havoc(1, "x")
    assert h0.content_id != h1.content_id
    one = add(var("x"), intc(1))
    assert assign(0, "x", one).content_id == assign(1, "x", one).content_id
    assert assign(0, "x", one).content_id != assign(0, "y", one).content_id
    program = parse(
        "var x: int = 0; thread A { havoc x; } thread B { havoc x; }"
    )
    ids = [s.content_id for s in program.alphabet() if s.choices]
    assert len(ids) == 2 and ids[0] != ids[1]


def test_wp_memo_answers_each_letters_own_wp():
    program = svcomp.counter_sum(5)
    predicates = verify(program).predicates
    assert predicates
    fh = FloydHoareAutomaton(predicates, Solver())
    letters = sorted(program.alphabet(), key=lambda s: s.uid)
    for letter in letters:
        for i in range(len(predicates)):
            fh._triple(TRUE, letter, i)
    # thread copies filled one entry per content and predicate
    contents = {letter.content_id for letter in letters}
    assert len(contents) < len(letters)
    assert len(fh._wp_cache) == len(contents) * len(predicates)
    for letter in letters:
        for i, pred in enumerate(predicates):
            assert fh._wp_cache[(letter.content_id, i)] is letter.wp(pred)
