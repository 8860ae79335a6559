"""Content-digest properties (repro.store.digest).

The store's soundness rests on the digest scheme: digest equality must
coincide with structural equality (which the interning kernel makes
pointer identity), digests must be identical across processes, and a
term re-interned through the pickle hook must keep its digest.  These
are checked as hypothesis properties over generated terms plus a few
directed cases (deep spines, memo-full fallback, framing).
"""

import os
import pickle
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.lang import Statement, assign, assume, havoc
from repro.lang.program import ConcurrentProgram
from repro.logic import (
    FALSE,
    TRUE,
    add,
    and_,
    avar,
    boolc,
    eq,
    intc,
    ite,
    le,
    mul,
    not_,
    or_,
    select,
    store as astore,
    var,
)
from repro.store import (
    DIGEST_SIZE,
    digest_counters,
    pair_digest,
    program_digest,
    statement_digest,
    term_digest,
)
from repro.store import digest as digest_mod

from helpers import make_program, straight_line_thread


def _leaves():
    return st.one_of(
        st.integers(min_value=-50, max_value=50).map(intc),
        st.sampled_from(["x", "y", "z"]).map(var),
        st.booleans().map(boolc),
    )


def _extend(children):
    return st.one_of(
        st.tuples(children, children).map(lambda p: add(*p)),
        st.tuples(st.integers(-3, 3), children).map(lambda p: mul(p[0], p[1])),
        st.tuples(children, children).map(lambda p: eq(*p)),
        st.tuples(children, children).map(lambda p: le(*p)),
        st.tuples(children, children).map(lambda p: and_(*p)),
        st.tuples(children, children).map(lambda p: or_(*p)),
        children.map(not_),
        st.tuples(children, children, children).map(lambda p: ite(*p)),
    )


terms = st.recursive(_leaves(), _extend, max_leaves=12)


@given(terms, terms)
@settings(max_examples=200, deadline=None)
def test_digest_equality_is_identity(a, b):
    # the kernel interns structurally equal terms to one node, so digest
    # equality must coincide exactly with pointer identity — one
    # direction is determinism, the other absence of collisions
    assert (term_digest(a) == term_digest(b)) == (a is b)


@given(terms)
@settings(max_examples=100, deadline=None)
def test_digest_survives_reintern(t):
    clone = pickle.loads(pickle.dumps(t))
    assert clone is t  # the _reintern pickle hook lands on the same node
    assert term_digest(clone) == term_digest(t)
    assert len(term_digest(t)) == DIGEST_SIZE


def test_digest_survives_reintern_arrays():
    a = astore(avar("A"), var("i"), intc(3))
    t = eq(select(a, add(var("i"), intc(1))), intc(0))
    assert term_digest(t) == term_digest(pickle.loads(pickle.dumps(t)))


def test_digest_stable_across_processes():
    # the store's whole point: the same fact gets the same key in every
    # process.  Build representative terms here and in a subprocess and
    # compare hex digests.
    build = (
        "from repro.logic import *\n"
        "from repro.store import term_digest\n"
        "ts = [\n"
        "    intc(42), var('x'), TRUE, FALSE,\n"
        "    add(var('x'), intc(1)),\n"
        "    mul(3, var('y')),\n"
        "    and_(le(var('x'), intc(5)), eq(var('y'), var('x'))),\n"
        "    not_(or_(eq(var('x'), intc(0)), le(intc(1), var('y')))),\n"
        "    ite(eq(var('x'), intc(0)), intc(1), var('y')),\n"
        "    eq(select(store(avar('A'), var('i'), intc(3)), var('j')), intc(0)),\n"
        "]\n"
        "print('\\n'.join(term_digest(t).hex() for t in ts))\n"
    )
    env = dict(os.environ)
    src = str(Path(digest_mod.__file__).resolve().parents[3])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", build],
        capture_output=True, text=True, env=env, check=True,
    )
    here = [
        intc(42), var("x"), TRUE, FALSE,
        add(var("x"), intc(1)),
        mul(3, var("y")),
        and_(le(var("x"), intc(5)), eq(var("y"), var("x"))),
        not_(or_(eq(var("x"), intc(0)), le(intc(1), var("y")))),
        ite(eq(var("x"), intc(0)), intc(1), var("y")),
        eq(select(astore(avar("A"), var("i"), intc(3)), var("j")), intc(0)),
    ]
    assert out.stdout.split() == [term_digest(t).hex() for t in here]


def test_deep_spine_no_recursion_blowup():
    t = var("x")
    for i in range(5000):
        t = add(t, intc(i % 7))
    d = term_digest(t)
    assert len(d) == DIGEST_SIZE
    assert term_digest(t) == d  # memoized second call agrees


def test_memo_full_fallback_is_correct(monkeypatch):
    t = and_(le(var("memo_full_probe"), intc(9)), eq(var("y"), intc(1)))
    expected = term_digest(t)
    fresh = and_(le(var("memo_full_probe2"), intc(9)), eq(var("y"), intc(1)))
    monkeypatch.setattr(digest_mod, "_DIGEST_MEMO_LIMIT", 0)
    digest_mod._digest_memo.pop(fresh.nid, None)
    with_overlay = term_digest(fresh)
    monkeypatch.undo()
    assert with_overlay == term_digest(fresh)
    assert with_overlay != expected  # different var name, different digest
    assert len(with_overlay) == DIGEST_SIZE


def test_pair_digest_framing():
    # length-prefix framing: neither order nor concatenation boundaries
    # may collide
    a, b, c = b"aa", b"bb", b"cc"
    assert pair_digest(a, b) != pair_digest(b, a)
    assert pair_digest(b"ab", b"c") != pair_digest(b"a", b"bc")
    assert pair_digest(a, b) != pair_digest(a, b, c)


def test_statement_digest_semantic_payload():
    s1 = assign(0, "x", add(var("x"), intc(1)), label="L")
    s2 = assign(0, "x", add(var("x"), intc(1)), label="L")
    assert statement_digest(s1) == statement_digest(s2)
    # thread, label, and right-hand side all separate digests
    assert statement_digest(s1) != statement_digest(
        assign(1, "x", add(var("x"), intc(1)), label="L")
    )
    assert statement_digest(s1) != statement_digest(
        assign(0, "x", add(var("x"), intc(1)), label="M")
    )
    assert statement_digest(s1) != statement_digest(
        assign(0, "x", add(var("x"), intc(2)), label="L")
    )


def test_statement_digest_update_order_canonical():
    u = {"a": intc(1), "b": intc(2)}
    s1 = Statement(0, "multi", updates=dict(u))
    s2 = Statement(0, "multi", updates=dict(reversed(list(u.items()))))
    assert statement_digest(s1) == statement_digest(s2)


def test_statement_digest_covers_choices():
    h1 = havoc(0, "x", label="h")
    h2 = havoc(0, "x", label="h")
    # distinct choice variables: different nondeterministic letters
    assert statement_digest(h1) != statement_digest(h2)


def test_program_digest_localized_change():
    def prog(k):
        t0 = straight_line_thread(
            0, [assign(0, "x", intc(k), label="w0")]
        )
        t1 = straight_line_thread(
            1, [assume(1, le(var("x"), intc(5)), label="r1")]
        )
        return make_program([t0, t1], name="p")

    p1, p2, p3 = prog(1), prog(1), prog(2)
    assert program_digest(p1) == program_digest(p2)
    assert program_digest(p1) != program_digest(p3)
    # the edit touched thread 0 only: thread 1's statement digest (and
    # thus its store entries) keeps hitting — delta verification
    s1 = p1.threads[1].edges[0][0][0]
    s3 = p3.threads[1].edges[0][0][0]
    assert statement_digest(s1) == statement_digest(s3)


def test_program_digest_covers_spec():
    t0 = straight_line_thread(0, [assign(0, "x", intc(1), label="w")])
    base = make_program([t0], name="p")
    stronger = ConcurrentProgram(
        name="p", threads=list(base.threads), pre=TRUE,
        post=le(var("x"), intc(1)),
    )
    assert program_digest(base) != program_digest(stronger)


def test_kind_constants_agree_with_commutativity():
    from repro.core import commutativity as comm
    from repro.store import KIND_COMM, KIND_COMM_COND

    assert comm._KIND_COMM == KIND_COMM
    assert comm._KIND_COMM_COND == KIND_COMM_COND


def test_digest_counters_observability():
    term_digest(add(var("x"), intc(123456)))
    counters = digest_counters()
    assert counters["term_digests_memoized"] > 0
    assert "statement_digests_memoized" in counters
