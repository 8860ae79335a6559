"""Delta verification (repro.delta): diffing and rekeying.

The delta layer's soundness contract is twofold: (a) an edit to one
thread must leave every other thread's statement digests — and hence
all store keys derived from them — bit-identical, so the baseline's
facts keep hitting; (b) a delta run must reproduce the from-scratch
run bit-for-bit (verdict, rounds, proof, per-round state counts): the
served facts may only remove work.
Both are checked here, the first as a hypothesis property plus a
cross-process check, the second as an end-to-end differential.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.commutativity import ConditionalCommutativity, _pair_store_key
from repro.core.preference import ThreadUniformOrder
from repro.delta import (
    ADDED,
    EDITED,
    REMOVED,
    RESTRUCTURED,
    UNCHANGED,
    DeltaTracker,
    diff_programs,
    load_shape,
    program_shape,
    store_shape,
)
from repro.lang import ConcurrentProgram, assign, parse
from repro.logic import Solver, TRUE, add, intc, le, var
from repro.store import (
    KIND_SHAPE,
    ProofStore,
    pair_digest,
    program_digest,
    reset_store_registry,
    statement_digest,
    term_digest,
)
from repro.store import digest as digest_mod
from repro.verifier import QueryStats, VerifierConfig, verify

from helpers import make_program, straight_line_thread

_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _counter_program(constants, name="p"):
    """One straight-line thread per row: ``x<i> := x<i> + k`` per entry."""
    threads = []
    for i, row in enumerate(constants):
        stmts = [
            assign(
                i, f"x{i}", add(var(f"x{i}"), intc(k)), label=f"t{i}s{j}"
            )
            for j, k in enumerate(row)
        ]
        threads.append(straight_line_thread(i, stmts))
    return make_program(threads, name=name)


# ---------------------------------------------------------------- EditPlan


def test_editplan_identical_programs():
    p = _counter_program([[1, 2], [3]])
    plan = diff_programs(p, _counter_program([[1, 2], [3]]))
    assert [t.status for t in plan.threads] == [UNCHANGED, UNCHANGED]
    assert plan.statements_edited == 0
    assert "2 unchanged" in plan.summary()


def test_editplan_one_statement_edit():
    old = _counter_program([[1, 2], [3, 4]])
    new = _counter_program([[1, 2], [3, 5]])
    plan = diff_programs(old, new)
    assert [t.status for t in plan.threads] == [UNCHANGED, EDITED]
    assert plan.statements_edited == 1
    assert plan.threads[1].edited_labels == ("t1s1",)
    # the touched uid belongs to the new program's edited statement
    edited_stmt = new.threads[1].edges[1][0][0]
    assert plan.edited_uids == frozenset({edited_stmt.uid})


def test_editplan_added_removed_restructured():
    base = _counter_program([[1], [2]])
    grown = _counter_program([[1], [2], [3]])
    plan = diff_programs(base, grown)
    assert plan.threads[2].status == ADDED

    plan = diff_programs(grown, base)
    assert plan.threads[2].status == REMOVED

    longer = _counter_program([[1, 9], [2]])
    plan = diff_programs(base, longer)
    assert plan.threads[0].status == RESTRUCTURED
    # every statement of a restructured thread counts as touched
    assert plan.statements_edited == 2


def test_editplan_spec_change():
    t = straight_line_thread(0, [assign(0, "x", intc(1), label="w")])
    base = make_program([t])
    stronger = ConcurrentProgram(
        name="test", threads=list(base.threads), pre=TRUE,
        post=le(var("x"), intc(1)),
    )
    plan = diff_programs(base, stronger)
    assert plan.spec_changed
    assert "spec changed" in plan.summary()


def test_load_shape_degrades_to_none(tmp_path):
    reset_store_registry()
    store = ProofStore(tmp_path / "store")
    p = _counter_program([[1]])
    key_hex = store_shape(store, p)
    assert load_shape(store, key_hex)["threads"]
    assert load_shape(store, "not-hex") is None
    assert load_shape(store, "00" * 16) is None
    store.put(KIND_SHAPE, b"\x01" * 16, {"format": 999})
    assert load_shape(store, ("01" * 16)) is None
    reset_store_registry()


# ----------------------------------------------- digest / key localization


@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=1, max_size=3),
        min_size=2,
        max_size=4,
    ),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_one_thread_edit_localizes_store_keys(rows, data):
    """An edit in one thread leaves every other thread's statement
    digests — and the Hoare/commutativity store keys derived from them —
    bit-identical."""
    old = _counter_program(rows)
    victim = data.draw(st.integers(0, len(rows) - 1))
    pos = data.draw(st.integers(0, len(rows[victim]) - 1))
    edited_rows = [list(r) for r in rows]
    edited_rows[victim][pos] += 100  # outside the generated range
    new = _counter_program(edited_rows)

    plan = diff_programs(old, new)
    assert plan.threads[victim].status == EDITED
    assert plan.statements_edited == 1

    pred = le(var("x0"), intc(3))
    for i in range(len(rows)):
        if i == victim:
            continue
        assert plan.threads[i].status == UNCHANGED
        for loc, edges in old.threads[i].edges.items():
            for pos2, (s_old, _) in enumerate(edges):
                s_new = new.threads[i].edges[loc][pos2][0]
                assert statement_digest(s_old) == statement_digest(s_new)
                # the Hoare-triple store key (context, letter, predicate)
                old_key = pair_digest(
                    term_digest(TRUE), statement_digest(s_old),
                    term_digest(pred),
                )
                new_key = pair_digest(
                    term_digest(TRUE), statement_digest(s_new),
                    term_digest(pred),
                )
                assert old_key == new_key
    # commutativity keys across two unchanged threads also survive
    unchanged = [i for i in range(len(rows)) if i != victim]
    if len(unchanged) >= 2:
        a_old = old.threads[unchanged[0]].edges[0][0][0]
        b_old = old.threads[unchanged[1]].edges[0][0][0]
        a_new = new.threads[unchanged[0]].edges[0][0][0]
        b_new = new.threads[unchanged[1]].edges[0][0][0]
        assert _pair_store_key(a_old, b_old) == _pair_store_key(a_new, b_new)


def test_shape_and_digest_stable_across_processes(tmp_path):
    """The shape record a subprocess computes for the same program is
    bit-identical — the cross-process contract baseline_digest rests on."""
    build = (
        "import json\n"
        "from repro.lang import assign\n"
        "from repro.logic import add, intc, var\n"
        "from repro.delta import program_shape\n"
        "from repro.store import program_digest\n"
        "import sys; sys.path.insert(0, %r)\n"
        "from helpers import make_program, straight_line_thread\n"
        "threads = [straight_line_thread(i, [assign(i, 'x%%d' %% i,"
        " add(var('x%%d' %% i), intc(k)), label='t%%ds%%d' %% (i, j))"
        " for j, k in enumerate(row)])"
        " for i, row in enumerate([[1, 2], [3]])]\n"
        "p = make_program(threads, name='p')\n"
        "print(program_digest(p).hex())\n"
        "print(json.dumps(program_shape(p), sort_keys=True))\n"
    ) % str(Path(__file__).resolve().parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", build],
        capture_output=True, text=True, env=env, check=True,
    )
    digest_line, shape_line = out.stdout.strip().splitlines()
    p = _counter_program([[1, 2], [3]])
    assert digest_line == program_digest(p).hex()
    assert json.loads(shape_line) == json.loads(
        json.dumps(program_shape(p), sort_keys=True)
    )


def test_digest_memo_eviction_counter(monkeypatch):
    monkeypatch.setattr(digest_mod, "_DIGEST_MEMO_LIMIT", 4)
    before = digest_mod._memo_evictions
    terms = [add(var(f"evict_probe_{i}"), intc(i)) for i in range(12)]
    digests = [term_digest(t) for t in terms]
    assert digest_mod._memo_evictions > before
    assert digest_mod.digest_counters()["digest_memo_evictions"] > before
    # evicted entries recompute to the same digest
    assert [term_digest(t) for t in terms] == digests
    monkeypatch.undo()


# -------------------------------------------------------------- DeltaTracker


def test_delta_tracker_attribution():
    old = _counter_program([[1], [2]])
    new = _counter_program([[1], [3]])
    plan = diff_programs(old, new)
    tracker = DeltaTracker(plan)
    clean = new.threads[0].edges[0][0][0]
    touched = new.threads[1].edges[0][0][0]
    tracker.note_hoare(clean, True)
    tracker.note_hoare(touched, False)
    tracker.note_comm(clean, touched, False)
    assert tracker.hoare_reused == 1
    assert tracker.hoare_missed == 1
    assert tracker.comm_missed == 1
    assert tracker.touched_probes == 2
    qs = QueryStats.collect(delta=tracker)
    assert qs.delta_hoare_reused == 1
    assert qs.delta_threads_edited == plan.threads_edited
    assert qs.delta_fact_reuse_rate == pytest.approx(1 / 3)


# ------------------------------------------------- end-to-end differential

_OLD_SRC = """
var x: int = 0;
var y: int = 0;
var z: int = 0;

thread A {
  x := x + 1;
  assert x >= 1;
}

thread B {
  y := y + 1;
  assert y >= 1;
}

thread C {
  z := z + 1;
}
"""
_NEW_SRC = _OLD_SRC.replace("z := z + 1;", "z := z + 2;")


def _fingerprint(result):
    return (
        result.verdict.value,
        result.rounds,
        result.proof_size,
        tuple(r.states_explored for r in result.round_stats),
        tuple(sorted(repr(p) for p in result.predicates)),
    )


def _verify(source, store_path=None, baseline_digest=None):
    program = parse(source, name="patch")
    solver = Solver()
    config = VerifierConfig(
        store_path=str(store_path) if store_path else None,
        baseline_digest=baseline_digest,
    )
    result = verify(
        program, ThreadUniformOrder(), ConditionalCommutativity(solver),
        config=config, solver=solver,
    )
    return program, result


def test_delta_run_bit_identical_and_reuses_facts(tmp_path):
    store_path = tmp_path / "store"
    reset_store_registry()
    _, scratch = _verify(_NEW_SRC)
    reset_store_registry()
    old_program, _ = _verify(_OLD_SRC, store_path)
    baseline_hex = program_digest(old_program).hex()
    reset_store_registry()  # fresh-process simulation
    _, delta = _verify(_NEW_SRC, store_path, baseline_hex)
    reset_store_registry()

    assert _fingerprint(delta) == _fingerprint(scratch)
    qs = delta.query_stats
    assert qs.delta_threads_unchanged == 2
    assert qs.delta_threads_edited == 1
    assert qs.delta_statements_edited == 1
    assert qs.delta_hoare_reused > 0
    assert qs.delta_fact_reuse_rate >= 0.7
    assert "delta:" in qs.summary()
    # the counters flow through the dict/CSV surfaces too
    d = qs.as_dict()
    assert d["delta_hoare_reused"] == qs.delta_hoare_reused
    assert d["delta_fact_reuse_rate"] == round(qs.delta_fact_reuse_rate, 4)


def test_missing_baseline_degrades_to_plain_run(tmp_path):
    reset_store_registry()
    _, result = _verify(_NEW_SRC, tmp_path / "store", "ff" * 16)
    reset_store_registry()
    assert result.verdict.solved
    qs = result.query_stats
    assert qs.delta_threads_unchanged == 0
    assert qs.delta_hoare_reused == 0
