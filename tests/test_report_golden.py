"""Golden guard for every report derived from ``QueryStats``.

Every counter field holds a distinct value, so a counter that lands in
the wrong CSV column, JSON key or ``summary()`` slot changes the text.
The expected texts below were recorded from the hand-written reports
and must stay byte-identical.
"""

import json
from dataclasses import fields, replace

from repro.harness import result_row
from repro.verifier import QueryStats, Verdict, VerificationResult
from repro.verifier.reporting import results_to_csv, results_to_json

#: the fields that switch each optional ``summary()`` section on
SECTION_GATES = (
    "fastpath_rounds",
    "delta_threads_unchanged",
    "delta_threads_edited",
    "delta_hoare_reused",
    "triage_ranker_hits",
    "triage_ladder_stages",
    "triage_preemptions",
    "triage_budget_saved_seconds",
)


def distinct_stats() -> QueryStats:
    """Field *i* holds ``i + 1`` (floats get a fractional part)."""
    values = {}
    for i, f in enumerate(fields(QueryStats)):
        values[f.name] = i + 1.625 if isinstance(f.default, float) else i + 1
    return QueryStats(**values)


def golden_results() -> list[VerificationResult]:
    full = VerificationResult(
        program_name="golden",
        verdict=Verdict.INCORRECT,
        rounds=3,
        proof_size=5,
        num_predicates=7,
        states_explored=11,
        time_seconds=1.23456,
        peak_memory_bytes=2_500_000,
        query_stats=distinct_stats(),
        order_name="seq",
        mode="sleep",
        failure_reason='budget, "quoted"',
    )
    bare = VerificationResult(
        program_name="bare", verdict=Verdict.CORRECT, order_name="lockstep"
    )
    return [full, bare]


CSV_TEXT = (
    "program,verdict,order,mode,engine,rounds,proof_size,"
    "num_predicates,states_explored,time_seconds,peak_memory_bytes,"
    "solver_queries,solver_decisions,solver_hit_rate,comm_queries,"
    "comm_hit_rate,edge_sort_hit_rate,engine_deadline_ticks,"
    "useless_cache_hits,fh_step_delta_hits,fastpath_rounds,"
    "fastpath_step_hits,"
    "fastpath_commute_mask_hits,intern_hit_rate,substitute_hit_rate,"
    "reintern_count,store_hits,store_hit_rate,store_writes,"
    "delta_threads_unchanged,delta_threads_edited,delta_hoare_reused,"
    "delta_comm_reused,delta_fact_reuse_rate,triage_ranker_hits,"
    "triage_ladder_stages,triage_preemptions,"
    "triage_budget_saved_seconds,failure_reason\r\n"
    "golden,incorrect,seq,sleep,fast,3,5,7,11,1.2346,2500000,1,5,"
    "9.0000,9,0.6842,0.4865,17,20,22,25,28,30,0.4923,0.4932,35,40,"
    "0.4938,42,44,45,47,49,0.4948,52,53,54,55.6250,"
    '"budget, ""quoted"""\r\n'
    "bare,correct,lockstep,combined,fast,0,0,0,0,0.0000,0,,,,,,,,,,,,,,"
    ",,,,,,,,,,,,,,\r\n"
)


JSON_KEYS = (
    "program",
    "verdict",
    "order",
    "mode",
    "engine",
    "rounds",
    "proof_size",
    "num_predicates",
    "states_explored",
    "time_seconds",
    "peak_memory_bytes",
    "counterexample",
    "predicates",
    "query_stats",
    "failure_reason",
)


QUERY_STATS_DICT = {
    "solver_sat_queries": 1,
    "solver_cache_hits": 2,
    "solver_model_pool_hits": 3,
    "solver_unknown_cache_hits": 4,
    "solver_decisions": 5,
    "solver_unknowns": 6,
    "solver_time_seconds": 7.625,
    "solver_nodes_searched": 8,
    "comm_queries": 9,
    "comm_syntactic_hits": 10,
    "comm_cache_hits": 11,
    "comm_solver_checks": 12,
    "comm_unknown_fallbacks": 13,
    "comm_subsumption_queries": 14,
    "comm_subsumption_hits": 15,
    "engine_states_explored": 16,
    "engine_deadline_ticks": 17,
    "edge_sort_hits": 18,
    "edge_sort_misses": 19,
    "useless_cache_hits": 20,
    "fh_step_hits": 21,
    "fh_step_delta_hits": 22,
    "fh_step_delta_misses": 23,
    "fh_initial_delta_hits": 24,
    "fastpath_rounds": 25,
    "fastpath_edge_hits": 26,
    "fastpath_edge_misses": 27,
    "fastpath_step_hits": 28,
    "fastpath_step_misses": 29,
    "fastpath_commute_mask_hits": 30,
    "fastpath_commute_mask_misses": 31,
    "intern_hits": 32,
    "intern_misses": 33,
    "intern_table_size": 34,
    "reintern_count": 35,
    "substitute_hits": 36,
    "substitute_misses": 37,
    "free_vars_calls": 38,
    "kernel_compactions": 39,
    "store_hits": 40,
    "store_misses": 41,
    "store_writes": 42,
    "store_entries": 43,
    "delta_threads_unchanged": 44,
    "delta_threads_edited": 45,
    "delta_statements_edited": 46,
    "delta_hoare_reused": 47,
    "delta_hoare_missed": 48,
    "delta_comm_reused": 49,
    "delta_comm_missed": 50,
    "digest_memo_evictions": 51,
    "triage_ranker_hits": 52,
    "triage_ladder_stages": 53,
    "triage_preemptions": 54,
    "triage_budget_saved_seconds": 55.625,
    "solver_hit_rate": 9.0,
    "commutativity_hit_rate": 0.6842,
    "edge_sort_hit_rate": 0.4865,
    "intern_hit_rate": 0.4923,
    "substitute_hit_rate": 0.4932,
    "free_vars_hit_rate": 1.0,
    "store_hit_rate": 0.4938,
    "delta_fact_reuse_rate": 0.4948,
}


SUMMARY_ALL_ON = (
    "solver:        1 sat queries, 5 decisions, 6 unknowns,"
    " hit rate 900.0% (cache 2, model pool 3, unknown cache 4)\n"
    "               8 search nodes, 7.625s in decisions\n"
    "commutativity: 9 queries, 10 syntactic, 11 memoized,"
    " 12 solver checks (13 unknown fallbacks)\n"
    "proof checker: 14 proof-sensitive queries, 15 subsumption hits,"
    " combined hit rate 68.4%\n"
    "engine:        16 states, 17 deadline ticks,"
    " edge-sort hit rate 48.6% (hits 18, misses 19), 20 useless-state hits\n"
    "incremental:   fh steps 21 hits / 22 delta hits / 23 misses,"
    " 24 initial delta hits\n"
    "term kernel:   intern hit rate 49.2% (hits 32, misses 33),"
    " table size 34, substitute hit rate 49.3%,"
    " 38 free_vars calls (precomputed), 35 re-interned\n"
    "proof store:   hit rate 49.4% (hits 40, misses 41), 42 writes,"
    " 43 entries on disk\n"
    "fast path:     25 rounds, edge tables 26 hits / 27 compiled,"
    " steps 28 hits / 29 misses, commute masks 30 hits / 31 misses\n"
    "delta:         44 threads unchanged / 45 edited (46 statements),"
    " fact reuse 49.5% (hoare 47/95, comm 49/99)\n"
    "triage:        52 ranker hits, 53 ladder stages, 54 preemptions,"
    " 55.6s budget saved"
)


SUMMARY_ALL_OFF = (
    "solver:        1 sat queries, 5 decisions, 6 unknowns,"
    " hit rate 900.0% (cache 2, model pool 3, unknown cache 4)\n"
    "               8 search nodes, 7.625s in decisions\n"
    "commutativity: 9 queries, 10 syntactic, 11 memoized,"
    " 12 solver checks (13 unknown fallbacks)\n"
    "proof checker: 14 proof-sensitive queries, 15 subsumption hits,"
    " combined hit rate 68.4%\n"
    "engine:        16 states, 17 deadline ticks,"
    " edge-sort hit rate 48.6% (hits 18, misses 19), 20 useless-state hits\n"
    "incremental:   fh steps 21 hits / 22 delta hits / 23 misses,"
    " 24 initial delta hits\n"
    "term kernel:   intern hit rate 49.2% (hits 32, misses 33),"
    " table size 34, substitute hit rate 49.3%,"
    " 38 free_vars calls (precomputed), 35 re-interned\n"
    "proof store:   hit rate 49.4% (hits 40, misses 41), 42 writes,"
    " 43 entries on disk"
)


SUMMARY_ZERO = (
    "solver:        0 sat queries, 0 decisions, 0 unknowns,"
    " hit rate 0.0% (cache 0, model pool 0, unknown cache 0)\n"
    "               0 search nodes, 0.000s in decisions\n"
    "commutativity: 0 queries, 0 syntactic, 0 memoized,"
    " 0 solver checks (0 unknown fallbacks)\n"
    "proof checker: 0 proof-sensitive queries, 0 subsumption hits,"
    " combined hit rate 0.0%\n"
    "engine:        0 states, 0 deadline ticks,"
    " edge-sort hit rate 0.0% (hits 0, misses 0), 0 useless-state hits\n"
    "incremental:   fh steps 0 hits / 0 delta hits / 0 misses,"
    " 0 initial delta hits\n"
    "term kernel:   intern hit rate 0.0% (hits 0, misses 0),"
    " table size 0, substitute hit rate 0.0%,"
    " 0 free_vars calls (precomputed), 0 re-interned\n"
    "proof store:   hit rate 0.0% (hits 0, misses 0), 0 writes,"
    " 0 entries on disk"
)


RESULT_ROWS = [
    {
        "program": "golden",
        "verdict": "incorrect",
        "rounds": 3,
        "proof_size": 5,
        "states": 11,
        "time_s": 1.235,
        "memory_mb": 2.5,
        "order": "seq",
        "failure_reason": 'budget, "quoted"',
        "solver_queries": 1,
        "solver_hit_rate": 9.0,
        "comm_hit_rate": 0.6842,
    },
    {
        "program": "bare",
        "verdict": "correct",
        "rounds": 0,
        "proof_size": 0,
        "states": 0,
        "time_s": 0.0,
        "memory_mb": 0.0,
        "order": "lockstep",
    },
]


def test_csv_text():
    assert results_to_csv(golden_results()) == CSV_TEXT


def test_json_rows():
    full, bare = json.loads(results_to_json(golden_results()))
    assert tuple(full) == tuple(bare) == JSON_KEYS
    assert list(full["query_stats"].items()) == list(QUERY_STATS_DICT.items())
    assert bare["query_stats"] is None


def test_as_dict_keys_and_values():
    got = distinct_stats().as_dict()
    assert list(got.items()) == list(QUERY_STATS_DICT.items())


def test_summary_all_sections_on():
    assert distinct_stats().summary() == SUMMARY_ALL_ON


def test_summary_all_sections_off():
    off = replace(distinct_stats(), **{name: 0 for name in SECTION_GATES})
    assert off.summary() == SUMMARY_ALL_OFF


def test_summary_all_zero():
    assert QueryStats().summary() == SUMMARY_ZERO


def test_result_rows():
    assert [result_row(r) for r in golden_results()] == RESULT_ROWS


