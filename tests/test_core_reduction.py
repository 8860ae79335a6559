"""Reduction correctness against the Mazurkiewicz class oracle.

These tests realize the paper's central claims on small instances:

* Theorem 5.3 — the sleep set automaton recognizes exactly
  red_lex(⋖)(L(P)): sound, minimal, canonical representatives;
* Theorem 6.6 — adding persistent-set pruning preserves the language;
* Theorem 6.4 — persistent-only reduction is sound (but not minimal);
* Theorem 4.3 / 7.2 — under full commutativity and a thread-uniform
  order, the combined reduction has linearly many states.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.automata import count_reachable_states
from repro.core import (
    FullCommutativity,
    LockstepOrder,
    RandomOrder,
    SyntacticCommutativity,
    ThreadUniformOrder,
)
from repro.core.reduction import ReducedProduct
from repro.lang import Statement, assign, assume, skip
from repro.logic import add, gt, intc, var

from helpers import (
    check_reduction_oracle,
    looping_thread,
    make_program,
    reduction_language,
    straight_line_thread,
)


def two_independent_threads():
    """Two threads over disjoint variables: everything commutes."""
    t0 = straight_line_thread(
        0, [assign(0, "x", intc(1)), assign(0, "x", intc(2))], "A"
    )
    t1 = straight_line_thread(
        1, [assign(1, "y", intc(1)), assign(1, "y", intc(2))], "B"
    )
    return make_program([t0, t1])


def two_conflicting_threads():
    """Threads racing on a shared variable: nothing commutes across."""
    t0 = straight_line_thread(0, [assign(0, "x", intc(1))], "A")
    t1 = straight_line_thread(1, [assign(1, "x", intc(2))], "B")
    return make_program([t0, t1])


def mixed_three_threads():
    """Three threads, some pairs commute, some conflict."""
    t0 = straight_line_thread(
        0, [assign(0, "x", intc(1)), assign(0, "z", intc(1))], "A"
    )
    t1 = straight_line_thread(1, [assign(1, "y", intc(1))], "B")
    t2 = straight_line_thread(
        2, [assume(2, gt(var("x"), intc(0))), assign(2, "y", intc(2))], "C"
    )
    return make_program([t0, t1, t2])


ORDERS = [
    ("seq", lambda prog: ThreadUniformOrder()),
    ("lockstep", lambda prog: LockstepOrder(len(prog.threads))),
    ("rand1", lambda prog: RandomOrder(prog.alphabet(), seed=1)),
    ("rand2", lambda prog: RandomOrder(prog.alphabet(), seed=2)),
]


class TestCombinedReductionOracle:
    @pytest.mark.parametrize("order_name,make_order", ORDERS)
    def test_independent(self, order_name, make_order):
        prog = two_independent_threads()
        check_reduction_oracle(
            prog, make_order(prog), SyntacticCommutativity(), max_length=4
        )

    @pytest.mark.parametrize("order_name,make_order", ORDERS)
    def test_conflicting(self, order_name, make_order):
        prog = two_conflicting_threads()
        check_reduction_oracle(
            prog, make_order(prog), SyntacticCommutativity(), max_length=2
        )

    @pytest.mark.parametrize("order_name,make_order", ORDERS)
    def test_mixed(self, order_name, make_order):
        prog = mixed_three_threads()
        check_reduction_oracle(
            prog, make_order(prog), SyntacticCommutativity(), max_length=5
        )

    @pytest.mark.parametrize("order_name,make_order", ORDERS)
    def test_full_commutativity(self, order_name, make_order):
        prog = mixed_three_threads()
        check_reduction_oracle(
            prog, make_order(prog), FullCommutativity(), max_length=5
        )

    def test_loops(self):
        """Reductions of looping programs, truncated at a length bound."""
        t0 = looping_thread(
            0,
            loop_body=[assign(0, "x", add(var("x"), intc(1)))],
            after=[],
            enter=skip(0, "enter0"),
            leave=skip(0, "leave0"),
            name="A",
        )
        t1 = straight_line_thread(1, [assign(1, "y", intc(1))], "B")
        prog = make_program([t0, t1])
        check_reduction_oracle(
            prog, ThreadUniformOrder(), SyntacticCommutativity(), max_length=6
        )


class TestModeRelationships:
    def test_sleep_equals_combined_language(self):
        prog = mixed_three_threads()
        order = ThreadUniformOrder()
        rel = SyntacticCommutativity()
        sleep = reduction_language(prog, order, rel, mode="sleep", max_length=5)
        combined = reduction_language(
            prog, order, rel, mode="combined", max_length=5
        )
        assert sleep == combined  # Thm 6.6: pruning preserves the language

    def test_persistent_only_is_sound_not_minimal(self):
        prog = two_independent_threads()
        order = ThreadUniformOrder()
        rel = SyntacticCommutativity()
        check_reduction_oracle(
            prog, order, rel, mode="persistent", max_length=4,
            expect_minimal=False,
        )

    def test_none_mode_is_identity(self):
        prog = two_independent_threads()
        full = prog.product_dfa("exit").language_up_to(4)
        none = reduction_language(
            prog, ThreadUniformOrder(), SyntacticCommutativity(),
            mode="none", max_length=4,
        )
        assert none == full

    def test_combined_prunes_states_vs_sleep(self):
        """Persistent sets reduce the explored state count (§6)."""
        prog = make_program(
            [
                straight_line_thread(
                    i, [assign(i, f"v{i}", intc(k)) for k in range(3)], f"T{i}"
                )
                for i in range(3)
            ]
        )
        order = ThreadUniformOrder()
        rel = SyntacticCommutativity()
        sleep_states = count_reachable_states(
            ReducedProduct(prog, order, rel, mode="sleep", accepting="exit")
        )
        combined_states = count_reachable_states(
            ReducedProduct(prog, order, rel, mode="combined", accepting="exit")
        )
        assert combined_states < sleep_states


class TestLinearSize:
    """Theorem 4.3 / 7.2: linear-size reduction for seq + full commutativity."""

    @pytest.mark.parametrize("num_threads", [2, 3, 4])
    def test_linear_growth(self, num_threads):
        statements_per_thread = 3
        prog = make_program(
            [
                straight_line_thread(
                    i,
                    [assign(i, f"v{i}", intc(k)) for k in range(statements_per_thread)],
                    f"T{i}",
                )
                for i in range(num_threads)
            ]
        )
        reduced = ReducedProduct(
            prog,
            ThreadUniformOrder(),
            FullCommutativity(),
            mode="combined",
            accepting="exit",
        )
        states = count_reachable_states(reduced)
        # sequential composition: one chain through all statements
        assert states <= prog.size + 1

    def test_exponential_without_reduction(self):
        num_threads = 4
        prog = make_program(
            [
                straight_line_thread(i, [assign(i, f"v{i}", intc(0))], f"T{i}")
                for i in range(num_threads)
            ]
        )
        full = count_reachable_states(prog.product_view("exit"))
        reduced = count_reachable_states(
            ReducedProduct(
                prog, ThreadUniformOrder(), FullCommutativity(),
                mode="combined", accepting="exit",
            )
        )
        assert full == 2 ** num_threads
        assert reduced < full


class TestLockstepShape:
    def test_lockstep_representative(self):
        """Under full commutativity, lockstep picks round-robin words."""
        t0 = straight_line_thread(
            0, [assign(0, "x", intc(1)), assign(0, "x", intc(2))], "A"
        )
        t1 = straight_line_thread(
            1, [assign(1, "y", intc(1)), assign(1, "y", intc(2))], "B"
        )
        prog = make_program([t0, t1])
        words = reduction_language(
            prog,
            LockstepOrder(2),
            FullCommutativity(),
            max_length=4,
        )
        (word,) = (w for w in words if len(w) == 4)
        threads = [s.thread for s in word]
        assert threads == [0, 1, 0, 1]

    def test_seq_representative(self):
        t0 = straight_line_thread(0, [assign(0, "x", intc(1))] , "A")
        t1 = straight_line_thread(1, [assign(1, "y", intc(1))], "B")
        prog = make_program([t0, t1])
        words = reduction_language(
            prog, ThreadUniformOrder(), FullCommutativity(), max_length=2
        )
        (word,) = (w for w in words if len(w) == 2)
        assert [s.thread for s in word] == [0, 1]


# ---------------------------------------------------------------------------
# Property-based: random small programs, random orders.
# ---------------------------------------------------------------------------

_VARS = ["x", "y", "z"]


def _random_statement(thread: int, code: int) -> Statement:
    kind = code % 3
    target = _VARS[(code // 3) % len(_VARS)]
    source = _VARS[(code // 9) % len(_VARS)]
    if kind == 0:
        return assign(thread, target, intc(code % 5))
    if kind == 1:
        return assign(thread, target, add(var(source), intc(1)))
    return assume(thread, gt(var(source), intc(0)))


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=26), min_size=1, max_size=2),
        min_size=2,
        max_size=3,
    ),
    st.integers(min_value=0, max_value=3),
)
def test_reduction_oracle_random_programs(thread_codes, seed):
    threads = [
        straight_line_thread(
            i, [_random_statement(i, c) for c in codes], f"T{i}"
        )
        for i, codes in enumerate(thread_codes)
    ]
    prog = make_program(threads)
    total_len = sum(len(codes) for codes in thread_codes)
    order = RandomOrder(prog.alphabet(), seed=seed)
    check_reduction_oracle(
        prog, order, SyntacticCommutativity(), max_length=total_len
    )
