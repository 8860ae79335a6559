"""Classic mutual-exclusion protocol benchmarks.

Dekker's and a simplified Szymanski-style protocol, plus readers/writer
locks — the protocol shapes that dominate SV-COMP's ConcurrencySafety
pthread-atomic directory.  Safety only (mutual exclusion as asserts);
no fairness/liveness.
"""

from __future__ import annotations

from ..lang import ConcurrentProgram, parse


def dekker(*, correct: bool = True) -> ConcurrentProgram:
    """Dekker's algorithm, with the flag-retest loop (busy-waits are
    blocking assumes).

    Buggy variant: thread B skips the entry protocol entirely and barges
    into the critical section.
    """
    b_entry_correct = """
    while (wantA == 1) {
        if (turn != 1) { wantB := 0; assume turn == 1; wantB := 1; }
    }
"""
    b_entry_buggy = """
    skip;
"""
    b_entry = b_entry_correct if correct else b_entry_buggy
    src = f"""
var wantA: int = 0;
var wantB: int = 0;
var turn: int = 0;
var inCS: int = 0;
thread A {{
    wantA := 1;
    while (wantB == 1) {{
        if (turn != 0) {{ wantA := 0; assume turn == 0; wantA := 1; }}
    }}
    inCS := inCS + 1;
    assert inCS == 1;
    inCS := inCS - 1;
    turn := 1;
    wantA := 0;
}}
thread B {{
    wantB := 1;
    {b_entry}
    inCS := inCS + 1;
    inCS := inCS - 1;
    turn := 0;
    wantB := 0;
}}
"""
    suffix = "" if correct else "-bug"
    return parse(src, name=f"dekker{suffix}")


def readers_writer(num_readers: int, *, correct: bool = True) -> ConcurrentProgram:
    """A reader/writer lock: readers share, the writer is exclusive.

    Buggy variant: the writer does not wait for readers to drain.
    """
    writer_wait = "atomic { assume readers == 0; writing := true; }" if correct else "writing := true;"
    src = f"""
var readers: int = 0;
var writing: bool = false;
thread Reader[{num_readers}] {{
    atomic {{ assume !writing; readers := readers + 1; }}
    assert !writing;
    atomic {{ readers := readers - 1; }}
}}
thread Writer {{
    {writer_wait}
    writing := false;
}}
"""
    suffix = "" if correct else "-bug"
    return parse(src, name=f"readers-writer({num_readers}){suffix}")


def double_observer(*, correct: bool = True) -> ConcurrentProgram:
    """Two independent observer threads (footnote 4 showcase).

    Each observer asserts about its own variable, so every membrane
    must include both observer threads; the paper's per-thread analysis
    would split this into one analysis per observer (not implemented
    here, see docs/theory.md, deviation 6).
    """
    y_init = 0 if correct else 1
    src = f"""
var x: int = 0;
var y: int = {y_init};
thread A {{ x := x + 1; assert x >= 1; }}
thread B {{ assert y == 0; }}
thread C {{ x := x + 1; }}
"""
    suffix = "" if correct else "-bug"
    return parse(src, name=f"double-observer{suffix}")
