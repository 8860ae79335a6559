"""Structural program diffing over content digests (delta verification).

A program edit localizes under the PR 6 digest scheme: unchanged
statements keep their ``statement_digest``, so the Hoare /
commutativity / solver facts keyed below program level keep hitting the
persistent store no matter how the *whole-program* digest moved.  What
the store cannot do by itself is tell the verifier **where** the edit
landed — that is this module's job.

:func:`program_shape` extracts a compact, JSON-able structural shape of
a program (per-thread locations + edge lists carrying statement digest
hexes, plus the pre/post digests).  ``verify()`` persists the shape of
every store-backed run under the program's own digest (kind
``shape``), so a later *delta run* needs only the baseline's digest —
a hex string a service tenant can quote — to reconstruct what the old
program looked like and diff the new one against it.

:class:`EditPlan` is that diff: each thread classified as ``unchanged``
/ ``edited`` (same CFG skeleton, some statement contents differ) /
``restructured`` (locations or edge lists moved) / ``added`` /
``removed``, with the set of *touched* statement uids of the new
program.  Its consumer, :class:`DeltaTracker`, attributes store
probes to the plan — how many Hoare/commutativity facts were served
from the store vs re-derived, split by whether the statement was
touched by the edit (the ``delta_*`` counters of QueryStats).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..lang.cfg import ThreadCFG
from ..lang.program import ConcurrentProgram

#: shape record format; a record with a different format is ignored
SHAPE_FORMAT = 1

#: thread classification labels
UNCHANGED = "unchanged"
EDITED = "edited"            # same CFG skeleton, statement contents differ
RESTRUCTURED = "restructured"  # locations / edge structure changed
ADDED = "added"
REMOVED = "removed"


def thread_shape(thread: ThreadCFG) -> dict:
    """JSON-able structural shape of one thread CFG.

    Edge lists keep their in-CFG order (the compiler emits them
    deterministically), so two shapes of structurally compatible threads
    align position-for-position and differ exactly at edited statements.
    """
    from ..store import statement_digest

    return {
        "name": thread.name,
        "initial": str(thread.initial),
        "exit": str(thread.exit),
        "error": str(thread.error),
        "edges": {
            str(src): [
                [statement_digest(s).hex(), str(dst)]
                for s, dst in thread.edges[src]
            ]
            for src in sorted(thread.edges)
        },
    }


def program_shape(program: ConcurrentProgram) -> dict:
    """JSON-able structural shape of a whole program (kind ``shape``)."""
    from ..store import term_digest

    return {
        "format": SHAPE_FORMAT,
        "name": program.name,
        "pre": term_digest(program.pre).hex(),
        "post": term_digest(program.post).hex(),
        "threads": [thread_shape(t) for t in program.threads],
    }


def store_shape(store, program: ConcurrentProgram) -> str:
    """Persist *program*'s shape under its own digest; returns the hex key.

    Idempotent (same program ⇒ same record); called by every
    store-backed ``verify()`` so any solved run can later serve as a
    delta baseline.
    """
    from ..store import KIND_SHAPE, program_digest

    key = program_digest(program)
    store.put(KIND_SHAPE, key, program_shape(program))
    return key.hex()


def load_shape(store, baseline_digest: str) -> dict | None:
    """The stored shape for a program digest hex, or None.

    A malformed digest string or a missing/alien record degrades to
    None (the caller falls back to a plain, non-delta run).
    """
    from ..store import KIND_SHAPE

    try:
        key = bytes.fromhex(baseline_digest)
    except (ValueError, TypeError):
        return None
    record = store.get(KIND_SHAPE, key)
    if (
        not isinstance(record, dict)
        or record.get("format") != SHAPE_FORMAT
        or not isinstance(record.get("threads"), list)
    ):
        return None
    return record


@dataclass(frozen=True)
class ThreadDelta:
    """One thread's classification in an :class:`EditPlan`."""

    index: int
    name: str
    status: str
    #: labels of this thread's edited statements (EDITED threads only)
    edited_labels: tuple[str, ...] = ()


@dataclass
class EditPlan:
    """The structural diff between a baseline shape and a new program.

    ``edited_uids`` are the uids of the *new* program's statements
    touched by the edit: the content-differing statements of EDITED
    threads, and every statement of RESTRUCTURED/ADDED threads.
    REMOVED threads contribute no uids (they have no statements in the
    new program).
    """

    baseline_digest: str
    threads: list[ThreadDelta] = field(default_factory=list)
    edited_uids: frozenset[int] = frozenset()
    spec_changed: bool = False

    @property
    def threads_unchanged(self) -> int:
        return sum(1 for t in self.threads if t.status == UNCHANGED)

    @property
    def threads_edited(self) -> int:
        return sum(
            1 for t in self.threads if t.status in (EDITED, RESTRUCTURED)
        )

    @property
    def threads_added(self) -> int:
        return sum(1 for t in self.threads if t.status == ADDED)

    @property
    def threads_removed(self) -> int:
        return sum(1 for t in self.threads if t.status == REMOVED)

    @property
    def statements_edited(self) -> int:
        return len(self.edited_uids)

    def summary(self) -> str:
        parts = [
            f"{self.threads_unchanged} unchanged",
            f"{self.threads_edited} edited",
        ]
        if self.threads_added:
            parts.append(f"{self.threads_added} added")
        if self.threads_removed:
            parts.append(f"{self.threads_removed} removed")
        spec = ", spec changed" if self.spec_changed else ""
        return (
            f"threads: {', '.join(parts)}; "
            f"{self.statements_edited} statement(s) touched{spec}"
        )

    @classmethod
    def compute(
        cls,
        old_shape: dict,
        new_program: ConcurrentProgram,
        *,
        baseline_digest: str = "",
    ) -> "EditPlan":
        """Diff *new_program* against a stored baseline shape."""
        from ..store import term_digest

        spec_changed = (
            old_shape.get("pre") != term_digest(new_program.pre).hex()
            or old_shape.get("post") != term_digest(new_program.post).hex()
        )
        old_threads = old_shape.get("threads") or []
        threads: list[ThreadDelta] = []
        edited: set[int] = set()
        for i, thread in enumerate(new_program.threads):
            if i >= len(old_threads):
                threads.append(ThreadDelta(i, thread.name, ADDED))
                edited.update(s.uid for s in thread.alphabet())
                continue
            delta = _diff_thread(i, old_threads[i], thread, edited)
            threads.append(delta)
        for i in range(len(new_program.threads), len(old_threads)):
            name = ""
            if isinstance(old_threads[i], dict):
                name = str(old_threads[i].get("name", ""))
            threads.append(ThreadDelta(i, name, REMOVED))
        return cls(
            baseline_digest=baseline_digest,
            threads=threads,
            edited_uids=frozenset(edited),
            spec_changed=spec_changed,
        )


def _diff_thread(
    index: int, old: dict, thread: ThreadCFG, edited: set[int]
) -> ThreadDelta:
    """Classify one positionally matched thread pair; extends *edited*."""
    new = thread_shape(thread)
    if not isinstance(old, dict):
        edited.update(s.uid for s in thread.alphabet())
        return ThreadDelta(index, thread.name, RESTRUCTURED)
    if old == new:
        return ThreadDelta(index, thread.name, UNCHANGED)
    old_edges = old.get("edges")
    skeleton_ok = (
        isinstance(old_edges, dict)
        and old.get("initial") == new["initial"]
        and old.get("exit") == new["exit"]
        and old.get("error") == new["error"]
        and set(old_edges) == set(new["edges"])
        and all(
            len(old_edges[src]) == len(new["edges"][src])
            and [e[1] for e in old_edges[src]]
            == [e[1] for e in new["edges"][src]]
            for src in new["edges"]
        )
    )
    if not skeleton_ok:
        edited.update(s.uid for s in thread.alphabet())
        return ThreadDelta(index, thread.name, RESTRUCTURED)
    labels: list[str] = []
    for src in sorted(thread.edges):
        old_list = old_edges[str(src)]
        for pos, (statement, _dst) in enumerate(thread.edges[src]):
            if old_list[pos][0] != new["edges"][str(src)][pos][0]:
                edited.add(statement.uid)
                labels.append(statement.label)
    return ThreadDelta(index, thread.name, EDITED, tuple(labels))


def diff_programs(
    old_program: ConcurrentProgram, new_program: ConcurrentProgram
) -> EditPlan:
    """Diff two in-memory program versions (CLI / test convenience)."""
    from ..store import program_digest

    return EditPlan.compute(
        program_shape(old_program),
        new_program,
        baseline_digest=program_digest(old_program).hex(),
    )


class DeltaTracker:
    """Attributes persistent-store probes to an :class:`EditPlan`.

    Attached by the delta stage of ``verify()`` to the Floyd/Hoare
    automaton and the commutativity relations.  Every store probe for a
    Hoare triple or a commutativity fact is counted as reused (store
    hit) or missed (re-derived), and probes involving an edit-touched
    statement are counted separately — the evidence that unchanged
    threads' facts really are served under their old digests.

    Pure observation: the tracker never influences a lookup or a
    verdict, so attaching it cannot perturb a run.
    """

    def __init__(self, plan: EditPlan) -> None:
        self.plan = plan
        self.hoare_reused = 0
        self.hoare_missed = 0
        self.comm_reused = 0
        self.comm_missed = 0
        #: probes that involved at least one edit-touched statement
        self.touched_probes = 0

    def note_hoare(self, letter, hit: bool) -> None:
        if letter.uid in self.plan.edited_uids:
            self.touched_probes += 1
        if hit:
            self.hoare_reused += 1
        else:
            self.hoare_missed += 1

    def note_comm(self, a, b, hit: bool) -> None:
        edited = self.plan.edited_uids
        if a.uid in edited or b.uid in edited:
            self.touched_probes += 1
        if hit:
            self.comm_reused += 1
        else:
            self.comm_missed += 1

    @property
    def fact_reuse_rate(self) -> float:
        """Fraction of Hoare + commutativity store probes served."""
        reused = self.hoare_reused + self.comm_reused
        asked = reused + self.hoare_missed + self.comm_missed
        return reused / asked if asked else 0.0
