"""Delta verification: structural diffs of program versions.

The verify pipeline's delta layer.  :mod:`repro.delta.diff` turns two
program versions into an :class:`EditPlan` (per-thread, per-statement
classification over content digests) and attributes persistent-store
reuse of Hoare and commutativity facts to it.  Entry points:
``verify(config.baseline_digest=...)`` and the ``repro diff-verify``
CLI.
"""

from .diff import (
    ADDED,
    EDITED,
    REMOVED,
    RESTRUCTURED,
    UNCHANGED,
    DeltaTracker,
    EditPlan,
    ThreadDelta,
    diff_programs,
    load_shape,
    program_shape,
    store_shape,
    thread_shape,
)

__all__ = [
    "ADDED",
    "EDITED",
    "REMOVED",
    "RESTRUCTURED",
    "UNCHANGED",
    "DeltaTracker",
    "EditPlan",
    "ThreadDelta",
    "diff_programs",
    "load_shape",
    "program_shape",
    "store_shape",
    "thread_shape",
]
