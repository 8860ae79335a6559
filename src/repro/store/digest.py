"""Content digests for proof artifacts.

The interning kernel's ``nid`` scheme gives every live term a stable
*process-local* identity; the persistent store needs identities that
survive the process.  This module extends the nid scheme with a
canonical serialized digest: a 128-bit BLAKE2b hash of a node's
structure, computed bottom-up over the same ``(tag, fields)`` encoding
that :func:`repro.logic.terms._reintern` uses for pickling.  Two terms
have equal digests iff they re-intern to the same node — digest equality
is structural equality is (post-interning) pointer identity — and the
digest of a node is the same in every process that ever builds it.

Statements get digests over their semantic payload (thread, guard,
updates, choices); programs over their thread CFAs and spec.  Both
bottom out in term digests, so a one-token edit to a program changes
exactly the digests downstream of the edit — the store's entries for
the unchanged parts keep hitting ("delta verification").
"""

from __future__ import annotations

import hashlib

from ..lang.program import ConcurrentProgram
from ..lang.statements import Statement
from ..logic.terms import (
    AVar,
    Add,
    And,
    BoolConst,
    Eq,
    IntConst,
    Ite,
    Le,
    Mul,
    Not,
    Or,
    Select,
    Store,
    Term,
    Var,
)

#: digest width in bytes; 128 bits keep accidental collisions out of
#: reach for any store size this system can produce
DIGEST_SIZE = 16

#: ``nid -> digest``: values are bytes (no term references), and nids
#: are never reused, so an entry for a dead node is unreachable, never
#: wrong — the memo needs no invalidation, only a size cap
_DIGEST_MEMO_LIMIT = 500_000
_digest_memo: dict[int, bytes] = {}

#: ``Statement.uid -> digest``; uids are process-local and never reused
_stmt_digest_memo: dict[int, bytes] = {}

#: entries dropped from a full memo to admit new ones (FIFO: dict
#: insertion order approximates age); surfaced by :func:`digest_counters`
_memo_evictions = 0


def _memo_insert(memo: dict[int, bytes], key: int, value: bytes) -> None:
    """Insert with an explicit cap: a full memo evicts its oldest entry.

    Before this bound the full-memo path silently fell back to a
    per-call overlay — correct, but every later call re-walked its whole
    term with zero chance of a future hit, and nothing in the stats
    showed it.  FIFO eviction keeps the memo serving hits at a bounded
    size, and ``digest_memo_evictions`` makes the pressure visible.
    """
    global _memo_evictions
    if len(memo) >= _DIGEST_MEMO_LIMIT and key not in memo:
        memo.pop(next(iter(memo)))
        _memo_evictions += 1
    memo[key] = value


def _blake(*parts: bytes) -> bytes:
    h = hashlib.blake2b(digest_size=DIGEST_SIZE)
    for part in parts:
        # length-prefix framing: no concatenation of distinct part lists
        # can collide byte-for-byte
        h.update(len(part).to_bytes(4, "big"))
        h.update(part)
    return h.digest()


def _leaf_payload(term: Term) -> bytes | None:
    if isinstance(term, IntConst):
        return b"i" + str(term.value).encode()
    if isinstance(term, BoolConst):
        return b"b1" if term.value else b"b0"
    if isinstance(term, (Var, AVar)):
        return term.name.encode()
    return None


def _children(term: Term) -> tuple:
    if isinstance(term, (Add, And, Or)):
        return term.args
    if isinstance(term, Mul):
        return (term.arg,)
    if isinstance(term, Not):
        return (term.arg,)
    if isinstance(term, (Le, Eq)):
        return (term.lhs, term.rhs)
    if isinstance(term, Ite):
        return (term.cond, term.then, term.else_)
    if isinstance(term, Select):
        return (term.array, term.index)
    if isinstance(term, Store):
        return (term.array, term.index, term.value)
    return ()


def _tag(term: Term) -> int:
    # the pickle tags of terms.py: one byte per node class, stable
    # across processes and releases of the kernel
    reduced = term.__reduce__()
    return reduced[1][0]


def term_digest(term: Term) -> bytes:
    """The canonical content digest of *term* (memoized by nid).

    Iterative post-order walk: formulas can be deeper than the Python
    recursion limit (long conjunction spines from weakest-precondition
    chains), so no recursion.  The walk writes into a per-call overlay
    (bounded by the term's own node count and freed on return) and
    publishes the results into the process-wide memo afterwards; the
    memo itself is capped at ``_DIGEST_MEMO_LIMIT`` with FIFO eviction
    (see :func:`_memo_insert`).
    """
    memo = _digest_memo
    hit = memo.get(term.nid)
    if hit is not None:
        return hit
    local: dict[int, bytes] = {}
    stack: list[tuple[Term, bool]] = [(term, False)]
    while stack:
        node, expanded = stack.pop()
        if node.nid in memo or node.nid in local:
            continue
        leaf = _leaf_payload(node)
        if leaf is None and not expanded:
            stack.append((node, True))
            stack.extend((c, False) for c in _children(node))
            continue
        if leaf is not None:
            digest = _blake(bytes([_tag(node)]), leaf)
        else:
            parts = [bytes([_tag(node)])]
            if isinstance(node, Mul):
                parts.append(b"c" + str(node.coeff).encode())
            parts.extend(
                memo.get(c.nid) or local[c.nid] for c in _children(node)
            )
            digest = _blake(*parts)
        local[node.nid] = digest
    result = local[term.nid]
    for nid, digest in local.items():
        _memo_insert(memo, nid, digest)
    return result


def statement_digest(statement: Statement) -> bytes:
    """Content digest of a statement's semantic payload.

    Covers the thread index, guard, simultaneous updates (sorted by
    target name), and choice variables — everything that determines the
    statement's transition relation and thus every verdict about it.
    The ``label`` is included as well: two syntactically identical
    statements on different control-flow edges are different letters
    (Σᵢ ∩ Σⱼ = ∅, §3), and the label is their stable name.
    """
    hit = _stmt_digest_memo.get(statement.uid)
    if hit is not None:
        return hit
    parts = [
        b"stmt",
        str(statement.thread).encode(),
        statement.label.encode(),
        term_digest(statement.guard),
    ]
    for name in sorted(statement.updates):
        parts.append(name.encode())
        parts.append(term_digest(statement.updates[name]))
    parts.append(b"choices")
    parts.extend(name.encode() for name in statement.choices)
    digest = _blake(*parts)
    _memo_insert(_stmt_digest_memo, statement.uid, digest)
    return digest


def program_digest(program: ConcurrentProgram) -> bytes:
    """Content digest of a whole program: thread CFAs plus the spec.

    Edits anywhere in the program change this digest, which keys the
    per-program artifacts (the delta layer's structural shapes); the
    term/statement-level
    entries are keyed by their own digests and survive program edits
    that do not touch them.
    """
    parts = [b"prog", term_digest(program.pre), term_digest(program.post)]
    for thread in program.threads:
        parts.append(b"thread")
        parts.append(str(thread.initial).encode())
        parts.append(str(thread.exit).encode())
        parts.append(str(thread.error).encode())
        for src in sorted(thread.edges):
            for statement, dst in thread.edges[src]:
                parts.append(f"{src}>{dst}".encode())
                parts.append(statement_digest(statement))
    return _blake(*parts)


def pair_digest(*digests: bytes) -> bytes:
    """Combine component digests into one composite key."""
    return _blake(b"pair", *digests)


def digest_counters() -> dict[str, int]:
    """Memo sizes (observability; the memos are caches, not state)."""
    return {
        "term_digests_memoized": len(_digest_memo),
        "statement_digests_memoized": len(_stmt_digest_memo),
        "digest_memo_evictions": _memo_evictions,
    }
