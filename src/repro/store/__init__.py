"""Persistent content-addressed proof store (cross-run cache substrate).

Verdicts, Hoare triples, and commutativity facts are *trace-independent*
facts about terms and statements; once derived they are valid forever.
This package persists them across processes, keyed by canonical content
digests that extend the interning kernel's ``nid`` scheme, so
re-verifying a benchmark family — or a slightly edited program — reuses
most of the previous proof.

See :mod:`repro.store.digest` for the digest scheme and
:mod:`repro.store.store` for the on-disk format and failure model.
"""

from .digest import (
    DIGEST_SIZE,
    digest_counters,
    pair_digest,
    program_digest,
    statement_digest,
    term_digest,
    term_from_obj,
    term_to_obj,
)
from .store import (
    DEFAULT_MAX_RECORDS,
    FORMAT_VERSION,
    KIND_COMM,
    KIND_COMM_COND,
    KIND_HOARE,
    KIND_OUTCOME,
    KIND_SAT,
    KIND_SHAPE,
    ProofStore,
    StoreStats,
    open_store,
    reset_store_registry,
)

__all__ = [
    "DIGEST_SIZE",
    "digest_counters",
    "pair_digest",
    "program_digest",
    "statement_digest",
    "term_digest",
    "term_from_obj",
    "term_to_obj",
    "DEFAULT_MAX_RECORDS",
    "FORMAT_VERSION",
    "KIND_COMM",
    "KIND_COMM_COND",
    "KIND_HOARE",
    "KIND_OUTCOME",
    "KIND_SAT",
    "KIND_SHAPE",
    "ProofStore",
    "StoreStats",
    "open_store",
    "reset_store_registry",
]
