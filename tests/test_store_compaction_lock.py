"""Cross-process compaction safety for the proof store.

Two processes compacting the same store concurrently could each merge
the segment list and delete the other's freshly written merge output.
``ProofStore.compact`` now takes a non-blocking advisory ``flock`` on a
lock file in the store directory; the loser of the race skips its
compaction (returns 0, data untouched) instead of corrupting the store.
These tests inject the race deterministically by holding the lock from
the test (and from a child process) while compaction runs.
"""

from __future__ import annotations

import fcntl
import json
import logging
import multiprocessing
import os

import pytest

from repro.store import KIND_SAT, ProofStore, reset_store_registry
from repro.store.store import (
    COMPACT_LOCK_NAME,
    SEGMENT_PREFIX,
    SEGMENT_SUFFIX,
    _frame,
)


@pytest.fixture(autouse=True)
def _fresh_registry():
    reset_store_registry()
    yield
    reset_store_registry()


def populate(path, n=12, max_records=100) -> ProofStore:
    store = ProofStore(path, max_records=max_records)
    for i in range(n):
        store.put(KIND_SAT, bytes([i]) * 16, True)
        store.flush()  # one segment per record: compaction has work
    return store


def segments(path) -> list[str]:
    return sorted(
        p.name for p in path.iterdir() if p.name.startswith(SEGMENT_PREFIX)
    )


def hold_lock(path) -> int:
    fd = os.open(path / COMPACT_LOCK_NAME, os.O_CREAT | os.O_RDWR, 0o644)
    fcntl.flock(fd, fcntl.LOCK_EX)
    return fd


def test_compact_skips_while_lock_held(tmp_path, caplog):
    store = populate(tmp_path / "s")
    before = segments(tmp_path / "s")
    assert len(before) == 12
    fd = hold_lock(tmp_path / "s")
    try:
        with caplog.at_level(logging.WARNING, logger="repro.store"):
            assert store.compact() == 0
        assert "compaction lock held" in caplog.text
        # nothing was merged or deleted under the contender's feet
        assert segments(tmp_path / "s") == before
    finally:
        os.close(fd)
    # with the lock released the same store compacts normally
    store.compact()
    assert len(segments(tmp_path / "s")) == 1
    reset_store_registry()
    merged = ProofStore(tmp_path / "s")
    for i in range(12):
        assert merged.get(KIND_SAT, bytes([i]) * 16) is True


def _locked_child(path, locked, release):
    fd = os.open(
        os.path.join(path, COMPACT_LOCK_NAME), os.O_CREAT | os.O_RDWR, 0o644
    )
    fcntl.flock(fd, fcntl.LOCK_EX)
    locked.set()
    release.wait(timeout=30)
    os.close(fd)


def test_cross_process_race_loser_skips(tmp_path):
    # a real second process holds the lock (flock is per open file
    # description, so this is the genuine cross-process contention path)
    store = populate(tmp_path / "s")
    before = segments(tmp_path / "s")
    ctx = multiprocessing.get_context("fork")
    locked = ctx.Event()
    release = ctx.Event()
    child = ctx.Process(
        target=_locked_child, args=(str(tmp_path / "s"), locked, release)
    )
    child.start()
    try:
        assert locked.wait(timeout=30)
        assert store.compact() == 0  # the race's loser backs off
        assert segments(tmp_path / "s") == before
    finally:
        release.set()
        child.join(timeout=30)
    assert child.exitcode == 0
    store.compact()
    assert len(segments(tmp_path / "s")) == 1


def test_concurrent_compactors_never_lose_records(tmp_path):
    # hammer: several processes all compacting the same store at once;
    # whatever interleaving the scheduler picks, every record survives
    populate(tmp_path / "s", n=10)

    def compact_once(path, q):
        reset_store_registry()
        store = ProofStore(path)
        q.put(store.compact())

    ctx = multiprocessing.get_context("fork")
    q = ctx.Queue()
    procs = [
        ctx.Process(target=compact_once, args=(tmp_path / "s", q))
        for _ in range(4)
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=60)
        assert p.exitcode == 0
    reset_store_registry()
    merged = ProofStore(tmp_path / "s")
    for i in range(10):
        assert merged.get(KIND_SAT, bytes([i]) * 16) is True


def test_compaction_keeps_records_it_never_loaded(tmp_path):
    # a segment published after this instance loaded (by a flush or a
    # compaction elsewhere) must survive its compaction: the merge is
    # re-read from disk under the lock, not rebuilt from memory
    path = tmp_path / "s"
    stale = populate(path, n=3)
    late = {"k": KIND_SAT, "key": (b"\x63" * 16).hex(), "v": True}
    (path / f"{SEGMENT_PREFIX}zz-late{SEGMENT_SUFFIX}").write_text(
        _frame(json.dumps(late))
    )
    stale.compact()
    reset_store_registry()
    merged = ProofStore(path)
    assert merged.get(KIND_SAT, b"\x63" * 16) is True
    for i in range(3):
        assert merged.get(KIND_SAT, bytes([i]) * 16) is True


def test_lock_file_not_treated_as_segment(tmp_path):
    store = populate(tmp_path / "s", n=3)
    store.compact()
    assert (tmp_path / "s" / COMPACT_LOCK_NAME).exists()
    reset_store_registry()
    again = ProofStore(tmp_path / "s")
    assert len(again) == 3
