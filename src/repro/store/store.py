"""An on-disk, content-addressed proof store.

Layout of a store directory::

    manifest.json             format version + capacity settings
    segment-<...>.log         append-only record segments

Each segment is a text file of framed records, one per line::

    <crc32 hex>:<json payload>\n

where the payload is ``{"k": kind, "key": hex digest, "v": value}``.
Records are content-addressed: the key is a digest from
:mod:`repro.store.digest`, so the same fact gets the same key in every
process that ever derives it.  Values are plain JSON (verdict booleans,
program shapes, serialized terms) — never pickles, so a corrupt
file can at worst fail to parse, not execute.

Durability follows the PR 2 pattern: a segment is staged to a temp file
in the same directory, fsynced, and published with an atomic
``os.replace``.  A crash (even SIGKILL) mid-write leaves a stale
``.tmp`` file that readers ignore, never a half-visible segment.
Concurrent writers are safe by construction: every flush publishes a
fresh, uniquely named segment, and readers merge all segments in
name-stable order (later segments win on key collisions — the values
are deterministic facts, so a collision is a rewrite of the same fact).

Every failure mode — unreadable directory, manifest version skew,
truncated or bit-flipped records — degrades to a *cold start* with a
logged warning: the store serves fewer hits, never a wrong or stale
verdict.  Definite verdicts are the only thing ever stored; callers
must not insert budget-dependent UNKNOWN outcomes (see the
``put_*`` docstrings), so every stored value is a deterministic fact.

Compaction keeps the store within ``max_records``: when the merged
entry count exceeds the cap, the oldest *untouched* entries are evicted
first (touched = hit or written by this process — an LRU approximation
at segment granularity), and all segments are rewritten as one.
"""

from __future__ import annotations

import json
import logging
import os
import zlib
from pathlib import Path

log = logging.getLogger("repro.store")

#: manifest format version; a store written by any other format is
#: ignored (cold start), never guessed at.  Version 2 dropped the
#: ``explore`` record kind and version 3 the ``outcome`` kind (wall-time
#: triage rows): an older store may hold such records, which this
#: loader would otherwise count as corrupt.
FORMAT_VERSION = 3

MANIFEST_NAME = "manifest.json"
SEGMENT_PREFIX = "segment-"
SEGMENT_SUFFIX = ".log"

#: advisory lock file serializing compaction across processes (two
#: concurrent compactors could each rewrite-and-delete the other's
#: freshly merged segment; the loser now skips instead)
COMPACT_LOCK_NAME = "compact.lock"

#: default capacity: entries beyond this trigger compaction + eviction
DEFAULT_MAX_RECORDS = 500_000

#: artifact kinds (the ``k`` field of every record)
KIND_SAT = "sat"            # solver verdict of a normalized formula
KIND_HOARE = "hoare"        # Hoare-triple validity
KIND_COMM = "comm"          # unconditional commutativity of a pair
KIND_COMM_COND = "commc"    # conditional commutativity under a context
KIND_SHAPE = "shape"        # per-program structural shape (delta diffing)

KINDS = (KIND_SAT, KIND_HOARE, KIND_COMM, KIND_COMM_COND, KIND_SHAPE)


class StoreStats:
    """Cumulative counters for one :class:`ProofStore` instance."""

    __slots__ = ("hits", "misses", "writes", "by_kind")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.by_kind: dict[str, list[int]] = {
            kind: [0, 0, 0] for kind in KINDS  # [hits, misses, writes]
        }

    def counters(self) -> dict[str, int]:
        out = {
            "store_hits": self.hits,
            "store_misses": self.misses,
            "store_writes": self.writes,
        }
        for kind, (h, m, w) in self.by_kind.items():
            out[f"store_{kind}_hits"] = h
            out[f"store_{kind}_misses"] = m
            out[f"store_{kind}_writes"] = w
        return out


def _frame(payload: str) -> str:
    data = payload.encode()
    return f"{zlib.crc32(data):08x}:{payload}\n"


def _unframe(line: str) -> str | None:
    """The payload of a framed record line, or None if corrupt."""
    crc, sep, payload = line.rstrip("\n").partition(":")
    if not sep or len(crc) != 8:
        return None
    try:
        expected = int(crc, 16)
    except ValueError:
        return None
    if zlib.crc32(payload.encode()) != expected:
        return None
    return payload


class ProofStore:
    """One open store directory.  See the module docstring for format.

    Use :func:`open_store` to get the process-shared instance for a
    path; constructing directly is fine for tests.  A store that failed
    to open (version skew, unreadable manifest) still behaves like a
    store — it just never hits and never writes (``disabled`` is True).
    """

    def __init__(
        self, path: str | Path, *, max_records: int = DEFAULT_MAX_RECORDS
    ) -> None:
        self.path = Path(path)
        self.stats = StoreStats()
        self.disabled = False
        self.load_warnings = 0
        self._entries: dict[tuple[str, str], object] = {}
        self._pending: dict[tuple[str, str], object] = {}
        self._touched: set[tuple[str, str]] = set()
        self._flush_seq = 0
        self.max_records = max_records
        try:
            self._open()
        except OSError as exc:  # unreadable/uncreatable directory
            log.warning(
                "proof store %s unusable (%s): continuing cold without it",
                self.path, exc,
            )
            self.disabled = True

    # -- open / load --------------------------------------------------------

    def _open(self) -> None:
        self.path.mkdir(parents=True, exist_ok=True)
        manifest = self.path / MANIFEST_NAME
        if manifest.exists():
            try:
                meta = json.loads(manifest.read_text())
                version = int(meta["format"])
            except (ValueError, KeyError, TypeError, json.JSONDecodeError):
                log.warning(
                    "proof store %s: unreadable manifest; cold start "
                    "(store disabled to avoid clobbering foreign data)",
                    self.path,
                )
                self.disabled = True
                return
            if version != FORMAT_VERSION:
                log.warning(
                    "proof store %s: format version %s != supported %s; "
                    "cold start (store disabled)",
                    self.path, version, FORMAT_VERSION,
                )
                self.disabled = True
                return
            cap = meta.get("max_records")
            if isinstance(cap, int) and cap > 0:
                self.max_records = cap
        else:
            self._write_manifest()
        self._read_segments(self._segments(), self._entries)

    def _write_manifest(self) -> None:
        _atomic_write(
            self.path / MANIFEST_NAME,
            json.dumps(
                {"format": FORMAT_VERSION, "max_records": self.max_records}
            )
            + "\n",
        )

    def _segments(self) -> list[Path]:
        return sorted(
            p
            for p in self.path.iterdir()
            if p.name.startswith(SEGMENT_PREFIX)
            and p.name.endswith(SEGMENT_SUFFIX)
        )

    def _read_segments(self, segments: list[Path], into: dict) -> None:
        """Merge every readable record of *segments* into *into*."""
        for segment in segments:
            try:
                text = segment.read_text(errors="replace")
            except OSError as exc:
                log.warning(
                    "proof store %s: cannot read %s (%s); skipping segment",
                    self.path, segment.name, exc,
                )
                self.load_warnings += 1
                continue
            bad = 0
            for line in text.splitlines(keepends=True):
                if not line.endswith("\n"):
                    bad += 1  # truncated tail (killed writer): drop it
                    continue
                payload = _unframe(line)
                if payload is None:
                    bad += 1
                    continue
                try:
                    record = json.loads(payload)
                    kind = record["k"]
                    key = record["key"]
                    value = record["v"]
                except (ValueError, KeyError, TypeError):
                    bad += 1
                    continue
                if kind not in KINDS or not isinstance(key, str):
                    bad += 1
                    continue
                into[(kind, key)] = value
            if bad:
                log.warning(
                    "proof store %s: %d corrupt record(s) in %s ignored "
                    "(verdicts re-derive cold)",
                    self.path, bad, segment.name,
                )
                self.load_warnings += 1

    # -- read / write -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries) + sum(
            1 for k in self._pending if k not in self._entries
        )

    def get(self, kind: str, key: bytes):
        """The stored value for ``(kind, key)``, or None.

        Counts a hit/miss; a hit marks the entry recently-used for the
        eviction policy.
        """
        if self.disabled:
            return None
        k = (kind, key.hex())
        value = self._pending.get(k)
        if value is None:
            value = self._entries.get(k)
        per_kind = self.stats.by_kind[kind]
        if value is None:
            self.stats.misses += 1
            per_kind[1] += 1
            return None
        self.stats.hits += 1
        per_kind[0] += 1
        self._touched.add(k)
        return value

    def put(self, kind: str, key: bytes, value) -> None:
        """Record a *definite* fact.  Value must be plain JSON data.

        Callers must never store budget-dependent outcomes (solver
        UNKNOWNs, timeout fallbacks): the store's contract is that every
        entry is a deterministic consequence of its key, valid forever.
        """
        if self.disabled:
            return
        k = (kind, key.hex())
        if self._entries.get(k) == value:
            self._touched.add(k)
            return
        self._pending[k] = value
        self._touched.add(k)
        self.stats.writes += 1
        self.stats.by_kind[kind][2] += 1

    def contains(self, kind: str, key: bytes) -> bool:
        """Membership probe without touching the hit/miss counters."""
        if self.disabled:
            return False
        k = (kind, key.hex())
        return k in self._pending or k in self._entries

    # -- persistence --------------------------------------------------------

    def flush(self) -> int:
        """Publish pending records as one new segment (atomic).

        Returns the number of records written.  Triggers compaction when
        the merged store exceeds ``max_records``.
        """
        if self.disabled:
            return 0
        pending = self._pending
        if not pending:
            self._maybe_compact()
            return 0
        lines = []
        for (kind, key), value in pending.items():
            payload = json.dumps(
                {"k": kind, "key": key, "v": value}, separators=(",", ":")
            )
            lines.append(_frame(payload))
        name = (
            f"{SEGMENT_PREFIX}{os.getpid():08d}-{self._flush_seq:06d}"
            f"{SEGMENT_SUFFIX}"
        )
        self._flush_seq += 1
        try:
            _atomic_write(self.path / name, "".join(lines))
        except OSError as exc:
            log.warning(
                "proof store %s: flush failed (%s); keeping records pending",
                self.path, exc,
            )
            return 0
        self._entries.update(pending)
        count = len(pending)
        self._pending = {}
        self._maybe_compact()
        return count

    def _maybe_compact(self) -> None:
        if len(self._entries) <= self.max_records:
            return
        self.compact()

    def _acquire_compaction_lock(self):
        """A non-blocking advisory ``flock`` on the compaction lock file.

        Returns the open file descriptor (caller must close it to
        release) or ``None`` when another process — or another handle in
        this one — holds the lock.  On platforms without ``fcntl`` the
        guard degrades to unlocked compaction (the pre-lock behavior).
        """
        try:
            import fcntl
        except ImportError:  # pragma: no cover - non-POSIX platforms
            return -1
        try:
            fd = os.open(
                self.path / COMPACT_LOCK_NAME, os.O_CREAT | os.O_RDWR, 0o644
            )
        except OSError as exc:
            log.warning(
                "proof store %s: cannot open compaction lock (%s); "
                "skipping compaction",
                self.path, exc,
            )
            return None
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            os.close(fd)
            return None
        return fd

    def _release_compaction_lock(self, fd) -> None:
        if isinstance(fd, int) and fd >= 0:
            try:
                os.close(fd)  # closing drops the flock
            except OSError:  # pragma: no cover - already closed
                pass

    def compact(self) -> int:
        """Merge all segments into one, evicting beyond ``max_records``.

        Untouched (not hit or written by this process) entries are
        evicted first, oldest segment order first; touched entries are
        kept preferentially — an LRU approximation.  Returns the number
        of evicted entries.

        Cross-process safety: compaction holds an advisory file lock
        (:data:`COMPACT_LOCK_NAME`); a process that loses the race skips
        its compaction (returns 0, pending records stay pending) rather
        than deleting segments the winner may just have rewritten.
        """
        if self.disabled:
            return 0
        lock_fd = self._acquire_compaction_lock()
        if lock_fd is None:
            log.warning(
                "proof store %s: compaction lock held by another process; "
                "skipping this compaction",
                self.path,
            )
            return 0
        try:
            return self._compact_locked()
        finally:
            self._release_compaction_lock(lock_fd)

    def _compact_locked(self) -> int:
        # re-read the segments under the lock: another process may have
        # compacted since this instance loaded, deleting segments it
        # never read, and a merge of memory alone would drop them.  Only
        # the segments read here are deleted below, so a segment another
        # process publishes meanwhile survives.
        old_segments = self._segments()
        merged: dict = {}
        self._read_segments(old_segments, merged)
        merged.update(self._entries)
        merged.update(self._pending)
        evicted = 0
        if len(merged) > self.max_records:
            excess = len(merged) - self.max_records
            cold_keys = [k for k in merged if k not in self._touched]
            for k in cold_keys[:excess]:
                del merged[k]
            evicted = min(excess, len(cold_keys))
            if len(merged) > self.max_records:
                # everything left is touched: evict oldest-inserted
                extra = len(merged) - self.max_records
                for k in list(merged)[:extra]:
                    del merged[k]
                evicted += extra
        lines = [
            _frame(
                json.dumps(
                    {"k": kind, "key": key, "v": value},
                    separators=(",", ":"),
                )
            )
            for (kind, key), value in merged.items()
        ]
        name = (
            f"{SEGMENT_PREFIX}{os.getpid():08d}-{self._flush_seq:06d}"
            f"{SEGMENT_SUFFIX}"
        )
        self._flush_seq += 1
        try:
            _atomic_write(self.path / name, "".join(lines))
        except OSError as exc:
            log.warning(
                "proof store %s: compaction failed (%s); store unchanged",
                self.path, exc,
            )
            return 0
        for segment in old_segments:
            if segment.name != name:
                segment.unlink(missing_ok=True)
        self._entries = merged
        self._pending = {}
        return evicted

    def counters(self) -> dict[str, int]:
        out = self.stats.counters()
        out["store_entries"] = len(self)
        out["store_load_warnings"] = self.load_warnings
        return out

    def inspect(self) -> dict:
        """Static description of the store contents (``repro store inspect``).

        Entry counts per kind over the merged view (pending included) and
        the on-disk segment inventory — reusing the same segment listing
        and merge the loader runs, so what it reports is exactly what a
        fresh process would see.
        """
        by_kind = {kind: 0 for kind in KINDS}
        merged = dict(self._entries)
        merged.update(self._pending)
        for kind, _key in merged:
            by_kind[kind] += 1
        segments = []
        for segment in self._segments():
            try:
                size = segment.stat().st_size
            except OSError:  # pragma: no cover - racing deletion
                continue
            segments.append({"name": segment.name, "bytes": size})
        return {
            "path": str(self.path),
            "format": FORMAT_VERSION,
            "disabled": self.disabled,
            "max_records": self.max_records,
            "total_entries": len(merged),
            "entries_by_kind": by_kind,
            "segments": segments,
            "load_warnings": self.load_warnings,
        }


def _atomic_write(path: Path, text: str) -> None:
    """tmp + fsync + os.replace (the PR 2 crash-safe write pattern)."""
    tmp = path.with_name(f".{path.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        try:
            tmp.unlink(missing_ok=True)
        except OSError:  # pragma: no cover - best-effort cleanup
            pass


# ---------------------------------------------------------------------------
# Process-wide registry
# ---------------------------------------------------------------------------

_registry: dict[Path, ProofStore] = {}


def open_store(
    path: str | Path, *, max_records: int = DEFAULT_MAX_RECORDS
) -> ProofStore:
    """The process-shared :class:`ProofStore` for *path*.

    Sharing one instance per path lets consecutive ``verify()`` calls in
    a session (harness families, portfolio members) reuse the loaded
    entries and accumulate pending writes without rereading segments.
    """
    resolved = Path(path).expanduser().resolve()
    store = _registry.get(resolved)
    if store is None:
        store = ProofStore(resolved, max_records=max_records)
        _registry[resolved] = store
    return store


def reset_store_registry() -> None:
    """Drop all process-shared instances (tests; pending data is lost)."""
    _registry.clear()
