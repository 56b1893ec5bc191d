"""On-disk content-addressed store with atomic writes and checksums.

Layout: ``<root>/entries/<k[:2]>/<key>.json`` — one JSON document per
entry, sharded by the first two hex digits so no directory grows huge.
Each document carries a schema version, the key it was stored under, the
payload's own SHA-256 checksum, and a small ``meta`` block for ``stats``.

Concurrency: writers dump to a unique temp file in the destination
directory and ``os.replace`` it into place, so a reader sees either the
old complete entry or the new complete entry, never a torn write — this is
what lets ``parallel_starmap`` workers and concurrent CLI invocations
share one store without locks.  A checksum mismatch (partial file from a
crashed writer on a non-atomic filesystem, bit rot, manual edits) raises
:class:`CorruptEntry`, which callers treat as a miss and recompute.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

from repro.cache.keys import canonical_json, digest

#: Bump when the entry document layout changes; readers reject other schemas
#: (as corrupt-for-this-reader, i.e. a recompute, never a crash).
STORE_SCHEMA = 1

ENTRIES_DIR = "entries"

_HEX_DIGITS = frozenset("0123456789abcdef")


class CorruptEntry(ValueError):
    """An entry exists but fails integrity validation."""


@dataclass(frozen=True)
class EntryInfo:
    """Metadata of one stored entry (no payload)."""

    key: str
    path: Path
    size: int
    mtime: float
    kind: str = ""


class CacheStore:
    """The persistent half of the cache: bytes on disk, nothing domain-specific."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)

    # ---------------------------------------------------------------- paths

    def path_for(self, key: str) -> Path:
        if len(key) < 3 or not _HEX_DIGITS.issuperset(key):
            raise ValueError(f"malformed cache key {key!r}")
        return self.root / ENTRIES_DIR / key[:2] / f"{key}.json"

    # ----------------------------------------------------------------- read

    def read(self, key: str) -> Optional[tuple[str, object]]:
        """Return ``(kind, payload)`` or ``None`` when absent.

        Raises :class:`CorruptEntry` when the entry exists but its schema,
        key or checksum does not validate.
        """
        path = self.path_for(key)
        try:
            raw = path.read_text()
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise CorruptEntry(f"{path}: unreadable ({exc})") from exc
        try:
            doc = json.loads(raw)
        except (ValueError, RecursionError) as exc:  # deep nesting recurses
            raise CorruptEntry(f"{path}: invalid JSON ({exc})") from exc
        if not isinstance(doc, dict) or doc.get("schema") != STORE_SCHEMA:
            raise CorruptEntry(
                f"{path}: unsupported schema {doc.get('schema')!r}"
                if isinstance(doc, dict) else f"{path}: not a JSON object"
            )
        if doc.get("key") != key:
            raise CorruptEntry(f"{path}: stored under key {doc.get('key')!r}")
        payload = doc.get("payload")
        try:
            checksum = digest(payload)
        except (ValueError, RecursionError) as exc:  # NaN, or deep nesting
            raise CorruptEntry(f"{path}: payload does not encode ({exc})") from exc
        if checksum != doc.get("checksum"):
            raise CorruptEntry(f"{path}: payload checksum mismatch")
        return str(doc.get("kind", "")), payload

    def read_many(
        self, keys: list[str]
    ) -> dict[str, Optional[tuple[str, object]] | CorruptEntry]:
        """Resolve N keys in one pass: ``{key: (kind, payload) | None | CorruptEntry}``.

        One dict in input order (duplicates collapse), one entry per key.
        Corruption is *returned*, not raised — callers decide per key whether
        to self-heal — so one rotten entry cannot poison a batch.  Semantics
        per key are exactly :meth:`read`'s.
        """
        out: dict[str, Optional[tuple[str, object]] | CorruptEntry] = {}
        for key in keys:
            if key in out:
                continue
            try:
                out[key] = self.read(key)
            except CorruptEntry as exc:
                out[key] = exc
        return out

    # ---------------------------------------------------------------- write

    def write(
        self, key: str, kind: str, payload: object, meta: Optional[dict] = None
    ) -> Path:
        """Atomically persist ``payload`` under ``key``; returns the path."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "schema": STORE_SCHEMA,
            "key": key,
            "kind": kind,
            "checksum": digest(payload),
            "meta": meta or {},
            "payload": payload,
        }
        tmp = path.parent / f".{key}.{os.getpid()}.{time.monotonic_ns()}.tmp"
        try:
            tmp.write_text(canonical_json(doc) + "\n")
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        return path

    def discard(self, key: str) -> None:
        """Best-effort removal (used after detecting corruption)."""
        try:
            self.path_for(key).unlink(missing_ok=True)
        except OSError:
            pass

    # ----------------------------------------------------------- inspection

    def iter_entries(self) -> Iterator[EntryInfo]:
        """Every entry's (key, path, size, mtime, kind) — payloads unread."""
        entries = self.root / ENTRIES_DIR
        if not entries.is_dir():
            return
        for path in sorted(entries.glob("*/*.json")):
            try:
                stat = path.stat()
            except OSError:  # pragma: no cover - raced removal
                continue
            yield EntryInfo(
                key=path.stem, path=path, size=stat.st_size, mtime=stat.st_mtime
            )

    def stats(self) -> dict:
        """Entry count, total bytes and per-kind counts (reads every entry)."""
        n = 0
        total = 0
        by_kind: dict[str, int] = {}
        corrupt = 0
        for info in self.iter_entries():
            n += 1
            total += info.size
            try:
                entry = self.read(info.key)
            except CorruptEntry:
                corrupt += 1
                continue
            if entry is not None:
                by_kind[entry[0]] = by_kind.get(entry[0], 0) + 1
        return {
            "root": str(self.root),
            "schema": STORE_SCHEMA,
            "entries": n,
            "bytes": total,
            "by_kind": dict(sorted(by_kind.items())),
            "corrupt": corrupt,
        }

    def size_bytes(self) -> int:
        return sum(info.size for info in self.iter_entries())

    def verify(self) -> tuple[int, list[str]]:
        """Validate every entry; returns ``(n_valid, corrupt_messages)``."""
        ok = 0
        problems: list[str] = []
        for info in self.iter_entries():
            try:
                self.read(info.key)
                ok += 1
            except CorruptEntry as exc:
                problems.append(str(exc))
        return ok, problems

    # -------------------------------------------------------------- hygiene

    def gc(
        self,
        max_size_bytes: Optional[int] = None,
        max_age_s: Optional[float] = None,
        now: Optional[float] = None,
    ) -> dict:
        """Drop entries by age, then by size (oldest first); report removals.

        ``max_age_s`` removes entries whose mtime is older than ``now``
        minus the age; ``max_size_bytes`` then evicts oldest-first until the
        store fits.  Either limit may be ``None`` (unbounded); a negative or
        non-finite limit raises ``ValueError`` (it would empty the store).
        """
        for name, limit in (("max_size_bytes", max_size_bytes),
                            ("max_age_s", max_age_s)):
            if limit is not None and not 0 <= limit < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {limit!r}")
        now = time.time() if now is None else now
        removed = 0
        freed = 0
        entries = sorted(self.iter_entries(), key=lambda e: e.mtime)
        if max_age_s is not None:
            cutoff = now - max_age_s
            keep = []
            for info in entries:
                if info.mtime < cutoff:
                    info.path.unlink(missing_ok=True)
                    removed += 1
                    freed += info.size
                else:
                    keep.append(info)
            entries = keep
        if max_size_bytes is not None:
            total = sum(e.size for e in entries)
            for info in entries:
                if total <= max_size_bytes:
                    break
                info.path.unlink(missing_ok=True)
                removed += 1
                freed += info.size
                total -= info.size
        return {"removed": removed, "freed_bytes": freed}

    def clear(self) -> int:
        """Remove every entry; returns the number removed."""
        n = 0
        for info in self.iter_entries():
            info.path.unlink(missing_ok=True)
            n += 1
        return n
