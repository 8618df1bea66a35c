"""Embedded store for hierarchical documents (the XML extension).

The log-framework recipe, applied to path postings:

* a **posting log** of backward-chained hash buckets keyed by *path*, each
  entry carrying ``(docid, encoded leaf value)`` — docids increase, so
  bucket chains replay per-path postings in descending docid order (the
  same property the search engine's merge uses);
* a small **path dictionary** (the distinct paths seen so far) kept in RAM
  and mirrored to a flash log — path vocabularies are schema-sized, not
  data-sized, so this respects the RAM budget;
* queries: exact or pattern paths (``//suffix``, ``*``), optional value
  equality, and conjunctions intersected on sorted docids.
"""

from __future__ import annotations

import struct

from repro.errors import QueryError
from repro.hardware.flash import BlockAllocator
from repro.hardware.ram import RamArena
from repro.hierarchical.paths import flatten, path_matches
from repro.relational.tuples import decode_key, encode_key
from repro.storage.hashbucket import ChainedBucketLog, bucket_of
from repro.storage.log import RecordLog

_DOCID = struct.Struct("<I")


class HierarchicalStore:
    """Tree documents on a token: flatten, post, merge-query."""

    def __init__(
        self,
        allocator: BlockAllocator,
        num_buckets: int = 64,
        ram: RamArena | None = None,
    ) -> None:
        self.buckets = ChainedBucketLog(
            allocator, num_buckets, name="paths", ram=ram
        )
        self.num_buckets = num_buckets
        self._path_dictionary: dict[str, int] = {}  # path -> posting count
        self._path_log = RecordLog(allocator, name="path-dictionary")
        self._doc_count = 0

    # ------------------------------------------------------------------
    @property
    def doc_count(self) -> int:
        return self._doc_count

    @property
    def paths(self) -> list[str]:
        """The distinct paths seen so far (the schema-ish vocabulary)."""
        return sorted(self._path_dictionary)

    def add_document(self, document: dict) -> int:
        """Flatten and index one document; returns its docid."""
        docid = self._doc_count
        for path, value in flatten(document):
            entry = _DOCID.pack(docid) + encode_key(value)
            self.buckets.append(bucket_of(path, self.num_buckets), entry_with_path(path, entry))
            if path not in self._path_dictionary:
                self._path_dictionary[path] = 0
                self._path_log.append(path.encode("utf-8"))
            self._path_dictionary[path] += 1
        self._doc_count += 1
        return docid

    def flush(self) -> None:
        self.buckets.flush_all()
        self._path_log.flush()

    # ------------------------------------------------------------------
    def _paths_for(self, pattern: str) -> list[str]:
        matches = [
            path for path in self._path_dictionary if path_matches(pattern, path)
        ]
        return matches

    def find(self, pattern: str, value=None) -> list[int]:
        """Docids with a leaf at ``pattern`` (optionally equal to ``value``).

        Scans the bucket chain of each concrete path the pattern expands
        to; docids come back ascending and deduplicated.
        """
        docids: set[int] = set()
        wanted = encode_key(value) if value is not None else None
        for path in self._paths_for(pattern):
            for entry_path, docid, encoded in self._iter_path(path):
                if wanted is None or encoded == wanted:
                    docids.add(docid)
        return sorted(docids)

    def values_at(self, pattern: str) -> list[object]:
        """All leaf values under ``pattern`` (duplicates preserved)."""
        values = []
        for path in self._paths_for(pattern):
            for _, _, encoded in self._iter_path(path):
                values.append(decode_key(encoded))
        return values

    def find_range(self, pattern: str, low, high) -> list[int]:
        """Docids with a leaf at ``pattern`` whose value is in [low, high].

        Uses the order-preserving key encoding, so it works for numbers and
        strings alike (within one type).
        """
        low_key, high_key = encode_key(low), encode_key(high)
        if low_key > high_key:
            raise QueryError("empty range: low > high")
        docids: set[int] = set()
        for path in self._paths_for(pattern):
            for _, docid, encoded in self._iter_path(path):
                if low_key <= encoded <= high_key:
                    docids.add(docid)
        return sorted(docids)

    def find_all(self, conditions: list[tuple[str, object]]) -> list[int]:
        """Conjunctive query: docids satisfying every ``(pattern, value)``.

        ``value`` may be None for pure existence conditions.
        """
        if not conditions:
            raise QueryError("need at least one condition")
        result: set[int] | None = None
        for pattern, value in conditions:
            matched = set(self.find(pattern, value))
            result = matched if result is None else (result & matched)
            if not result:
                return []
        return sorted(result or [])

    def _iter_path(self, path: str):
        """Yield ``(path, docid, encoded value)`` for one concrete path."""
        bucket = bucket_of(path, self.num_buckets)
        prefix = path.encode("utf-8") + b"\x00"
        for entry in self.buckets.iter_bucket(bucket):
            if not entry.startswith(prefix):
                continue  # hash collision with another path
            body = entry[len(prefix):]
            (docid,) = _DOCID.unpack_from(body, 0)
            yield path, docid, body[_DOCID.size:]


def entry_with_path(path: str, body: bytes) -> bytes:
    """Posting layout: ``path \\x00 docid value`` (path filters collisions)."""
    return path.encode("utf-8") + b"\x00" + body
