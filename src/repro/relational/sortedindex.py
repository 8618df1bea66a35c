"""The reorganized index: ``Sorted Keys`` log + ``Tree`` log.

Output of the tutorial's reorganization slide — *"Result: efficient B-Tree
like index"* — with the defining restriction that both logs are written
strictly sequentially:

* the **Sorted Keys** log holds every ``(key, rowid)`` pair in ascending key
  order, packed into pages;
* the **Tree** log holds a hierarchy built bottom-up over those pages: each
  node entry is ``(max key of child, child position)``; level *i* is written
  (sequentially) after level *i-1*; the root is the last page written.

Lookups descend root → leaf in O(height) page reads, then scan as many leaf
pages as the duplicate run spans. The index is immutable once built; new
insertions go to a fresh sequential :class:`~repro.relational.keyindex.KeyIndex`
until the next reorganization (see :mod:`repro.relational.reorg`).
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter

# Entries are ``rowid (4 bytes) + key bytes`` (see keyindex.pack_entry);
# slicing off the prefix compares keys without decoding rowids.
_ENTRY_KEY = itemgetter(slice(4, None))
_ENTRY_ROWID = struct.Struct("<I")

from repro.errors import RecoveryError, StorageError
from repro.hardware.flash import BlockAllocator
from repro.relational.keyindex import pack_entry, unpack_entry
from repro.relational.tuples import encode_key
from repro.storage import pager
from repro.storage.log import PageLog


@dataclass
class TreeLookupStats:
    """Page-read breakdown of one lookup on the reorganized index."""

    tree_pages: int = 0
    sorted_pages: int = 0

    @property
    def total_pages(self) -> int:
        return self.tree_pages + self.sorted_pages


class SortedKeyIndex:
    """Immutable B-tree-like index over two sealed sequential logs."""

    def __init__(
        self,
        sorted_log: PageLog,
        tree_log: PageLog,
        levels: list[tuple[int, int]],
        entry_count: int,
        epoch: int = 0,
    ) -> None:
        self.sorted_log = sorted_log
        self.tree_log = tree_log
        #: ``levels[i] = (first, last)`` positions of level ``i`` in the tree
        #: log; level 0 points at sorted-log pages, the last level is the root.
        self.levels = levels
        self.entry_count = entry_count
        self.epoch = epoch
        self.last_lookup = TreeLookupStats()

    @classmethod
    def remount(cls, session, name: str, epoch: int) -> "SortedKeyIndex":
        """Rebuild a committed sorted index from a crash-recovery scan.

        Only epochs named by a durable ``reorg-commit`` manifest record are
        remounted, so both logs are complete by construction. The level
        boundaries come back from the tree pages' header ``meta`` field
        (each node page was written tagged with its level), and the entry
        count from the recovered leaf payloads — no extra flash reads.
        """
        recovered_sorted = session.claim(f"{name}:sorted", epoch)
        recovered_tree = session.claim(f"{name}:tree", epoch)
        sorted_log = PageLog.remount(
            session.allocator, f"{name}:sorted", recovered_sorted
        )
        tree_log = PageLog.remount(
            session.allocator, f"{name}:tree", recovered_tree
        )
        levels: list[list[int]] = []
        for position in range(len(tree_log)):
            level = tree_log.page_meta(position)
            if level == len(levels):
                levels.append([position, position])
            elif level == len(levels) - 1:
                levels[-1][1] = position
            else:
                raise RecoveryError(
                    f"tree log {name!r}: page {position} tagged level "
                    f"{level}, expected {len(levels) - 1} or {len(levels)}"
                )
        entry_count = sum(
            len(pager.unpack_records(page.payload))
            for page in recovered_sorted.pages
        )
        sorted_log.seal()
        tree_log.seal()
        return cls(
            sorted_log,
            tree_log,
            [tuple(bounds) for bounds in levels],
            entry_count,
            epoch=epoch,
        )

    # ------------------------------------------------------------------
    @property
    def height(self) -> int:
        """Tree levels above the sorted leaves."""
        return len(self.levels)

    def lookup(self, value) -> list[int]:
        """Rowids for ``value``: root-to-leaf descent + duplicate-run scan."""
        key_bytes = encode_key(value)
        stats = TreeLookupStats()
        rowids: list[int] = []
        if self.entry_count == 0:
            self.last_lookup = stats
            return rowids

        leaf = self._descend(key_bytes, stats)
        if leaf is not None:
            position = leaf
            while position < len(self.sorted_log):
                stats.sorted_pages += 1
                page_rowids, may_continue = self._match_page(position, key_bytes)
                rowids.extend(page_rowids)
                if not may_continue:
                    break
                position += 1
        self.last_lookup = stats
        return rowids

    def lookup_batch(self, value) -> list[int]:
        """Batch-path :meth:`lookup`: same page reads, sliced-key compares.

        Used only by the columnar executor so the legacy path stays a true
        tuple-at-a-time reference. Reads the identical root-to-leaf +
        duplicate-run page sequence (``last_lookup`` matches), but locates
        the run with :func:`bisect` over key slices and decodes rowids only
        for run members instead of ``unpack_entry`` on every record.
        """
        key_bytes = encode_key(value)
        stats = TreeLookupStats()
        rowids: list[int] = []
        if self.entry_count == 0:
            self.last_lookup = stats
            return rowids

        leaf = self._descend_batch(key_bytes, stats)
        if leaf is not None:
            unpack_rowid = _ENTRY_ROWID.unpack_from
            for position in range(leaf, len(self.sorted_log)):
                stats.sorted_pages += 1
                records = self.sorted_log.read_records(position)
                if not records:
                    break
                low = bisect_left(records, key_bytes, key=_ENTRY_KEY)
                high = bisect_right(records, key_bytes, key=_ENTRY_KEY)
                rowids.extend(
                    unpack_rowid(record)[0] for record in records[low:high]
                )
                if high < len(records):
                    break  # an entry past the key ends the duplicate run
        self.last_lookup = stats
        return rowids

    def _descend_batch(
        self, key_bytes: bytes, stats: TreeLookupStats
    ) -> int | None:
        """:meth:`_descend` with bisect over sliced node keys (same reads)."""
        if not self.levels:
            return 0 if len(self.sorted_log) else None
        child: int | None = self.levels[-1][0]
        unpack_position = _ENTRY_ROWID.unpack_from
        for _ in range(len(self.levels)):
            assert child is not None
            stats.tree_pages += 1
            node = self.tree_log.read_records(child)
            index = bisect_left(node, key_bytes, key=_ENTRY_KEY)
            if index == len(node):
                return None  # key greater than every key in the subtree
            child = unpack_position(node[index])[0]
        return child

    def _descend(self, key_bytes: bytes, stats: TreeLookupStats) -> int | None:
        """Walk the tree to the first leaf page that may contain the key."""
        if not self.levels:
            return 0 if len(self.sorted_log) else None
        # Start at the root (single page of the top level).
        child: int | None = self.levels[-1][0]
        for depth in range(len(self.levels) - 1, -1, -1):
            assert child is not None
            stats.tree_pages += 1
            node = self.tree_log.read_records(child)
            child = None
            for record in node:
                max_key, child_position = unpack_entry(record)
                if max_key >= key_bytes:
                    child = child_position
                    break
            if child is None:
                return None  # key greater than every key in the subtree
        return child

    def _match_page(
        self, position: int, key_bytes: bytes
    ) -> tuple[list[int], bool]:
        """Matching rowids in one sorted page + whether the run may continue."""
        rowids: list[int] = []
        records = self.sorted_log.read_records(position)
        if not records:
            return rowids, False
        for record in records:
            entry_key, rowid = unpack_entry(record)
            if entry_key == key_bytes:
                rowids.append(rowid)
            elif entry_key > key_bytes:
                return rowids, False
        # Page ended on (or before) the key: duplicates may spill over.
        return rowids, True

    # ------------------------------------------------------------------
    def iter_range(self, low, high):
        """Yield ``(value-encoded key, rowid)`` with ``low <= key <= high``."""
        low_bytes, high_bytes = encode_key(low), encode_key(high)
        if low_bytes > high_bytes:
            raise StorageError("empty range: low > high")
        stats = TreeLookupStats()
        leaf = self._descend(low_bytes, stats)
        if leaf is None:
            return
        for position in range(leaf, len(self.sorted_log)):
            for record in self.sorted_log.read_records(position):
                entry_key, rowid = unpack_entry(record)
                if entry_key < low_bytes:
                    continue
                if entry_key > high_bytes:
                    return
                yield entry_key, rowid

    def drop(self) -> None:
        self.sorted_log.drop()
        self.tree_log.drop()


class SortedIndexBuilder:
    """Streaming builder: feed entries in ascending order, get a tree back.

    Used as the terminal stage of a reorganization merge. Only sequential
    appends are issued; the whole build holds two page buffers in RAM (one
    leaf, one tree node).
    """

    def __init__(
        self, allocator: BlockAllocator, name: str, epoch: int = 0
    ) -> None:
        self.epoch = epoch
        self.sorted_log = PageLog(allocator, name=f"{name}:sorted", epoch=epoch)
        self.tree_log = PageLog(allocator, name=f"{name}:tree", epoch=epoch)
        self._page_size = self.sorted_log.page_size
        self._leaf_buffer: list[bytes] = []
        self._leaf_size = 2
        self._leaf_index: list[bytes] = []  # max key per flushed leaf page
        self._last_entry: tuple[bytes, int] | None = None
        self._entry_count = 0

    def add(self, key_bytes: bytes, rowid: int) -> None:
        """Append the next entry (must be >= the previous one)."""
        if self._last_entry is not None and (key_bytes, rowid) < self._last_entry:
            raise StorageError(
                "SortedIndexBuilder received out-of-order entry"
            )
        self._last_entry = (key_bytes, rowid)
        record = pack_entry(key_bytes, rowid)
        if not pager.record_fits(self._leaf_size, record, self._page_size):
            self._flush_leaf()
        self._leaf_buffer.append(record)
        self._leaf_size += 2 + len(record)
        self._entry_count += 1

    def _flush_leaf(self) -> None:
        if not self._leaf_buffer:
            return
        max_key, _ = unpack_entry(self._leaf_buffer[-1])
        self.sorted_log.append_page(pager.pack_records(self._leaf_buffer))
        self._leaf_index.append(max_key)
        self._leaf_buffer = []
        self._leaf_size = 2

    def finish(self) -> SortedKeyIndex:
        """Flush leaves, build the key hierarchy bottom-up, seal both logs."""
        self._flush_leaf()
        levels: list[tuple[int, int]] = []
        # children: (max_key, position) of the level below.
        children = list(zip(self._leaf_index, range(len(self._leaf_index))))
        while len(children) > 1 or (children and not levels):
            first_node = len(self.tree_log)
            node_buffer: list[bytes] = []
            node_size = 2
            next_children: list[tuple[bytes, int]] = []

            def flush_node() -> None:
                nonlocal node_buffer, node_size
                if not node_buffer:
                    return
                node_max, _ = unpack_entry(node_buffer[-1])
                # Tag the node page with its tree level so recovery can
                # regroup levels without any sidecar metadata.
                position = self.tree_log.append_page(
                    pager.pack_records(node_buffer), meta=len(levels)
                )
                next_children.append((node_max, position))
                node_buffer = []
                node_size = 2

            for max_key, position in children:
                record = pack_entry(max_key, position)
                if not pager.record_fits(node_size, record, self._page_size):
                    flush_node()
                node_buffer.append(record)
                node_size += 2 + len(record)
            flush_node()
            levels.append((first_node, len(self.tree_log) - 1))
            children = next_children
            if len(children) == 1:
                break
        self.sorted_log.seal()
        self.tree_log.seal()
        return SortedKeyIndex(
            self.sorted_log,
            self.tree_log,
            levels,
            self._entry_count,
            epoch=self.epoch,
        )
