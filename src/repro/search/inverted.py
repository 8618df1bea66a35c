"""Sequential inverted index over chained hash buckets.

This is the flash layout of the tutorial's embedded search engine: triples
``(term, docid, weight)`` are appended, in increasing docid order, to the
hash bucket of their term. Bucket chains therefore replay triples in
*descending* docid order, which is what the pipelined merge consumes.

The only RAM the index itself needs is the bucket directory plus staging
(owned by :class:`~repro.storage.hashbucket.ChainedBucketLog`).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator

from repro.errors import StorageError
from repro.hardware.flash import BlockAllocator
from repro.hardware.ram import RamArena
from repro.storage import pager
from repro.storage.hashbucket import ChainedBucketLog, bucket_of

_POSTING_TAIL = struct.Struct("<If")  # docid, weight


def _decode_posting_page(page: bytes):
    """Columnar chain-page decode: ``(prev, entries, terms, docids, weights)``.

    Richer than the bucket log's default decoder (same ``[0]``/``[1]``
    layout, so generic chain readers keep working) — each posting is split
    once per page residency into parallel term-bytes/docid/weight vectors,
    which is what lets the scoring loop compare raw UTF-8 term bytes and
    skip per-posting ``unpack_posting`` calls. Installed as the inverted
    bucket log's ``page_decoder``.
    """
    prev = pager.unpack_u32(page, 0)
    entries = pager.unpack_records(page[ChainedBucketLog._HEADER :])
    terms: list[bytes] = []
    docids: list[int] = []
    weights: list[float] = []
    unpack_tail = _POSTING_TAIL.unpack_from
    for entry in entries:
        term_len = entry[0]
        terms.append(entry[1 : 1 + term_len])
        docid, weight = unpack_tail(entry, 1 + term_len)
        docids.append(docid)
        weights.append(weight)
    return prev, entries, terms, docids, weights


@dataclass(frozen=True)
class Posting:
    """One inverted-index triple."""

    term: str
    docid: int
    weight: float


def pack_posting(posting: Posting) -> bytes:
    term_bytes = posting.term.encode("utf-8")
    if len(term_bytes) > 0xFF:
        raise StorageError(f"term too long: {posting.term[:32]!r}...")
    return (
        bytes([len(term_bytes)])
        + term_bytes
        + _POSTING_TAIL.pack(posting.docid, posting.weight)
    )


def unpack_posting(data: bytes) -> Posting:
    term_len = data[0]
    term = data[1 : 1 + term_len].decode("utf-8")
    docid, weight = _POSTING_TAIL.unpack_from(data, 1 + term_len)
    return Posting(term, docid, weight)


class SequentialInvertedIndex:
    """Append-only inverted index; docids must arrive in increasing order."""

    def __init__(
        self,
        allocator: BlockAllocator,
        num_buckets: int = 64,
        ram: RamArena | None = None,
    ) -> None:
        self.buckets = ChainedBucketLog(
            allocator,
            num_buckets,
            name="inverted",
            ram=ram,
            page_decoder=_decode_posting_page,
        )
        self.num_buckets = num_buckets
        self._last_docid = -1
        self._doc_count = 0
        #: Recovery ghost fences: ``(pages, max_docid)`` — postings living
        #: in pages below ``pages`` are trusted only up to ``max_docid``.
        self._fences: list[tuple[int, int]] = []

    @classmethod
    def remount(
        cls,
        session,
        manifest,
        num_buckets: int = 64,
        ram: RamArena | None = None,
    ) -> "SequentialInvertedIndex":
        """Rebuild the inverted index after power loss, fencing out ghosts.

        A crash mid-indexing can leave *partial* documents on flash: some
        of a document's postings flushed, others still staged. Pages are
        immutable, so instead of rewriting anything the index drops a
        durable **fence** into the manifest: postings in the pages that
        existed at recovery time are only trusted up to the last
        checkpointed docid. Documents beyond the checkpoint are re-indexed
        by the owner (their replayed postings land in *new* pages, above
        the fence, hence visible), so every surviving document is searchable
        exactly once and no half-indexed ghost ever surfaces.
        """
        index = cls.__new__(cls)
        index.buckets = ChainedBucketLog.remount(
            session,
            num_buckets,
            name="inverted",
            ram=ram,
            page_decoder=_decode_posting_page,
        )
        index.num_buckets = num_buckets
        checkpoint = manifest.last("search-checkpoint")
        docs = checkpoint["docs"] if checkpoint is not None else 0
        index._doc_count = docs
        index._last_docid = docs - 1
        index._fences = [
            (record["pages"], record["max_docid"])
            for record in manifest.records()
            if record["kind"] == "search-fence"
        ]
        if index.buckets.flushed_pages:
            fence = (index.buckets.flushed_pages, docs - 1)
            manifest.append(
                "search-fence", pages=fence[0], max_docid=fence[1]
            )
            index._fences.append(fence)
        return index

    def _is_ghost(self, position: int | None, docid: int) -> bool:
        """Whether a posting at page ``position`` is pre-crash debris."""
        if position is None:  # staged in RAM: written after any crash
            return False
        for pages, max_docid in self._fences:
            if position < pages and docid > max_docid:
                return True
        return False

    # ------------------------------------------------------------------
    @property
    def doc_count(self) -> int:
        """Number of indexed documents (the N of the IDF formula)."""
        return self._doc_count

    def add_document(self, docid: int, term_weights: dict[str, float]) -> None:
        """Index one document's ``term -> weight`` map.

        Docids are generated in increasing order in the tutorial's design
        (documents are timestamped on arrival); violating that would break
        the descending-scan merge, so it is rejected here.
        """
        if docid <= self._last_docid:
            raise StorageError(
                f"docid {docid} not increasing (last was {self._last_docid})"
            )
        for term in sorted(term_weights):
            posting = Posting(term, docid, float(term_weights[term]))
            self.buckets.append(
                bucket_of(term, self.num_buckets), pack_posting(posting)
            )
        self._last_docid = docid
        self._doc_count += 1

    def flush(self) -> None:
        """Flush staged postings to flash."""
        self.buckets.flush_all()

    # ------------------------------------------------------------------
    def iter_term(self, term: str) -> Iterator[Posting]:
        """Postings of ``term`` in descending docid order.

        Scans the term's bucket chain and filters out hash-collision
        postings of other terms (they share the chain by construction).
        """
        bucket = bucket_of(term, self.num_buckets)
        for position, entry in self.buckets.iter_bucket_with_positions(bucket):
            posting = unpack_posting(entry)
            if posting.term == term and not self._is_ghost(
                position, posting.docid
            ):
                yield posting

    def iter_term_tuples(self, term: str) -> Iterator[tuple[int, float]]:
        """``(docid, weight)`` pairs of ``term`` in descending docid order.

        The batch counterpart of :meth:`iter_term`: same chain pages in the
        same order, but term matching compares raw UTF-8 bytes against the
        page's decoded term vector (bytes equality ⇔ string equality) and
        never builds a :class:`Posting`. This is the scoring loop's stream.
        """
        term_bytes = term.encode("utf-8")
        bucket = bucket_of(term, self.num_buckets)
        fences = self._fences
        for position, decoded in self.buckets.iter_decoded(bucket):
            if position is None:
                # Staged entries (RAM): newest-first, decoded on the fly.
                for entry in reversed(decoded):
                    term_len = entry[0]
                    if entry[1 : 1 + term_len] == term_bytes:
                        yield _POSTING_TAIL.unpack_from(entry, 1 + term_len)
                continue
            terms, docids, weights = decoded[2], decoded[3], decoded[4]
            for i in range(len(terms) - 1, -1, -1):
                if terms[i] == term_bytes:
                    docid = docids[i]
                    if fences and self._is_ghost(position, docid):
                        continue
                    yield docid, weights[i]

    def document_frequency(self, term: str) -> int:
        """Number of documents containing ``term`` (one chain scan).

        Counts per decoded page (``terms.count``) instead of iterating
        postings one by one; falls back to the posting stream when recovery
        fences are active, since ghosts must be excluded per entry.
        """
        if self._fences:
            return sum(1 for _ in self.iter_term_tuples(term))
        term_bytes = term.encode("utf-8")
        bucket = bucket_of(term, self.num_buckets)
        count = 0
        for position, decoded in self.buckets.iter_decoded(bucket):
            if position is None:
                count += sum(
                    1
                    for entry in decoded
                    if entry[1 : 1 + entry[0]] == term_bytes
                )
            else:
                count += decoded[2].count(term_bytes)
        return count
