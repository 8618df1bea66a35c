"""Pipelined embedded search engine (Part II, first illustration).

Answers IR queries — *the N most relevant documents for a set of keywords* —
inside the token's RAM budget. The key trick reproduced from the tutorial:

* docids are generated in increasing order, and bucket chains replay
  postings in **descending docid order**;
* the query scans the chain of each keyword **once**, merging on docids: all
  postings of a given docid surface at the heads of the iterators together,
  so its TF-IDF score is computable *in pipeline*, after which the doc's
  state is discarded;
* RAM = one page buffer per query keyword + the bounded top-N heap, charged
  against the MCU's :class:`~repro.hardware.ram.RamArena` — never a
  "container per retrieved docid" (that is the baseline's failure mode).

IDF needs document frequencies, which the token does not keep in RAM (a
vocabulary-sized table would bust the budget); instead each keyword chain is
scanned twice — a counting pass then the merge pass — trading IO for RAM
exactly as the embedded literature does.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

from repro import obs
from repro.hardware.cache import CacheStats
from repro.hardware.token import SecurePortableToken
from repro.search.analyzer import query_terms, term_frequencies
from repro.search.inverted import SequentialInvertedIndex

#: RAM charged per entry of the top-N result heap: docid + score + heap slot.
_HEAP_ENTRY_BYTES = 16


@dataclass(frozen=True)
class SearchHit:
    """One query result."""

    docid: int
    score: float


@dataclass
class SearchStats:
    """Observed IO cost of one search (the search-side ExecutionStats).

    With a page cache attached, the second chain scan of the IDF double
    pass is served from RAM: ``flash_page_reads`` counts only real chip
    IOs, and ``cache`` holds the per-search hit/miss delta (an all-zero
    :class:`CacheStats` when the token runs uncached, so callers never
    guard on None).
    """

    flash_page_reads: int = 0
    cache: CacheStats = field(default_factory=CacheStats)


class EmbeddedSearchEngine:
    """Keyword search over documents stored in one secure token."""

    def __init__(
        self,
        token: SecurePortableToken,
        num_buckets: int = 64,
        manifest=None,
    ) -> None:
        self.token = token
        #: Optional :class:`~repro.storage.recovery.Manifest` the engine
        #: writes its durable checkpoints to (None: no crash guarantees).
        self.manifest = manifest
        self.index = SequentialInvertedIndex(
            token.allocator, num_buckets, ram=token.mcu.ram
        )
        self._next_docid = 0
        #: IO breakdown of the most recent :meth:`search` call.
        self.last_search_stats = SearchStats()

    @classmethod
    def remount(
        cls,
        token: SecurePortableToken,
        session,
        manifest,
        num_buckets: int = 64,
    ) -> "EmbeddedSearchEngine":
        """Recover the engine after power loss (see the index's remount).

        Docid assignment resumes from the last durable checkpoint; the
        owner is expected to re-index every document ingested after it
        (their old postings are fenced out as ghosts), which is what
        :meth:`PersonalDataServer.remount` does from the documents log.
        """
        engine = cls.__new__(cls)
        engine.token = token
        engine.manifest = manifest
        engine.index = SequentialInvertedIndex.remount(
            session, manifest, num_buckets, ram=token.mcu.ram
        )
        engine._next_docid = engine.index._last_docid + 1
        engine.last_search_stats = SearchStats()
        return engine

    def checkpoint(self) -> None:
        """Flush all staged postings and durably mark the fully-indexed point.

        After this returns, every document indexed so far survives a crash
        without replay: the checkpoint record tells recovery that docids up
        to ``docs - 1`` are completely on flash.
        """
        self.index.flush()
        if self.manifest is not None:
            self.manifest.append("search-checkpoint", docs=self._next_docid)

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------
    def add_document(self, text: str, docid: int | None = None) -> int:
        """Index a document; returns its docid (auto-increasing by default)."""
        self.token.require_trusted()
        if docid is None:
            docid = self._next_docid
        weights = {term: float(tf) for term, tf in term_frequencies(text).items()}
        self.index.add_document(docid, weights)
        self._next_docid = docid + 1
        return docid

    def flush(self) -> None:
        self.index.flush()

    @property
    def doc_count(self) -> int:
        return self.index.doc_count

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def search(
        self, query: str, n: int = 10, require_all: bool = False
    ) -> list[SearchHit]:
        """Top-``n`` documents for ``query`` by TF-IDF, merge-pipelined.

        With ``require_all`` (conjunctive semantics) only documents
        containing *every* query keyword are ranked — evaluated inside the
        same merge at no extra RAM: a docid qualifies iff all keyword
        iterators surface it simultaneously.
        """
        self.token.require_trusted()
        keywords = query_terms(query)
        if not keywords or self.index.doc_count == 0:
            self.last_search_stats = SearchStats()
            return []

        flash = self.token.flash
        reads_before = flash.stats.page_reads
        cache = self.token.allocator.page_cache
        cache_before = cache.stats.snapshot() if cache is not None else None
        ram = self.token.mcu.ram
        page_size = flash.geometry.page_size
        merge_ram = len(keywords) * page_size + n * _HEAP_ENTRY_BYTES
        try:
            with obs.span(
                "search.query", keywords=len(keywords), n=n
            ), ram.reservation(merge_ram, tag="search:merge"):
                with obs.span("search.idf"):
                    idf = self._idf_pass(keywords)
                live = [term for term in keywords if idf.get(term, 0.0) > 0.0]
                if not live or (require_all and len(live) < len(keywords)):
                    return []
                with obs.span("search.merge", live_terms=len(live)):
                    return self._merge_pass(
                        live, idf, n, require_all=require_all
                    )
        finally:
            self.last_search_stats = SearchStats(
                flash_page_reads=flash.stats.page_reads - reads_before,
                cache=(
                    cache.stats.delta(cache_before)
                    if cache is not None
                    else CacheStats()
                ),
            )

    def _idf_pass(self, keywords: list[str]) -> dict[str, float]:
        """Counting pass: document frequency -> IDF per keyword."""
        total_docs = self.index.doc_count
        idf: dict[str, float] = {}
        for term in keywords:
            df = self.index.document_frequency(term)
            idf[term] = math.log(total_docs / df) if df else 0.0
            # log(N/N) == 0 would erase ubiquitous terms entirely; keep a
            # small floor so a term present in every doc still contributes.
            if df == total_docs:
                idf[term] = 1.0 / total_docs
        return idf

    def _merge_pass(
        self,
        keywords: list[str],
        idf: dict[str, float],
        n: int,
        require_all: bool = False,
    ) -> list[SearchHit]:
        """Single synchronized descent over all keyword chains.

        A max-merge on docid: iterators are kept in a heap keyed by
        ``-docid``; all heads sharing the current docid are popped together,
        their ``tf * idf`` contributions summed, and the doc's score goes to
        the bounded min-heap of the best ``n``.
        """
        # Array-backed (docid, weight) streams: same chain pages in the same
        # order as iter_term, minus per-posting object construction.
        iterators = {
            term: self.index.iter_term_tuples(term) for term in keywords
        }
        heads: list[tuple[int, str]] = []  # (-docid, term)
        current: dict[str, float] = {}
        for term, iterator in iterators.items():
            posting = next(iterator, None)
            if posting is not None:
                heapq.heappush(heads, (-posting[0], term))
                current[term] = posting[1]

        # Min-heap of (score, -docid): the weakest entry is the lowest score,
        # ties resolved against the *largest* docid, so equal-score documents
        # rank by ascending docid exactly like the conventional baseline.
        best: list[tuple[float, int]] = []
        while heads:
            docid = -heads[0][0]
            score = 0.0
            matched_terms = 0
            while heads and -heads[0][0] == docid:
                _, term = heapq.heappop(heads)
                score += current.pop(term) * idf[term]
                matched_terms += 1
                self.token.mcu.charge_compares(1)
                nxt = next(iterators[term], None)
                if nxt is not None:
                    heapq.heappush(heads, (-nxt[0], term))
                    current[term] = nxt[1]
            if require_all and matched_terms < len(keywords):
                continue
            entry = (score, -docid)
            if len(best) < n:
                heapq.heappush(best, entry)
            elif entry > best[0]:
                heapq.heapreplace(best, entry)

        ranked = sorted(best, key=lambda pair: (-pair[0], -pair[1]))
        return [
            SearchHit(docid=-neg_docid, score=score) for score, neg_docid in ranked
        ]
