"""Dirty-page tracking and copy-on-first-write golden pages.

A :class:`DirtySet` records, per memory region, which pages have been
written since the last :meth:`clear`.  The bus marks pages on every
store path (scalar stores, bulk writes, DMA) *before* the write lands;
a fork-server restore then copies back only the dirty pages instead of
every byte of RAM, making reset cost proportional to what the input
touched rather than to machine size.

Built over a set of captured regions, the DirtySet also holds the
golden image itself, lazily: the first time a page is marked after
capture, its pre-image (the bytes about to be overwritten) is kept.
Pages never written are never copied, so a golden capture costs
O(pages touched), not O(RAM).  This only holds while every write into
a captured region marks first — a path that writes and marks after
would record its own bytes as the golden.

The same abstraction underlies both restore strategies in
:mod:`repro.emulator.snapshot`:

* ``Checkpoint`` (journal) needs no page map — its pre-image log *is*
  a byte-exact dirty record — and its rollback marks the pages it
  rewinds;
* ``ForkServer`` owns a DirtySet attached to the bus and consumes it
  on every delta restore.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Set, Tuple

#: bytes per tracked page; matches the mmap granularity of large regions
PAGE_SIZE = 4096
PAGE_SHIFT = 12


class DirtySet:
    """Per-region sets of dirty page indices, plus their golden pre-images.

    Keys are region *names* (stable across restores); values are sets
    of page indices within the region.  ``buffers`` maps each captured
    region's name to its backing buffer (``region.data``): for those
    regions the first mark of a page copies the page out of the buffer
    before the write lands.
    Pre-images outlive :meth:`clear` — a restored page holds its golden
    bytes again, so the one copy serves every later session.  The hot
    path is :meth:`mark`, called on every guest store; a page already
    dirty this session costs one set lookup.
    """

    __slots__ = ("marked", "_buffers", "_golden")

    def __init__(self, buffers: Optional[Mapping[str, object]] = None) -> None:
        #: region name -> dirty page indices; change only through
        #: :meth:`mark` and :meth:`clear` (the bus reads it to skip
        #: marking a page that is already dirty)
        self.marked: Dict[str, Set[int]] = {}
        self._buffers = dict(buffers or {})
        #: captured region name -> page index -> golden page bytes
        self._golden: Dict[str, Dict[int, bytes]] = {
            name: {} for name in self._buffers
        }

    # ------------------------------------------------------------------
    # marking (hot path)
    # ------------------------------------------------------------------
    def mark(self, region_name: str, off: int, size: int) -> None:
        """Mark the pages covering ``[off, off+size)`` dirty.

        Must run before the write it announces: a page's first mark
        keeps its current bytes as the golden pre-image.
        """
        first = off >> PAGE_SHIFT
        pages = self.marked.get(region_name)
        if pages is None:
            pages = self.marked[region_name] = set()
        last = (off + size - 1) >> PAGE_SHIFT
        if first == last:
            if first not in pages:
                pages.add(first)
                self._keep(region_name, first, first)
        elif not pages.issuperset(range(first, last + 1)):
            pages.update(range(first, last + 1))
            self._keep(region_name, first, last)

    def _keep(self, region_name: str, first: int, last: int) -> None:
        """Save the pre-images of pages ``first..last`` not yet kept."""
        golden = self._golden.get(region_name)
        if golden is None:
            return  # not a captured region: track pages only
        data = self._buffers[region_name]
        for page in range(first, last + 1):
            if page not in golden:
                lo = page << PAGE_SHIFT
                golden[page] = bytes(data[lo:lo + PAGE_SIZE])

    # ------------------------------------------------------------------
    # consumption
    # ------------------------------------------------------------------
    def pages(self, region_name: str) -> Set[int]:
        """The dirty page indices of one region (empty set when clean)."""
        return self.marked.get(region_name, set())

    def spans(self, region_name: str) -> List[Tuple[int, int]]:
        """Merged ``(lo, hi)`` byte ranges covering the dirty pages.

        Contiguous dirty pages coalesce into one span, so a restore
        invalidates translations once per run of pages, not per page.
        """
        pages = self.marked.get(region_name)
        if not pages:
            return []
        spans: List[Tuple[int, int]] = []
        start = prev = None
        for page in sorted(pages):
            if prev is not None and page == prev + 1:
                prev = page
                continue
            if start is not None:
                spans.append((start << PAGE_SHIFT, (prev + 1) << PAGE_SHIFT))
            start = prev = page
        spans.append((start << PAGE_SHIFT, (prev + 1) << PAGE_SHIFT))
        return spans

    def golden(self, region_name: str) -> Dict[int, bytes]:
        """Kept pre-images of a captured region, by page index."""
        return self._golden[region_name]

    def golden_bytes(self) -> int:
        """Total pre-image bytes kept across all captured regions."""
        return sum(
            len(image)
            for golden in self._golden.values()
            for image in golden.values()
        )

    def page_count(self) -> int:
        """Total dirty pages across all regions."""
        return sum(len(pages) for pages in self.marked.values())

    def region_names(self) -> Iterator[str]:
        """Regions with at least one dirty page."""
        return (name for name, pages in self.marked.items() if pages)

    def clear(self) -> None:
        """Forget all dirty pages (after a restore or golden capture)."""
        for pages in self.marked.values():
            pages.clear()
