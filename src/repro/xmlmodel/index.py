"""Document indexing for fast descendant-axis evaluation.

A classic XML-database structure: one preorder (Euler-tour) interval
per element plus per-label position lists.  ``descendants_with_label``
then answers "all ``l``-descendants of ``v``" with two binary searches
instead of a subtree scan — the access pattern that dominates ``//``
evaluation (and thus the naive baseline of Section 6).

The index is immutable with respect to the document: rebuild it after
structural updates (document mutation is out of the paper's scope).
It is a standalone structure: the engine's plans use the columnar
:class:`~repro.xmlmodel.store.NodeTable` postings for the same
``//label`` access pattern.
"""

from __future__ import annotations

import bisect
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import metrics_enabled, observe, record


class DocumentIndex:
    """Preorder intervals + per-label position lists for one tree."""

    def __init__(self, root):
        self.root = root
        #: id(element) -> (preorder position, end of subtree interval)
        self.intervals: Dict[int, Tuple[int, int]] = {}
        #: label -> ascending preorder positions of elements
        self.positions_by_label: Dict[str, List[int]] = {}
        #: preorder position -> element
        self.element_at: Dict[int, object] = {}
        started = perf_counter() if metrics_enabled() else None
        self._build(root)
        if started is not None:
            record("document_index.builds")
            observe("document_index.build_seconds", perf_counter() - started)
            observe("document_index.elements", len(self.intervals))

    def _build(self, root) -> None:
        counter = 0
        # iterative preorder with post-visit hooks to close intervals
        stack = [(root, False)]
        open_stack: List[int] = []
        while stack:
            node, closing = stack.pop()
            if closing:
                start = open_stack.pop()
                self.intervals[id(node)] = (start, counter)
                continue
            start = counter
            counter += 1
            open_stack.append(start)
            self.element_at[start] = node
            self.positions_by_label.setdefault(node.label, []).append(start)
            stack.append((node, True))
            for child in reversed(node.children):
                if child.is_element:
                    stack.append((child, False))

    # -- queries -----------------------------------------------------------

    def size(self) -> int:
        return len(self.intervals)

    def nbytes(self) -> int:
        """Estimated resident bytes of the index's own structures
        (``sys.getsizeof`` for the containers plus per-entry interval
        tuples and per-label position lists; indexed element objects
        belong to the document and are not counted)."""
        import sys

        total = sys.getsizeof(self.intervals)
        total += sum(
            sys.getsizeof(interval) for interval in self.intervals.values()
        )
        total += sys.getsizeof(self.element_at)
        total += sys.getsizeof(self.positions_by_label)
        total += sum(
            sys.getsizeof(label) + sys.getsizeof(positions)
            + 28 * len(positions)  # the position ints themselves
            for label, positions in self.positions_by_label.items()
        )
        return total

    def position(self, element) -> Optional[int]:
        interval = self.intervals.get(id(element))
        return None if interval is None else interval[0]

    def covers(self, element) -> bool:
        """Is the element part of the indexed tree?"""
        return id(element) in self.intervals

    def is_descendant(self, ancestor, element) -> bool:
        """Proper-or-self descendant test in O(1)."""
        outer = self.intervals.get(id(ancestor))
        inner = self.intervals.get(id(element))
        if outer is None or inner is None:
            return False
        return outer[0] <= inner[0] and inner[1] <= outer[1]

    def descendants_with_label(self, element, label: str) -> List:
        """All *proper* descendants of ``element`` carrying ``label``,
        in document order.  O(log n + answer)."""
        interval = self.intervals.get(id(element))
        if interval is None:
            return []
        start, end = interval
        positions = self.positions_by_label.get(label, ())
        low = bisect.bisect_right(positions, start)  # exclude self
        high = bisect.bisect_left(positions, end)
        return [self.element_at[position] for position in positions[low:high]]

    def all_with_label(self, label: str) -> List:
        """Every element with ``label``, in document order."""
        return [
            self.element_at[position]
            for position in self.positions_by_label.get(label, ())
        ]

    def document_order_sort(self, elements: List) -> List:
        """Sort indexed elements into document order, degrading
        deterministically for entries the index does not cover.

        A non-indexed entry (text nodes are the common case — the
        index only covers elements) is *anchored* at its nearest
        indexed ancestor and placed directly after that ancestor's
        indexed occurrences; entries with no indexed ancestor at all
        sort to the end.  Ties (several entries sharing an anchor, or
        several orphans) keep their input order, so the result is a
        pure function of (index, input sequence) — never an arbitrary
        interleave."""
        decorated = []
        for sequence, element in enumerate(elements):
            interval = self.intervals.get(id(element))
            if interval is not None:
                decorated.append((interval[0], 0, sequence, element))
                continue
            anchor = self._nearest_indexed_ancestor(element)
            if anchor is None:
                decorated.append((len(self.element_at), 2, sequence, element))
            else:
                decorated.append((anchor, 1, sequence, element))
        decorated.sort(key=lambda entry: entry[:3])
        return [element for _, _, _, element in decorated]

    def _nearest_indexed_ancestor(self, element) -> Optional[int]:
        """Preorder position of the closest indexed proper ancestor
        (``None`` when the node's ancestor chain never meets the
        indexed tree)."""
        node = getattr(element, "parent", None)
        while node is not None:
            interval = self.intervals.get(id(node))
            if interval is not None:
                return interval[0]
            node = getattr(node, "parent", None)
        return None


def build_index(root) -> DocumentIndex:
    """Convenience constructor."""
    return DocumentIndex(root)
