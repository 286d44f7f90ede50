"""Unit tests for the document label index."""

import pytest

from repro.xmlmodel.index import DocumentIndex, build_index
from repro.xmlmodel.parser import parse_document

DOC = """
<lib>
  <shelf>
    <book><title>a</title><note><title>inner</title></note></book>
    <book><title>b</title></book>
  </shelf>
  <shelf>
    <book><title>c</title></book>
  </shelf>
  <title>library title</title>
</lib>
"""


@pytest.fixture(scope="module")
def tree():
    return parse_document(DOC)


@pytest.fixture(scope="module")
def index(tree):
    return build_index(tree)


class TestStructure:
    def test_size_counts_elements(self, tree, index):
        assert index.size() == tree.element_count()

    def test_positions_are_preorder(self, tree, index):
        elements = list(tree.iter_elements())
        positions = [index.position(element) for element in elements]
        assert positions == sorted(positions)
        assert positions[0] == 0

    def test_intervals_nest(self, tree, index):
        shelf = tree.element_children()[0]
        for element in shelf.iter_elements():
            assert index.is_descendant(shelf, element)
        assert not index.is_descendant(shelf, tree)

    def test_covers(self, tree, index):
        from repro.xmlmodel.nodes import XMLElement

        assert index.covers(tree)
        assert not index.covers(XMLElement("stranger"))


class TestLabelQueries:
    def test_all_with_label(self, tree, index):
        assert len(index.all_with_label("title")) == 5
        assert index.all_with_label("ghost") == []

    def test_descendants_with_label_matches_scan(self, tree, index):
        for element in tree.iter_elements():
            expected = [
                node
                for node in element.iter_elements()
                if node is not element and node.label == "title"
            ]
            actual = index.descendants_with_label(element, "title")
            assert [id(node) for node in actual] == [
                id(node) for node in expected
            ], element.label

    def test_excludes_self(self, tree, index):
        title = tree.find_all("title")[0]
        assert index.descendants_with_label(title, "title") == []

    def test_unknown_element_is_empty(self, index):
        from repro.xmlmodel.nodes import XMLElement

        assert index.descendants_with_label(XMLElement("x"), "title") == []

    def test_document_order_sort(self, tree, index):
        titles = index.all_with_label("title")
        shuffled = list(reversed(titles))
        assert index.document_order_sort(shuffled) == titles

    def test_document_order_sort_degrades_deterministically(
        self, tree, index
    ):
        """Uncovered entries (text nodes, foreign elements) must land
        in a deterministic spot: anchored right after their nearest
        indexed ancestor, orphans at the end, ties in input order."""
        from repro.xmlmodel.nodes import XMLElement

        books = index.all_with_label("book")
        first_title_text = tree.find_all("title")[0].children[0]
        last_title_text = tree.find_all("title")[-1].children[0]
        orphan_a = XMLElement("orphan-a")
        orphan_b = XMLElement("orphan-b")
        mixed = [
            orphan_b,
            last_title_text,
            books[2],
            first_title_text,
            books[0],
            orphan_a,
        ]
        result = index.document_order_sort(list(mixed))
        # covered elements first, in document order; each text node
        # anchored after its parent title's position; orphans last, in
        # input order (b before a — exactly as given)
        assert result == [
            books[0],
            first_title_text,
            books[2],
            last_title_text,
            orphan_b,
            orphan_a,
        ]
        # a pure function of (index, input): re-sorting gives the same
        # answer, and so does sorting an already-sorted list
        assert index.document_order_sort(list(mixed)) == result
        assert index.document_order_sort(list(result)) == result

    def test_document_order_sort_anchor_interleaves_with_covered(
        self, tree, index
    ):
        """A text node sorts directly after its anchor element even
        when that element is also in the input."""
        title = tree.find_all("title")[0]
        text = title.children[0]
        result = index.document_order_sort([text, title])
        assert result == [title, text]


class TestEvaluatorIntegration:
    """The index stands alone; these cross-check it against the
    interpreter, the reference evaluator."""

    QUERIES = [
        "//title",
        "//book/title",
        "shelf//title",
        "//book[title]",
        "//note//title | //shelf",
        '//book[title = "b"]',
        "//title/..",
    ]

    @pytest.mark.parametrize("text", QUERIES)
    def test_indexed_evaluation_equivalent(self, tree, index, text):
        """Sorting an unordered answer by the index's preorder gives
        the interpreter's document order."""
        from repro.xpath.evaluator import XPathEvaluator
        from repro.xpath.parser import parse_xpath

        query = parse_xpath(text)
        evaluator = XPathEvaluator()
        expected = evaluator.evaluate(query, tree, ordered=True)
        actual = index.document_order_sort(evaluator.evaluate(query, tree))
        assert [id(n) for n in actual] == [id(n) for n in expected], text

    def test_index_reduces_visits(self):
        """A ``//label`` answer read off the index touches only its
        hits, a small fraction of the interpreter's subtree walk."""
        from repro.workloads.adex import adex_document
        from repro.xpath.evaluator import XPathEvaluator
        from repro.xpath.parser import parse_xpath

        document = adex_document(seed=2, buyers=30, ads=120)
        big_index = build_index(document)
        plain = XPathEvaluator()
        expected = plain.evaluate(
            parse_xpath("//r-e.warranty"), document, ordered=True
        )
        hits = big_index.descendants_with_label(document, "r-e.warranty")
        assert [id(n) for n in hits] == [id(n) for n in expected]
        assert len(hits) < plain.visits / 10

    def test_foreign_context_falls_back(self, tree, index):
        """Nodes of another tree are uncovered: label lookups find
        nothing and sorting keeps their input order, while the
        interpreter still answers over that tree."""
        from repro.xmlmodel.parser import parse_document as parse
        from repro.xpath.evaluator import XPathEvaluator
        from repro.xpath.parser import parse_xpath

        other = parse("<lib><shelf><book><title>z</title></book></shelf></lib>")
        result = XPathEvaluator().evaluate(parse_xpath("//title"), other)
        assert [node.string_value() for node in result] == ["z"]
        assert not any(index.covers(node) for node in other.iter_elements())
        assert index.descendants_with_label(other, "title") == []
        books = other.find_all("book")
        assert index.document_order_sort(result + books) == result + books
