"""Property-based tests for the XPath substrate."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dtd.generator import DocumentGenerator
from repro.xpath.ast import PARENT, TEXT, Absolute, slash
from repro.xpath.evaluator import XPathEvaluator
from repro.xpath.parser import parse_xpath
from repro.xpath.plan import PlanRuntime, compile_path
from repro.xpath.subqueries import ascending_subqueries

from tests.property.strategies import dag_dtd_strategy, path_strategy


@settings(max_examples=150, deadline=None)
@given(path_strategy())
def test_serialization_roundtrip(query):
    """str -> parse is the identity on ASTs (up to smart-constructor
    normalization, which the generators already apply)."""
    assert parse_xpath(str(query)) == query


@settings(max_examples=100, deadline=None)
@given(path_strategy())
def test_double_roundtrip_stable(query):
    once = parse_xpath(str(query))
    assert parse_xpath(str(once)) == once


@settings(max_examples=100, deadline=None)
@given(path_strategy())
def test_structural_equality_consistent_with_hash(query):
    clone = parse_xpath(str(query))
    assert hash(clone) == hash(query)


@settings(max_examples=100, deadline=None)
@given(path_strategy())
def test_subqueries_respect_topology(query):
    ordered = ascending_subqueries(query)
    assert ordered[-1] == query
    positions = {node: i for i, node in enumerate(ordered)}
    for node in ordered:
        for child in node.children():
            assert positions[child] < positions[node]


@settings(max_examples=100, deadline=None)
@given(path_strategy())
def test_size_positive_and_additive(query):
    assert query.size() >= 1
    assert query.size() >= len(ascending_subqueries(query))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_compiled_plan_matches_interpreter(data):
    """The object-tree plan backend does exactly the interpreter's
    work: the same node identities, in the same order, with the same
    ``visits`` counter, on a random DTD, document and path."""
    dtd = data.draw(dag_dtd_strategy())
    seed = data.draw(st.integers(0, 300))
    document = DocumentGenerator(dtd, seed=seed, max_branch=3).generate()
    path = data.draw(
        path_strategy(labels=tuple(dtd.element_types), max_leaves=5)
    )
    path = data.draw(
        st.sampled_from(
            [path, Absolute(path), slash(path, TEXT), slash(path, PARENT)]
        )
    )
    evaluator = XPathEvaluator()
    expected = evaluator.evaluate(path, document, ordered=True)
    runtime = PlanRuntime()
    actual = compile_path(path).execute(document, ordered=True, runtime=runtime)
    assert [id(node) for node in actual] == [id(node) for node in expected]
    assert runtime.visits == evaluator.visits
