"""Compiled plans must be drop-in equivalents of the interpreter:
identical result lists (content *and* order) and identical ``visits``
counters; their document order agrees with a standalone
:class:`~repro.xmlmodel.index.DocumentIndex`."""

import pytest

from repro.workloads.hospital import hospital_document, hospital_dtd
from repro.xmlmodel.index import build_index
from repro.xpath.evaluator import XPathEvaluator
from repro.xpath.parser import parse_xpath
from repro.xpath.plan import CompiledPlan, PlanRuntime, compile_path

QUERIES = [
    ".",
    "0",
    "*",
    "//patient",
    "/hospital/dept",
    "//dept/patientInfo/patient/name",
    "//patient/name/text()",
    "//patient[wardNo]",
    '//patient[wardNo = "2"]/name',
    "//treatment//medication",
    "(//patient/name | //staffInfo/name)",
    "//dept[*//bill]//patient",
    "//patient[not(wardNo) or name]",
    "//patient/..",
    "//patient[name and wardNo]",
]


@pytest.fixture(scope="module")
def document():
    return hospital_document(seed=11, max_branch=4)


@pytest.fixture(scope="module")
def index(document):
    return build_index(document)


@pytest.mark.parametrize("text", QUERIES)
@pytest.mark.parametrize("ordered", [False, True])
def test_plan_matches_interpreter(document, text, ordered):
    query = parse_xpath(text)
    evaluator = XPathEvaluator()
    expected = evaluator.evaluate(query, document, ordered=ordered)
    runtime = PlanRuntime()
    actual = compile_path(query).execute(
        document, ordered=ordered, runtime=runtime
    )
    assert [id(node) for node in actual] == [id(node) for node in expected]
    assert runtime.visits == evaluator.visits


@pytest.mark.parametrize("text", QUERIES)
def test_plan_matches_interpreter_with_index(document, index, text):
    """The ordered plan answer equals the interpreter's, and both equal
    the unordered answer sorted by the document index's preorder."""
    query = parse_xpath(text)
    plan = compile_path(query)
    actual = plan.execute(document, ordered=True)
    expected = XPathEvaluator().evaluate(query, document, ordered=True)
    by_index = index.document_order_sort(plan.execute(document))
    assert [id(node) for node in actual] == [id(node) for node in expected]
    assert [id(node) for node in by_index] == [id(node) for node in actual]


def test_plan_reusable_across_documents():
    plan = compile_path(parse_xpath("//patient/name"))
    for seed in (1, 2, 3):
        document = hospital_document(seed=seed, max_branch=3)
        expected = XPathEvaluator().evaluate(
            parse_xpath("//patient/name"), document
        )
        assert len(plan.execute(document)) == len(expected)


def test_runtime_accumulates_across_executions(document):
    plan = compile_path(parse_xpath("//patient"))
    runtime = PlanRuntime()
    plan.execute(document, runtime=runtime)
    first = runtime.visits
    assert first > 0
    plan.execute(document, runtime=runtime)
    assert runtime.visits == 2 * first
    runtime.reset_counters()
    assert runtime.visits == 0


def test_plan_repr_and_operator_count():
    plan = compile_path(parse_xpath("//patient[wardNo]/name"))
    assert isinstance(plan, CompiledPlan)
    assert plan.operator_count > 3
    assert "CompiledPlan" in repr(plan)


def test_unbound_parameter_raises(document):
    from repro.errors import XPathEvaluationError

    plan = compile_path(parse_xpath("//patient[wardNo = $w]"))
    with pytest.raises(XPathEvaluationError):
        plan.execute(document)
