"""Property: every engine strategy answers ``p(Tv)``.

For random DAG DTDs, random Y/N policies, random conforming documents,
and random fragment-``C`` queries, the served answer equals the
paper's ground truth: the query evaluated over the materialized view
``Tv``.  Each strategy is checked cold, warm (a plan-cache hit), and
with ``use_cache=False`` (a fresh compile that bypasses the cache).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import SecureQueryEngine
from repro.core.materialize import materialize
from repro.core.options import ExecutionOptions
from repro.dtd.generator import DocumentGenerator
from repro.obs.canary import compare_answers, oracle_answers

from tests.property.strategies import (
    annotation_strategy,
    dag_dtd_strategy,
    path_strategy,
)

STRATEGIES = ("virtual", "columnar", "materialized")


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_cached_execution_is_answer_preserving(data):
    dtd = data.draw(dag_dtd_strategy())
    spec = data.draw(annotation_strategy(dtd))
    seed = data.draw(st.integers(0, 500))
    document = DocumentGenerator(dtd, seed=seed, max_branch=3).generate()
    query = data.draw(
        path_strategy(labels=tuple(dtd.element_types), max_leaves=5)
    )
    engine = SecureQueryEngine(dtd)
    view = engine.register_policy("p", spec)
    expected = oracle_answers(query, materialize(document, view, spec))

    for strategy in STRATEGIES:
        cached = ExecutionOptions(strategy=strategy)
        cold = engine.query("p", query, document, cached)
        assert not cold.report.cache_hit
        assert compare_answers(expected, cold) == (0, 0), strategy
        warm = engine.query("p", query, document, cached)
        assert warm.report.cache_hit
        assert compare_answers(expected, warm) == (0, 0), strategy
        fresh = engine.query(
            "p", query, document, cached.with_(use_cache=False)
        )
        assert not fresh.report.cache_hit
        assert compare_answers(expected, fresh) == (0, 0), strategy

    # raw (unprojected) document nodes agree by identity and order
    # across backends and with the cache bypassed
    raw = [
        [
            id(node)
            for node in engine.query("p", query, document, options)
        ]
        for options in (
            ExecutionOptions(project=False),
            ExecutionOptions(project=False, use_cache=False),
            ExecutionOptions(project=False, strategy="columnar"),
        )
    ]
    assert raw[0] == raw[1] == raw[2]
