"""The oracle gate: every served answer must equal ``p(Tv)``.

For each distinct (policy, query, document) the expected multiset of
answers is computed once, untimed, by evaluating the query over the
materialized security view (``repro.core.materialize.materialize`` and
``repro.obs.canary.oracle_answers``, the paper's ``p(Tv)``).  After a
run, every distinct answer the service returned is compared with
``repro.obs.canary.compare_answers``.  A mismatch means a leak or a
wrong answer, so it fails the run; it is not an error-rate event.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List


def expected_answers(inputs: dict) -> Dict[int, Counter]:
    """Request index -> the multiset of answers over the materialized
    view."""
    from repro import derive, materialize, parse_document, parse_dtd
    from repro.core.spec import parse_spec_text
    from repro.obs.canary import oracle_answers

    views = {}
    for ref, document in inputs["documents"].items():
        dtd = parse_dtd(document["dtd"])
        tree = parse_document(document["xml"])
        for policy in document["policies"]:
            spec = parse_spec_text(dtd, policy["spec"], name=policy["name"])
            spec = spec.bind(**policy["params"]) if policy["params"] else spec
            views[(policy["name"], ref)] = materialize(tree, derive(spec), spec)
    return {
        index: oracle_answers(query, views[(policy, ref)])
        for index, (policy, query, ref) in enumerate(inputs["requests"])
    }


def mismatches(expected: Dict[int, Counter], answers: List[list]) -> List[str]:
    """One line per served answer that differs from the oracle.
    ``answers`` holds ``[request index, results, times served]``."""
    from repro.obs.canary import compare_answers

    problems = []
    for index, results, served in answers:
        missing, extra = compare_answers(expected[index], results)
        if missing or extra:
            problems.append(
                "request %d served %d time(s): %d missing, %d extra answers"
                % (index, served, missing, extra)
            )
    return problems
