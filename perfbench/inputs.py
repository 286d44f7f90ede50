"""Seeded inputs for the three benchmark workloads.

Everything the program receives is generated here as plain text: DTD
text, access-specification text (the ``parent child annotation``
format of ``repro.core.spec.parse_spec_text``), XML document text, and
view queries.  This module imports nothing from the program, so a
change to the program's own workload helpers can never change what the
benchmark measures.

Document *shapes* (element counts, category mix) are fixed per
workload and only the values and orders vary with the seed, so two
seeds cost the same amount of work and a held-out seed is a fair
recheck.  Request streams are stratified: every block holds each
distinct request in fixed proportions, shuffled within the block, so a
run of any length sees the workload's mix.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

HOSPITAL_DTD = """
<!ELEMENT hospital (dept*)>
<!ELEMENT dept (clinicalTrial, patientInfo, staffInfo)>
<!ELEMENT clinicalTrial (patientInfo)>
<!ELEMENT patientInfo (patient*)>
<!ELEMENT patient (name, wardNo, treatment)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT wardNo (#PCDATA)>
<!ELEMENT treatment (trial | regular)>
<!ELEMENT trial (bill)>
<!ELEMENT regular (bill, medication)>
<!ELEMENT bill (#PCDATA)>
<!ELEMENT medication (#PCDATA)>
<!ELEMENT staffInfo (staff*)>
<!ELEMENT staff (doctor | nurse)>
<!ELEMENT doctor (#PCDATA)>
<!ELEMENT nurse (#PCDATA)>
"""

NURSE_SPEC = """
hospital dept [*/patient/wardNo = $wardNo]
dept clinicalTrial N
clinicalTrial patientInfo Y
treatment trial N
treatment regular N
trial bill Y
regular bill Y
regular medication Y
"""

DOCTOR_SPEC = """
dept staffInfo N
"""

ADEX_DTD = """
<!ELEMENT adex (head, body)>
<!ELEMENT head (buyer-info*)>
<!ELEMENT buyer-info (company-id, contact-info)>
<!ELEMENT company-id (#PCDATA)>
<!ELEMENT contact-info (person-name, street, city, phone)>
<!ELEMENT person-name (#PCDATA)>
<!ELEMENT street (#PCDATA)>
<!ELEMENT city (#PCDATA)>
<!ELEMENT phone (#PCDATA)>
<!ELEMENT body (ad-instance*)>
<!ELEMENT ad-instance (real-estate | employment | automotive)>
<!ELEMENT employment (job-title, salary)>
<!ELEMENT job-title (#PCDATA)>
<!ELEMENT salary (#PCDATA)>
<!ELEMENT automotive (make, model, auto-price)>
<!ELEMENT make (#PCDATA)>
<!ELEMENT model (#PCDATA)>
<!ELEMENT auto-price (#PCDATA)>
<!ELEMENT real-estate (house | apartment)>
<!ELEMENT house (r-e.asking-price, r-e.unit-type, r-e.warranty, r-e.location)>
<!ELEMENT apartment (r-e.asking-price, r-e.unit-type, r-e.rent, r-e.location)>
<!ELEMENT r-e.asking-price (#PCDATA)>
<!ELEMENT r-e.unit-type (#PCDATA)>
<!ELEMENT r-e.warranty (#PCDATA)>
<!ELEMENT r-e.rent (#PCDATA)>
<!ELEMENT r-e.location (#PCDATA)>
"""

#: The paper's Section 6 policy: children of the root hidden, the
#: real-estate and buyer-info subtrees visible.
BUYER_SPEC = """
adex head N
adex body N
head buyer-info Y
ad-instance real-estate Y
"""

#: The seven hospital view queries ``repro replay`` sends.
HOSPITAL_QUERIES = (
    "//patient/name",
    "//patient//bill",
    "//patient[treatment/dummy2]/name",
    "dept/patientInfo/patient/name",
    "//staffInfo/staff/*",
    "//dept//patientInfo/patient/name",
    "//dept/patientInfo/patient/name",
)

#: The paper's Adex Q1-Q4, posed as the buyer.
ADEX_QUERIES = (
    "//buyer-info/contact-info",
    "//house/r-e.warranty | //apartment/r-e.warranty",
    "//buyer-info[//company-id and //contact-info]",
    "//real-estate[house/r-e.asking-price and apartment/r-e.unit-type]",
)

#: ``text()``-returning scans for ``scan_churn``: answers are strings,
#: so view projection never runs.
SCAN_QUERIES = (
    "//house/r-e.asking-price/text()",
    "//real-estate//r-e.location/text()",
    "//apartment/r-e.rent/text()",
    "//buyer-info/company-id/text()",
)
TYPED_SCAN = '//house[r-e.unit-type = "%s"]/r-e.asking-price/text()'
POINT_LOOKUPS = (
    '//buyer-info[company-id = "%s"]/contact-info/phone/text()',
    '//buyer-info[company-id = "%s"]/contact-info/city/text()',
)

UNIT_TYPES = ("condo", "duplex", "studio", "loft")
WARRANTIES = ("1y", "2y", "5y", "none")
COMPANY_IDS = tuple(str(1000 + index) for index in range(200))

#: Fixed document shapes: (buyers, ads) for Adex, as in the program's
#: standard catalog (~2.3k nodes) and its D3 dataset (~43k nodes).
ADEX_SMALL = (50, 200)
ADEX_D3 = (930, 3700)

#: Hospital shape per department: trial patients, regular patients,
#: staff members (three departments, ~150 nodes).
HOSPITAL_DEPTS = 3
HOSPITAL_SHAPE = (2, 2, 1)

#: scan_churn: one write (``engine.invalidate()``) every WRITE_EVERY
#: operations; each window of WRITE_EVERY - 1 queries holds every scan
#: SCAN_REPEAT times, TYPED_PER_WINDOW typed scans, and point lookups
#: for the rest, drawn from HOT_IDS seeded company ids.
WRITE_EVERY = 50
SCAN_REPEAT = 4
TYPED_PER_WINDOW = 5
HOT_IDS = 10

#: The marker the request stream uses for a write operation.
WRITE = -1

_SYLLABLES = ("an", "bel", "cor", "da", "el", "fin", "gor", "hal", "is",
              "jun", "ka", "lor", "mi", "nor", "os", "per", "ri", "sa",
              "tu", "val")
_CITIES = ("Aberdeen", "Bristol", "Cardiff", "Dundee", "Exeter", "Fife",
           "Glasgow", "Hull", "Inverness", "Leeds")


def _word(rng: random.Random, syllables: int = 3) -> str:
    return "".join(rng.choice(_SYLLABLES) for _ in range(syllables))


def _digits(rng: random.Random, count: int) -> str:
    return "".join(rng.choice("0123456789") for _ in range(count))


def _shuffled(rng: random.Random, items: List) -> List:
    items = list(items)
    rng.shuffle(items)
    return items


def hospital_xml(seed: int) -> str:
    """A hospital document of fixed shape; ward numbers, treatments
    and names vary with ``seed``.  Exactly two departments hold a
    ward-2 patient, so the nurse view's size is seed-independent."""
    rng = random.Random("hospital-%d" % seed)
    trials, regulars, staff = HOSPITAL_SHAPE
    patients = HOSPITAL_DEPTS * (trials + regulars)
    kinds = _shuffled(rng, ["trial", "regular"] * (patients // 2 + 1))
    ward_two = _shuffled(rng, [True, True] + [False] * (HOSPITAL_DEPTS - 2))

    def patient(ward: str) -> str:
        kind = kinds.pop()
        bill = "<bill>%s</bill>" % _digits(rng, 4)
        if kind == "trial":
            treatment = "<trial>%s</trial>" % bill
        else:
            treatment = "<regular>%s<medication>%s</medication></regular>" % (
                bill,
                _word(rng, 2),
            )
        return (
            "<patient><name>%s</name><wardNo>%s</wardNo>"
            "<treatment>%s</treatment></patient>"
            % (_word(rng), ward, treatment)
        )

    def other_ward() -> str:
        return rng.choice(("1", "3", "4"))

    parts = ["<hospital>"]
    for has_ward_two in ward_two:
        wards = [other_ward() for _ in range(regulars)]
        if has_ward_two:
            wards[rng.randrange(regulars)] = "2"
        parts.append("<dept><clinicalTrial><patientInfo>")
        parts.extend(patient(other_ward()) for _ in range(trials))
        parts.append("</patientInfo></clinicalTrial><patientInfo>")
        parts.extend(patient(ward) for ward in wards)
        parts.append("</patientInfo><staffInfo>")
        for role in _shuffled(rng, ["doctor", "nurse"] * staff)[:staff]:
            parts.append("<staff><%s>%s</%s></staff>" % (role, _word(rng), role))
        parts.append("</staffInfo></dept>")
    parts.append("</hospital>")
    return "".join(parts)


def adex_xml(seed: int, buyers: int, ads: int) -> Tuple[str, List[str]]:
    """An Adex document with exactly ``buyers`` buyers and ``ads`` ads
    (a third each real estate, employment and automotive; real estate
    split evenly into houses and apartments).  Returns the XML text and
    the company ids in document order."""
    rng = random.Random("adex-%d-%d-%d" % (seed, buyers, ads))
    ids = _shuffled(rng, [COMPANY_IDS[i % len(COMPANY_IDS)] for i in range(buyers)])
    parts = ["<adex><head>"]
    for company in ids:
        parts.append(
            "<buyer-info><company-id>%s</company-id><contact-info>"
            "<person-name>%s %s</person-name><street>%d %s St</street>"
            "<city>%s</city><phone>%s</phone></contact-info></buyer-info>"
            % (
                company,
                _word(rng, 2).title(),
                _word(rng).title(),
                rng.randrange(1, 400),
                _word(rng, 2).title(),
                rng.choice(_CITIES),
                _digits(rng, 10),
            )
        )
    parts.append("</head><body>")
    categories = _shuffled(
        rng, (["house", "apartment", "employment", "employment",
               "automotive", "automotive"] * (ads // 6 + 1))[:ads]
    )
    for category in categories:
        parts.append("<ad-instance>")
        if category in ("house", "apartment"):
            extra = (
                "<r-e.warranty>%s</r-e.warranty>" % rng.choice(WARRANTIES)
                if category == "house"
                else "<r-e.rent>%d</r-e.rent>" % rng.randrange(400, 4000)
            )
            parts.append(
                "<real-estate><%s><r-e.asking-price>%d</r-e.asking-price>"
                "<r-e.unit-type>%s</r-e.unit-type>%s"
                "<r-e.location>%s</r-e.location></%s></real-estate>"
                % (
                    category,
                    rng.randrange(50, 900) * 1000,
                    rng.choice(UNIT_TYPES),
                    extra,
                    rng.choice(_CITIES),
                    category,
                )
            )
        elif category == "employment":
            parts.append(
                "<employment><job-title>%s</job-title><salary>%d</salary>"
                "</employment>" % (_word(rng).title(), rng.randrange(20, 200) * 1000)
            )
        else:
            parts.append(
                "<automotive><make>%s</make><model>%s</model>"
                "<auto-price>%d</auto-price></automotive>"
                % (_word(rng, 2).title(), _word(rng, 2).upper(),
                   rng.randrange(2, 90) * 1000)
            )
        parts.append("</ad-instance>")
    parts.append("</body></adex>")
    return "".join(parts), ids


def _hospital_document(seed: int) -> dict:
    return {
        "dtd": HOSPITAL_DTD,
        "xml": hospital_xml(seed),
        "policies": [
            {"name": "nurse", "spec": NURSE_SPEC, "params": {"wardNo": "2"}},
            {"name": "doctor", "spec": DOCTOR_SPEC, "params": {}},
        ],
    }


def _adex_document(xml: str) -> dict:
    return {
        "dtd": ADEX_DTD,
        "xml": xml,
        "policies": [
            {"name": "real-estate-buyer", "spec": BUYER_SPEC, "params": {}},
        ],
    }


def _block_stream(rng: random.Random, block: List[int], blocks: int) -> List[int]:
    stream: List[int] = []
    for _ in range(blocks):
        stream.extend(_shuffled(rng, block))
    return stream


def build(workload: str, seed: int) -> dict:
    """The inputs of one workload run.

    Returns ``documents`` (ref -> DTD text, XML text, policies),
    ``requests`` (the distinct ``[policy, query, document ref]``
    triples), and ``stream`` (indices into ``requests``, with
    :data:`WRITE` marking a write), long enough for a minute of the
    fastest workload; clients wrap around if they reach its end.
    """
    rng = random.Random("%s-stream-%d" % (workload, seed))
    documents: Dict[str, dict] = {}
    requests: List[List[str]] = []
    if workload in ("replay_mix", "http_small"):
        documents["hospital"] = _hospital_document(seed)
        for query in HOSPITAL_QUERIES:
            for policy in ("nurse", "doctor"):
                requests.append([policy, query, "hospital"])
    if workload == "replay_mix":
        xml, _ = adex_xml(seed, *ADEX_SMALL)
        documents["adex"] = _adex_document(xml)
        for query in ADEX_QUERIES:
            requests.append(["real-estate-buyer", query, "adex"])
        stream = _block_stream(rng, list(range(len(requests))), 300)
    elif workload == "http_small":
        stream = _block_stream(rng, list(range(len(requests))), 3000)
    elif workload == "scan_churn":
        xml, ids = adex_xml(seed, *ADEX_D3)
        documents["adex"] = _adex_document(xml)
        policy = "real-estate-buyer"
        for query in SCAN_QUERIES:
            requests.append([policy, query, "adex"])
        scans = list(range(len(requests)))
        typed = []
        for unit in UNIT_TYPES:
            typed.append(len(requests))
            requests.append([policy, TYPED_SCAN % unit, "adex"])
        hot = rng.sample(sorted(set(ids)), HOT_IDS)
        points = []
        for company in hot:
            for template in POINT_LOOKUPS:
                points.append(len(requests))
                requests.append([policy, template % company, "adex"])
        queries_per_window = WRITE_EVERY - 1
        lookups = queries_per_window - SCAN_REPEAT * len(scans) - TYPED_PER_WINDOW
        stream = []
        for _ in range(200):
            window = scans * SCAN_REPEAT
            window += [rng.choice(typed) for _ in range(TYPED_PER_WINDOW)]
            window += [rng.choice(points) for _ in range(lookups)]
            stream.extend(_shuffled(rng, window))
            stream.append(WRITE)
    else:
        raise ValueError("unknown workload %r" % (workload,))
    return {
        "workload": workload,
        "seed": seed,
        "documents": documents,
        "requests": requests,
        "stream": stream,
    }
