"""Canonical query fingerprints (:mod:`repro.xpath.fingerprint`)."""

import pytest

from repro.xpath.ast import Param
from repro.xpath.fingerprint import (
    UNPARSED_SHAPE,
    Fingerprint,
    fingerprint_shape,
    query_fingerprint,
)
from repro.xpath.parser import parse_xpath


class TestShape:
    def test_value_predicates_are_masked(self):
        shape = fingerprint_shape(parse_xpath('//patient[wardNo = "7"]'))
        assert '"7"' not in shape
        assert "$_" in shape

    def test_attribute_value_predicates_are_masked(self):
        shape = fingerprint_shape(parse_xpath('//drug[@name = "aspirin"]'))
        assert "aspirin" not in shape

    def test_parameters_are_masked(self):
        literal = fingerprint_shape(parse_xpath('//patient[wardNo = "7"]'))
        parameterized = fingerprint_shape(
            parse_xpath("//patient[wardNo = $ward]")
        )
        assert literal == parameterized

    def test_structure_is_preserved(self):
        a = fingerprint_shape(parse_xpath("//patient/name"))
        b = fingerprint_shape(parse_xpath("//patient/phone"))
        assert a != b

    def test_boolean_qualifiers_survive(self):
        with_pred = fingerprint_shape(parse_xpath("//patient[name]"))
        without = fingerprint_shape(parse_xpath("//patient"))
        assert with_pred != without


class TestQueryFingerprint:
    def test_same_shape_same_digest(self):
        a = query_fingerprint('//patient[wardNo = "1"]')
        b = query_fingerprint('//patient[wardNo = "7"]')
        assert a == b
        assert a.digest == b.digest
        assert a.shape == b.shape

    def test_different_shape_different_digest(self):
        a = query_fingerprint("//patient/name")
        b = query_fingerprint("//patient")
        assert a != b

    def test_accepts_parsed_ast(self):
        parsed = parse_xpath('//patient[wardNo = "7"]')
        assert query_fingerprint(parsed) == query_fingerprint(
            '//patient[wardNo = "7"]'
        )

    def test_digest_is_stable_across_processes(self):
        # blake2b of the shape text, not Python's salted hash(); this
        # pin catches accidental re-hashing schemes
        from hashlib import blake2b

        fp = query_fingerprint("//patient/name")
        expected = blake2b(
            fp.shape.encode("utf-8"), digest_size=8
        ).hexdigest()
        assert fp.digest == expected
        assert len(fp.digest) == 16
        int(fp.digest, 16)  # hex

    def test_unparseable_query_gets_fallback(self):
        broken = query_fingerprint("//patient[")
        assert broken.shape == UNPARSED_SHAPE
        # distinct broken texts keep distinct digests
        assert broken != query_fingerprint("///")

    def test_too_deep_query_gets_fallback(self):
        """Nesting past the recursive parser's depth raises a
        RecursionError, not a library error; failure accounting
        fingerprints the query anyway."""
        deep = "(" * 5000 + "a" + ")" * 5000
        assert query_fingerprint(deep).shape == UNPARSED_SHAPE

    def test_str_is_digest(self):
        fp = query_fingerprint("//patient")
        assert isinstance(fp, Fingerprint)
        assert str(fp) == fp.digest

    def test_compares_against_plain_strings(self):
        fp = query_fingerprint("//patient")
        assert fp == fp.digest
        assert fp != "not-a-digest"

    def test_hashable_by_digest(self):
        a = query_fingerprint('//patient[wardNo = "1"]')
        b = query_fingerprint('//patient[wardNo = "2"]')
        assert len({a, b}) == 1

    def test_masking_does_not_mutate_the_ast(self):
        parsed = parse_xpath('//patient[wardNo = "7"]')
        before = str(parsed)
        query_fingerprint(parsed)
        assert str(parsed) == before

    def test_union_and_nested_predicates(self):
        shape = fingerprint_shape(
            parse_xpath(
                '//patient[wardNo = "7"]/name | //dept[@id = "x"]//bed'
            )
        )
        assert '"7"' not in shape and '"x"' not in shape

    def test_mask_param_builds_on_ast_param(self):
        # the mask is a Param, so masked shapes stay parseable idiom
        assert str(Param("_")) == "$_"
