"""Canonical query fingerprints: the *shape* of an XPath query.

Workload analytics (see :mod:`repro.obs.workload`) needs to group
queries by structure, not by text: ``//patient[wardNo = "1"]`` and
``//patient[wardNo = "7"]`` are the same query shape with different
constants, and a view-selection policy should see them as one heavy
hitter, not two singletons.  A :class:`Fingerprint` is therefore
computed from the **normalized AST**: every comparison constant (and
every still-unbound ``$parameter``) is masked to the placeholder
``$_`` and the masked tree is serialized through the AST's canonical
``str()`` form — the same serialization the plan cache keys on, so
structurally equal queries always share one shape string.

The digest is a stable 64-bit BLAKE2b hex string of the shape, so
fingerprints computed in different processes (a serving fleet, an
offline log aggregator) agree.  Python's own ``hash()`` is
per-process-salted and deliberately not used.

The engine computes the fingerprint once at plan-compile time and
stores it on the :class:`~repro.core.plancache.CompiledQuery`, so the
serving hot path pays a plan-cache dict lookup — never a re-parse.
"""

from __future__ import annotations

from hashlib import blake2b
from typing import Union as TypingUnion

from repro.xpath.ast import (
    Absolute,
    Descendant,
    Empty,
    EpsilonPath,
    Label,
    Param,
    Parent,
    Path,
    QAnd,
    QAttr,
    QAttrEquals,
    QBool,
    QEquals,
    QNot,
    QOr,
    QPath,
    Qualified,
    Qualifier,
    Slash,
    TextStep,
    Union,
    Wildcard,
)

__all__ = ["Fingerprint", "query_fingerprint", "fingerprint_shape"]

#: The placeholder every comparison constant normalizes to.
_MASK = Param("_")

#: Shape used when a query string cannot be parsed at all (the error
#: accounting path still wants a stable bucket for it).
UNPARSED_SHAPE = "!unparsed"


class Fingerprint:
    """One query shape: the masked canonical serialization plus its
    stable hex digest.  ``str()`` (and equality/hashing) use the
    digest, so a fingerprint drops into event fields, metric labels,
    and dict keys as a short opaque id."""

    __slots__ = ("digest", "shape")

    def __init__(self, digest: str, shape: str):
        self.digest = digest
        self.shape = shape

    def __str__(self) -> str:
        return self.digest

    def __eq__(self, other):
        if isinstance(other, Fingerprint):
            return self.digest == other.digest
        if isinstance(other, str):
            return self.digest == other
        return NotImplemented

    def __hash__(self):
        return hash(self.digest)

    def __repr__(self):
        return "Fingerprint(%s, %r)" % (self.digest, self.shape)


def _digest(shape: str) -> str:
    return blake2b(shape.encode("utf-8"), digest_size=8).hexdigest()


def _mask_path(path: Path) -> Path:
    if isinstance(
        path, (Empty, EpsilonPath, Label, Wildcard, TextStep, Parent)
    ):
        return path
    if isinstance(path, Slash):
        return Slash(_mask_path(path.left), _mask_path(path.right))
    if isinstance(path, Descendant):
        return Descendant(_mask_path(path.inner))
    if isinstance(path, Union):
        return Union([_mask_path(branch) for branch in path.branches])
    if isinstance(path, Qualified):
        return Qualified(
            _mask_path(path.path), _mask_qualifier(path.qualifier)
        )
    if isinstance(path, Absolute):
        return Absolute(_mask_path(path.inner))
    raise TypeError("unknown path node %r" % path)


def _mask_qualifier(qualifier: Qualifier) -> Qualifier:
    if isinstance(qualifier, QBool):
        return qualifier
    if isinstance(qualifier, QPath):
        return QPath(_mask_path(qualifier.path))
    if isinstance(qualifier, QEquals):
        return QEquals(_mask_path(qualifier.path), _MASK)
    if isinstance(qualifier, QAttr):
        return QAttr(qualifier.name, _mask_path(qualifier.path))
    if isinstance(qualifier, QAttrEquals):
        return QAttrEquals(qualifier.name, _MASK, _mask_path(qualifier.path))
    if isinstance(qualifier, QAnd):
        return QAnd(
            _mask_qualifier(qualifier.left), _mask_qualifier(qualifier.right)
        )
    if isinstance(qualifier, QOr):
        return QOr(
            _mask_qualifier(qualifier.left), _mask_qualifier(qualifier.right)
        )
    if isinstance(qualifier, QNot):
        return QNot(_mask_qualifier(qualifier.inner))
    raise TypeError("unknown qualifier node %r" % qualifier)


def fingerprint_shape(path: Path) -> str:
    """The canonical constant-masked serialization of a parsed query."""
    return str(_mask_path(path))


def query_fingerprint(query: TypingUnion[str, Path]) -> Fingerprint:
    """The :class:`Fingerprint` of a query (string or parsed AST).

    Strings are parsed first; a string that fails to parse (with any
    exception) still gets a deterministic fingerprint (shape
    :data:`UNPARSED_SHAPE` plus the digest of the raw text), so error
    accounting can bucket malformed queries without raising from the
    accounting path itself.
    """
    if isinstance(query, str):
        from repro.xpath.parser import parse_xpath

        try:
            return query_fingerprint(parse_xpath(query))
        except Exception:
            return Fingerprint(_digest("!unparsed:" + query), UNPARSED_SHAPE)
    shape = fingerprint_shape(query)
    return Fingerprint(_digest(shape), shape)
