"""Unit tests for :class:`repro.robustness.DegradationPolicy`."""

from repro.robustness import DegradationPolicy, SEAM_FALLBACKS
from repro.robustness.faults import SITES


class TestDefaults:
    def test_default_allows_every_known_seam(self):
        policy = DegradationPolicy()
        for seam in SEAM_FALLBACKS:
            assert policy.allows(seam)

    def test_strict_allows_none(self):
        policy = DegradationPolicy(strict=True)
        for seam in SEAM_FALLBACKS:
            assert not policy.allows(seam)

    def test_unknown_seam_never_degrades(self):
        assert not DegradationPolicy().allows("network.retry")
        assert not DegradationPolicy(strict=True).allows("network.retry")


class TestOverrides:
    def test_strict_with_store_build_carveout(self):
        policy = DegradationPolicy(strict=True, store_build=True)
        assert policy.allows("store.build")
        assert not policy.allows("plan_cache.get")
        assert not policy.allows("plan_cache.put")

    def test_disable_one_seam(self):
        policy = DegradationPolicy(store_build=False)
        assert not policy.allows("store.build")
        assert policy.allows("plan_cache.get")

    def test_plan_cache_controls_both_directions(self):
        policy = DegradationPolicy(plan_cache=False)
        assert not policy.allows("plan_cache.get")
        assert not policy.allows("plan_cache.put")


class TestFallbacks:
    def test_fallback_labels(self):
        policy = DegradationPolicy()
        assert policy.fallback("store.build") == "object-backend"
        assert policy.fallback("plan_cache.get") == "uncached-compile"
        assert policy.fallback("plan_cache.put") == "uncached-compile"
        assert policy.fallback("mystery") == "none"

    def test_every_degradable_site_has_a_fallback(self):
        # "materialize" is a fault-injection site but not a degradable
        # seam: there is no softer path for producing the view itself.
        for seam in SEAM_FALLBACKS:
            assert seam in SITES

    def test_repr_lists_degrading_seams(self):
        assert "store.build" in repr(DegradationPolicy())
        assert repr(DegradationPolicy(strict=True)) == (
            "DegradationPolicy(allows=[])"
        )
