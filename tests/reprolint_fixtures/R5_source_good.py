# reprolint-fixture: path=src/repro/core/demo_sources.py
# Declared keys pass; keys built at run time and sources defined
# elsewhere are left to add_source's own check at registration.
def register(registry, cache, governor, elsewhere, name):
    def cache_counters():
        stats = cache.stats()
        return {"cache.hits": stats.hits, "cache.misses": stats.misses}

    registry.add_source(cache_counters)
    registry.add_source(
        lambda: {"slo.inflight_cost": governor.inflight_cost}, gauges=True
    )
    registry.add_source(lambda: {name: 1})
    registry.add_source(elsewhere)
