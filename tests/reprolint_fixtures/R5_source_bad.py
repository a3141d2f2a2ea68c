# reprolint-fixture: path=src/repro/core/demo_sources.py
# A source names its metrics as the keys of the dict it returns; a
# typo there forks the series just as a typo'd counter() name does.
def register(registry, cache, governor):
    def cache_counters():
        stats = cache.stats()
        return {
            "cache.hits": stats.hits,
            "cache.missess": stats.misses,  # [R5]
        }

    registry.add_source(cache_counters)
    registry.add_source(
        lambda: {"slo.inflight": governor.inflight_cost},  # [R5]
        gauges=True,
    )
