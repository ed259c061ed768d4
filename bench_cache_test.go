package repro_test

import (
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/xrand"
)

// newCacheForBench builds an L1 model for the cache micro-benchmark.
func newCacheForBench(cfg config.CacheConfig) (*cache.L1, error) {
	return cache.New[cache.L1Line](cfg, xrand.New(2))
}
