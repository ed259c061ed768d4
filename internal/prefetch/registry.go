// The generator registry: named, config-constructible prefetch
// generators, the D-side counterpart of internal/filter's table for the
// pollution-filter zoo. Generators are built from a validated
// config.PrefetchConfig via New, and aliases ("correlation",
// "ghb-pc-delta") resolve to their canonical kinds so either spelling
// builds the same machine.
package prefetch

import (
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/registry"
)

// Env carries the pieces of the machine a generator may need beyond its
// own tables. Generators that don't use a field ignore it.
type Env struct {
	// L2 is the second-level cache; the shadow-directory generator keeps
	// its per-line state there, exactly where the paper puts it.
	L2 *cache.Cache
}

// Constructor builds one generator from a prefetch configuration.
type Constructor func(cfg config.PrefetchConfig, env Env) (Prefetcher, error)

// Registry is every generator by canonical kind.
var Registry = registry.New("generator", "generators", map[config.PrefetchKind]Constructor{
	config.PrefetchNSP: func(cfg config.PrefetchConfig, _ Env) (Prefetcher, error) {
		return NewNSP(cfg.Degree)
	},
	config.PrefetchSDP: func(_ config.PrefetchConfig, env Env) (Prefetcher, error) {
		return NewSDP(env.L2)
	},
	config.PrefetchStride: func(cfg config.PrefetchConfig, _ Env) (Prefetcher, error) {
		return NewStride(cfg.StrideEntries)
	},
	config.PrefetchCorrelation: func(cfg config.PrefetchConfig, _ Env) (Prefetcher, error) {
		return NewCorrelation(cfg.CorrelationSets, cfg.CorrelationAssoc)
	},
	config.PrefetchBerti: func(cfg config.PrefetchConfig, _ Env) (Prefetcher, error) {
		return NewBerti(cfg.BertiHistoryLog2, cfg.BertiLatencyLog2, cfg.BertiShadowLog2)
	},
	config.PrefetchGHB: func(cfg config.PrefetchConfig, _ Env) (Prefetcher, error) {
		return NewGHB(cfg.GHBLog2, cfg.GHBIndexLog2, cfg.GHBMaxDegree)
	},
})

// New builds the generator kind names from cfg. An unregistered kind
// reports the registered alternatives.
func New(kind config.PrefetchKind, cfg config.PrefetchConfig, env Env) (Prefetcher, error) {
	ctor, err := Registry.Lookup(kind)
	if err != nil {
		return nil, err
	}
	return ctor(cfg, env)
}

// Sweepable returns the kinds that can run end-to-end in one pass — for
// generators that is all of them. This is the list "-generators all" and
// the serving layer's generators dimension expand to.
func Sweepable() []string { return Registry.Kinds() }
