// Package filter is the pollution-filter zoo: a registry of named,
// config-constructible backends implementing core.Filter.
//
// The paper's contribution is one point in a much larger design space of
// prefetch-pollution filters. This package makes the mechanism pluggable:
//
//   - the paper's PA/PC 2-bit history tables (internal/core), wrapped as
//     the baseline backends and bit-identical to driving core directly;
//   - a hashed-perceptron filter (perceptron.go) after "Data Cache
//     Prefetching with Perceptron Learning" (arXiv:1712.00905);
//   - a counting-Bloom rejection filter with periodic decay (bloom.go);
//   - a tournament selector that set-duels two backends with a PSEL
//     counter (tournament.go).
//
// Every backend trains on the same eviction-time RIB signal the paper
// uses (core.Feedback), so a head-to-head comparison isolates the
// prediction structure, not the training oracle. Backends are built from
// a validated config.FilterConfig via New; Registry is the closed table
// of backends.
package filter

import (
	"fmt"
	"slices"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/registry"
)

// Predictor is the side-effect-free probe a backend must answer to take
// part in a tournament: the decision Allow would make for req, without
// perturbing any statistics.
type Predictor interface {
	Predict(req core.Request) bool
}

// Constructor builds one backend from a validated filter configuration.
type Constructor func(cfg config.FilterConfig) (core.Filter, error)

// Registry is every filter backend by canonical kind. Aliases (table-pa,
// table-pc) resolve to their canonical kinds.
var Registry *registry.Table[config.FilterKind, Constructor]

// New builds the backend cfg names. The config is validated first; an
// unregistered kind reports the registered alternatives.
func New(cfg config.FilterConfig) (core.Filter, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ctor, err := Registry.Lookup(cfg.Kind)
	if err != nil {
		return nil, err
	}
	return ctor(cfg)
}

// The table is built in init, not in Registry's declaration: the
// tournament constructor calls New, which reads Registry.
func init() {
	Registry = registry.New("filter", "backends", map[config.FilterKind]Constructor{
		// The paper baselines are the internal/core tables, the exact code
		// (and therefore the exact simulated behaviour) the figure
		// experiments always used.
		config.FilterNone: func(config.FilterConfig) (core.Filter, error) {
			return core.NewNull(), nil
		},
		config.FilterPA: func(cfg config.FilterConfig) (core.Filter, error) {
			return core.NewPA(cfg.TableEntries, cfg.InitialCounter, cfg.Threshold, core.IndexDirect)
		},
		config.FilterPC: func(cfg config.FilterConfig) (core.Filter, error) {
			return core.NewPC(cfg.TableEntries, cfg.InitialCounter, cfg.Threshold, core.IndexDirect)
		},
		config.FilterAdaptive: func(cfg config.FilterConfig) (core.Filter, error) {
			inner, err := core.NewPA(cfg.TableEntries, cfg.InitialCounter, cfg.Threshold, core.IndexDirect)
			if err != nil {
				return nil, err
			}
			return core.NewAdaptive(inner, cfg.AdaptiveAccuracy, cfg.AdaptiveWindow), nil
		},
		// The dead-block gate lives in the cache hierarchy (it needs the L1's
		// victim state); its core filter slot is pass-through, exactly as
		// sim.Run has always wired it.
		config.FilterDeadBlock: func(config.FilterConfig) (core.Filter, error) {
			return core.NewNull(), nil
		},
		config.FilterStatic: func(config.FilterConfig) (core.Filter, error) {
			return nil, fmt.Errorf("filter: static filter requires a profiling run; use sim.RunStatic")
		},
		config.FilterPerceptron: func(cfg config.FilterConfig) (core.Filter, error) {
			return NewPerceptron(cfg.PerceptronEntries, cfg.PerceptronTheta)
		},
		config.FilterBloom: func(cfg config.FilterConfig) (core.Filter, error) {
			return NewBloom(cfg.BloomEntries, cfg.BloomHashes, cfg.BloomReject, cfg.BloomDecay)
		},
		config.FilterTournament: newTournamentFromConfig,
	})
}

// Sweepable returns the registered kinds that can run end-to-end in one
// pass — everything except the static filter, which needs a separate
// profiling run. This is the backend list "-filters all" and the serving
// layer's filters dimension expand to.
func Sweepable() []string {
	return slices.DeleteFunc(Registry.Kinds(), func(k string) bool { return k == string(config.FilterStatic) })
}
