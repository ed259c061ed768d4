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
// a validated config.FilterConfig via New; the registry is open so tests
// and downstream code can add experimental backends.
package filter

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/config"
	"repro/internal/core"
)

// Predictor is the side-effect-free probe a backend must answer to take
// part in a tournament: the decision Allow would make for req, without
// perturbing any statistics.
type Predictor interface {
	Predict(req core.Request) bool
}

// Constructor builds one backend from a validated filter configuration.
type Constructor func(cfg config.FilterConfig) (core.Filter, error)

var (
	regMu    sync.RWMutex
	registry = map[config.FilterKind]Constructor{}
)

// Register adds (or replaces) a backend constructor under kind. The
// canonical form of the kind is registered, so aliases resolve to the
// same constructor.
func Register(kind config.FilterKind, ctor Constructor) {
	if ctor == nil {
		panic("filter: nil constructor")
	}
	regMu.Lock()
	defer regMu.Unlock()
	registry[kind.Canonical()] = ctor
}

// Registered reports whether kind (or its canonical form) has a
// registered constructor.
func Registered(kind config.FilterKind) bool {
	regMu.RLock()
	defer regMu.RUnlock()
	_, ok := registry[kind.Canonical()]
	return ok
}

// Kinds returns every registered backend kind, sorted. Aliases
// (table-pa, table-pc) are not listed; they resolve to their canonical
// kinds.
func Kinds() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	//pflint:allow determinism/maprange key collection; the result is sorted below
	for k := range registry {
		out = append(out, string(k))
	}
	sort.Strings(out)
	return out
}

// New builds the backend cfg names. The config is validated first; an
// unregistered kind reports the registered alternatives.
func New(cfg config.FilterConfig) (core.Filter, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	regMu.RLock()
	ctor, ok := registry[cfg.Kind.Canonical()]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("filter: no registered backend for kind %q (registered: %v)", cfg.Kind, Kinds())
	}
	return ctor(cfg)
}

func init() {
	// The paper baselines are the internal/core tables, the exact code
	// (and therefore the exact simulated behaviour) the figure
	// experiments always used.
	Register(config.FilterNone, func(config.FilterConfig) (core.Filter, error) {
		return core.NewNull(), nil
	})
	Register(config.FilterPA, func(cfg config.FilterConfig) (core.Filter, error) {
		return core.NewPA(cfg.TableEntries, cfg.InitialCounter, cfg.Threshold, core.IndexDirect)
	})
	Register(config.FilterPC, func(cfg config.FilterConfig) (core.Filter, error) {
		return core.NewPC(cfg.TableEntries, cfg.InitialCounter, cfg.Threshold, core.IndexDirect)
	})
	Register(config.FilterAdaptive, func(cfg config.FilterConfig) (core.Filter, error) {
		inner, err := core.NewPA(cfg.TableEntries, cfg.InitialCounter, cfg.Threshold, core.IndexDirect)
		if err != nil {
			return nil, err
		}
		return core.NewAdaptive(inner, cfg.AdaptiveAccuracy, cfg.AdaptiveWindow), nil
	})
	// The dead-block gate lives in the cache hierarchy (it needs the L1's
	// victim state); its core filter slot is pass-through, exactly as
	// sim.Run has always wired it.
	Register(config.FilterDeadBlock, func(config.FilterConfig) (core.Filter, error) {
		return core.NewNull(), nil
	})
	Register(config.FilterStatic, func(config.FilterConfig) (core.Filter, error) {
		return nil, fmt.Errorf("filter: static filter requires a profiling run; use sim.RunStatic")
	})
	Register(config.FilterPerceptron, func(cfg config.FilterConfig) (core.Filter, error) {
		return NewPerceptron(cfg.PerceptronEntries, cfg.PerceptronTheta)
	})
	Register(config.FilterBloom, func(cfg config.FilterConfig) (core.Filter, error) {
		return NewBloom(cfg.BloomEntries, cfg.BloomHashes, cfg.BloomReject, cfg.BloomDecay)
	})
	Register(config.FilterTournament, newTournamentFromConfig)
}

// Sweepable returns the registered kinds that can run end-to-end in one
// pass — everything except the static filter, which needs a separate
// profiling run. This is the backend list "-filters all" and the serving
// layer's filters dimension expand to.
func Sweepable() []string {
	out := Kinds()
	trimmed := out[:0]
	for _, k := range out {
		if k == string(config.FilterStatic) {
			continue
		}
		trimmed = append(trimmed, k)
	}
	return trimmed
}
