// The instruction-prefetcher registry: named, config-constructible
// I-side backends, the counterpart of internal/prefetch's table for the
// D-side generator zoo. Backends are built from a validated
// config.FrontendConfig via New, and the "fetch-directed" alias resolves
// to "nextline" so either spelling builds the same machine.
package frontend

import (
	"repro/internal/config"
	"repro/internal/registry"
)

// Constructor builds one instruction prefetcher from a front-end
// configuration.
type Constructor func(cfg config.FrontendConfig) (Prefetcher, error)

// Registry is every instruction prefetcher by canonical kind. All of
// them can join a sweep, so Registry.Kinds is what "-iprefetch all" and
// the serving layer's iprefetch dimension expand to.
var Registry = registry.New("instruction prefetcher", "backends", map[config.IPrefetchKind]Constructor{
	config.IPrefetchNextLine: func(cfg config.FrontendConfig) (Prefetcher, error) {
		return NewNextLine(cfg.Degree, cfg.L1I.LineBytes)
	},
	config.IPrefetchMANA: func(cfg config.FrontendConfig) (Prefetcher, error) {
		return NewMANA(cfg.ManaRecordsLog2, cfg.ManaRegionLog2, cfg.Degree, cfg.L1I.LineBytes)
	},
})

// New builds the backend kind names from cfg. An unregistered kind
// reports the registered alternatives.
func New(kind config.IPrefetchKind, cfg config.FrontendConfig) (Prefetcher, error) {
	ctor, err := Registry.Lookup(kind)
	if err != nil {
		return nil, err
	}
	return ctor(cfg)
}
