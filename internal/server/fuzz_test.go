package server

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/config"
	"repro/internal/fabric"
	"repro/internal/filter"
	"repro/internal/frontend"
)

// FuzzCellRequest throws arbitrary bytes at the /v1/cell gate, which
// decides whether a config from the network may run or fill the store.
// Decoding and the gate must never panic, and any config the gate
// accepts must build: its filter (static excepted, which only
// sim.RunStatic builds) and its instruction prefetcher.
func FuzzCellRequest(f *testing.F) {
	seed := func(mutate func(*config.Config)) []byte {
		cfg := config.Default()
		mutate(&cfg)
		b, err := json.Marshal(fabric.CellRequest{Bench: "mcf", Config: &cfg, Instructions: 1000})
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	f.Add(seed(func(*config.Config) {}))
	f.Add(seed(func(c *config.Config) { c.Filter.TableEntries = 1 << 40 }))
	f.Add(seed(func(c *config.Config) { c.Filter.Kind = "magic" }))
	f.Add(seed(func(c *config.Config) {
		c.Filter.Kind, c.Filter.TournamentA = config.FilterTournament, config.FilterStatic
	}))
	f.Add(seed(func(c *config.Config) { *c = c.WithIPrefetch(config.IPrefetchMANA) }))

	f.Fuzz(func(t *testing.T, data []byte) {
		var req fabric.CellRequest
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) != nil {
			return
		}
		if validateCell(req, 1<<20) != nil {
			return
		}
		cfg := *req.Config
		if cfg.Filter.Kind.Canonical() != config.FilterStatic {
			if _, err := filter.New(cfg.Filter); err != nil {
				t.Fatalf("gate accepted a filter that does not build: %v\n%s", err, data)
			}
		}
		if fe := cfg.Frontend; fe != nil && fe.IPrefetch.Canonical() != config.IPrefetchNone {
			if _, err := frontend.New(fe.IPrefetch, *fe); err != nil {
				t.Fatalf("gate accepted an instruction prefetcher that does not build: %v\n%s", err, data)
			}
		}
	})
}
