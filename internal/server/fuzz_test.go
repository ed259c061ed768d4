package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/config"
	"repro/internal/fabric"
	"repro/internal/filter"
	"repro/internal/frontend"
	"repro/internal/sim"
)

// FuzzCellRequest throws arbitrary bytes at the /v1/cell gate, which
// decides whether a config from the network may run or fill the store.
// Decoding and the gate must never panic, and any config the gate
// accepts must build: its filter and its instruction prefetcher.
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
	f.Add(seed(func(c *config.Config) { *c = c.WithFilter(config.FilterStatic) }))
	f.Add(seed(func(c *config.Config) {
		c.Filter.Kind, c.Filter.TournamentA = config.FilterTournament, config.FilterStatic
	}))
	f.Add(seed(func(c *config.Config) { *c = c.WithIPrefetch(config.IPrefetchMANA) }))
	s := New(Config{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var req fabric.CellRequest
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) != nil {
			return
		}
		p := s.paramsFor(req.Instructions, req.Warmup, req.Seed)
		if validateCell(req, &p, 1<<20) != nil {
			return
		}
		cfg := *req.Config
		if _, err := filter.New(cfg.Filter); err != nil {
			t.Fatalf("gate accepted a filter that does not build: %v\n%s", err, data)
		}
		if fe := cfg.Frontend; fe != nil && fe.IPrefetch.Canonical() != config.IPrefetchNone {
			if _, err := frontend.New(fe.IPrefetch, *fe); err != nil {
				t.Fatalf("gate accepted an instruction prefetcher that does not build: %v\n%s", err, data)
			}
		}
	})
}

// FuzzRunRequest throws arbitrary bytes at the /v1/run gate: the strict
// body decode and expandRun. Neither may panic, and a request the gate
// accepts must run a config sim.Validate accepts, under a budget the
// cap bounds: no negative warmup, and no more than the cap in
// instructions and warmup together.
func FuzzRunRequest(f *testing.F) {
	for _, body := range []string{
		`{"benchmark":"mcf"}`,
		`{"benchmark":"mcf","filter":"pa","cache_kb":32,"table_entries":1024,"l1_ports":4,"prefetch_buffer":true}`,
		`{"benchmark":"gzip","instructions":500000,"warmup":0,"seed":3}`,
		`{"benchmark":"mcf","warmup":-5}`,
		`{"benchmark":"mcf","instructions":1000,"warmup":1000000000000000}`,
		`{"benchmark":"mcf","instructions":9223372036854775807,"warmup":9223372036854775807}`,
		`{"benchmark":"mcf","instructions":-9223372036854775808,"warmup":16000000}`,
		`{"benchmark":"mcf","filter":"static"}`,
		`{"benchmark":"mcf","table_entries":1099511627776}`,
	} {
		f.Add([]byte(body))
	}
	const maxInstructions = 1 << 24
	s := New(Config{MaxInstructions: maxInstructions})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(data))
		var req RunRequest
		if _, err := decodeJSON(httptest.NewRecorder(), r, &req); err != nil {
			return
		}
		p, cells, err := s.expandRun(req)
		if err != nil {
			return
		}
		if len(cells) != 1 {
			t.Fatalf("run expanded to %d cells\n%s", len(cells), data)
		}
		if err := sim.Validate(cells[0].Config); err != nil {
			t.Fatalf("run accepted cell %s that fails validation: %v\n%s", cells[0].Name(), err, data)
		}
		if p.Warmup < 0 || p.Instructions <= 0 || uint64(p.Instructions)+uint64(p.Warmup) > maxInstructions {
			t.Fatalf("run accepted %d instructions + %d warmup under the cap %d\n%s", p.Instructions, p.Warmup, maxInstructions, data)
		}
	})
}

// FuzzSweepRequest throws arbitrary bytes at the /v1/sweep body decode
// and its expansion into cells, the steps handleSweep takes before
// anything runs. Neither may panic, and every cell an accepted request
// expands to must pass sim.Validate.
func FuzzSweepRequest(f *testing.F) {
	for _, body := range []string{
		`{}`,
		`{"benchmarks":["mcf","gzip"],"filters":["none","pa"],"instructions":500000,"seed":1}`,
		`{"benchmarks":["mcf"],"generators":["all"],"filters":["all"],"cache_kb":16}`,
		`{"benchmarks":["gcc"],"iprefetch":["all"],"filters":["pa","perceptron"],"cache_kb":32}`,
		`{"standard":true,"benchmarks":["mcf"]}`,
		`{"standard":true,"generators":["nsp"]}`,
		`{"traces":["all"],"filters":["PA","pa"]}`,
		`{"benchmarks":["mcf"],"filters":["static"],"cache_kb":64}`,
		`{"benchmarks":["mcf"],"generators":["nsp"],"iprefetch":["mana"]}`,
	} {
		f.Add([]byte(body))
	}
	s := New(Config{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(data))
		var req SweepRequest
		if _, err := decodeJSON(httptest.NewRecorder(), r, &req); err != nil {
			return
		}
		p := s.paramsFor(req.Instructions, req.Warmup, req.Seed)
		cells, _, err := expandSweep(req, &p)
		if err != nil {
			return
		}
		for _, c := range cells {
			if err := sim.Validate(c.Config); err != nil {
				t.Fatalf("sweep accepted cell %s that fails validation: %v\n%s", c.Name(), err, data)
			}
		}
		cellsFor(&p, cells)
	})
}
