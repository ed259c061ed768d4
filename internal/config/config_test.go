package config

import (
	"strings"
	"testing"
)

func TestDefaultMatchesTable1(t *testing.T) {
	c := Default()
	if err := c.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	checks := []struct {
		name string
		got  int
		want int
	}{
		{"issue width", c.CPU.IssueWidth, 8},
		{"retire width", c.CPU.RetireWidth, 8},
		{"ROB", c.CPU.ROBEntries, 128},
		{"LSQ", c.CPU.LSQEntries, 64},
		{"bimodal", c.CPU.BimodalEntries, 2048},
		{"BTB sets", c.CPU.BTBSets, 4096},
		{"BTB assoc", c.CPU.BTBAssoc, 4},
		{"L1 size", c.L1.SizeBytes, 8192},
		{"L1 line", c.L1.LineBytes, 32},
		{"L1 assoc", c.L1.Assoc, 1},
		{"L1 latency", c.L1.LatencyCycles, 1},
		{"L1 ports", c.L1.Ports, 3},
		{"L2 size", c.L2.SizeBytes, 512 * 1024},
		{"L2 assoc", c.L2.Assoc, 4},
		{"L2 latency", c.L2.LatencyCycles, 15},
		{"memory latency", c.MemoryLatency, 150},
		{"prefetch queue", c.Prefetch.QueueEntries, 64},
		{"filter entries", c.Filter.TableEntries, 4096},
	}
	for _, ck := range checks {
		if ck.got != ck.want {
			t.Errorf("%s = %d, want %d", ck.name, ck.got, ck.want)
		}
	}
	if c.Filter.Kind != FilterNone {
		t.Errorf("default filter = %q, want none", c.Filter.Kind)
	}
}

func TestCacheSets(t *testing.T) {
	c := Default().L1
	if got := c.Sets(); got != 256 {
		t.Fatalf("8KB/32B direct-mapped should have 256 sets, got %d", got)
	}
	l2 := Default().L2
	if got := l2.Sets(); got != 4096 {
		t.Fatalf("512KB/32B 4-way should have 4096 sets, got %d", got)
	}
}

func TestPresets(t *testing.T) {
	if got := Default16K().L1.SizeBytes; got != 16*1024 {
		t.Errorf("Default16K L1 = %d", got)
	}
	c32 := Default32K()
	if c32.L1.SizeBytes != 32*1024 || c32.L1.LatencyCycles != 4 {
		t.Errorf("Default32K = %d bytes / %d cycles, want 32KB / 4", c32.L1.SizeBytes, c32.L1.LatencyCycles)
	}
	for _, c := range []Config{Default8K(), Default16K(), Default32K()} {
		if err := c.Validate(); err != nil {
			t.Errorf("preset invalid: %v", err)
		}
	}
}

func TestWithL1PortsPairing(t *testing.T) {
	// §5.4: 3 ports/1 cycle, 4/2, 5/3.
	for _, tc := range []struct{ ports, lat int }{{3, 1}, {4, 2}, {5, 3}} {
		c := Default().WithL1Ports(tc.ports)
		if c.L1.Ports != tc.ports || c.L1.LatencyCycles != tc.lat {
			t.Errorf("WithL1Ports(%d) = %d ports, %d cycles; want %d", tc.ports, c.L1.Ports, c.L1.LatencyCycles, tc.lat)
		}
	}
	// Unknown port counts leave the latency alone.
	c := Default().WithL1Ports(7)
	if c.L1.Ports != 7 || c.L1.LatencyCycles != 1 {
		t.Errorf("WithL1Ports(7) altered latency: %+v", c.L1)
	}
}

func TestWithHelpersDoNotMutate(t *testing.T) {
	base := Default()
	_ = base.WithFilter(FilterPA)
	_ = base.WithTableEntries(1024)
	_ = base.WithPrefetchBuffer(true)
	if base.Filter.Kind != FilterNone || base.Filter.TableEntries != 4096 || base.Buffer.Enable {
		t.Fatal("With* helpers must return copies")
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"zero L1 size", func(c *Config) { c.L1.SizeBytes = 0 }, "size"},
		{"non-pow2 line", func(c *Config) { c.L1.LineBytes = 24 }, "line"},
		{"zero assoc", func(c *Config) { c.L2.Assoc = 0 }, "associativity"},
		{"indivisible", func(c *Config) { c.L1.SizeBytes = 8192 + 16 }, "divisible"},
		{"zero latency", func(c *Config) { c.L2.LatencyCycles = 0 }, "latency"},
		{"zero ports", func(c *Config) { c.L1.Ports = 0 }, "ports"},
		{"bad replacement", func(c *Config) { c.L1.Replacement = "mru" }, "replacement"},
		{"line mismatch", func(c *Config) { c.L2.LineBytes = 64 }, "line size"},
		{"zero mem latency", func(c *Config) { c.MemoryLatency = 0 }, "memory latency"},
		{"zero bus", func(c *Config) { c.BusBytesPerCyc = 0 }, "bus"},
		{"zero issue", func(c *Config) { c.CPU.IssueWidth = 0 }, "issue"},
		{"zero retire", func(c *Config) { c.CPU.RetireWidth = 0 }, "retire"},
		{"zero rob", func(c *Config) { c.CPU.ROBEntries = 0 }, "ROB"},
		{"zero lsq", func(c *Config) { c.CPU.LSQEntries = 0 }, "LSQ"},
		{"negative branch penalty", func(c *Config) { c.CPU.BranchPenalty = -1 }, "branch penalty"},
		{"non-pow2 bimodal", func(c *Config) { c.CPU.BimodalEntries = 1000 }, "bimodal"},
		{"non-pow2 btb", func(c *Config) { c.CPU.BTBSets = 3 }, "BTB"},
		{"zero btb assoc", func(c *Config) { c.CPU.BTBAssoc = 0 }, "BTB"},
		{"zero queue", func(c *Config) { c.Prefetch.QueueEntries = 0 }, "queue"},
		{"zero degree", func(c *Config) { c.Prefetch.Degree = 0 }, "degree"},
		{"bad stride", func(c *Config) { c.Prefetch.EnableStride = true; c.Prefetch.StrideEntries = 3 }, "stride"},
		{"non-pow2 table", func(c *Config) { c.Filter.TableEntries = 1000 }, "table"},
		{"big initial", func(c *Config) { c.Filter.InitialCounter = 4 }, "initial"},
		{"big threshold", func(c *Config) { c.Filter.Threshold = 7 }, "threshold"},
		{"bad adaptive acc", func(c *Config) { c.Filter.Kind = FilterAdaptive; c.Filter.AdaptiveAccuracy = 1.5 }, "adaptive"},
		{"bad adaptive window", func(c *Config) { c.Filter.Kind = FilterAdaptive; c.Filter.AdaptiveWindow = 0 }, "adaptive"},
		{"non-pow2 perceptron", func(c *Config) { c.Filter.PerceptronEntries = 1000 }, "perceptron"},
		{"negative perceptron theta", func(c *Config) { c.Filter.PerceptronTheta = -1 }, "theta"},
		{"non-pow2 bloom", func(c *Config) { c.Filter.BloomEntries = 1000 }, "bloom"},
		{"too many bloom hashes", func(c *Config) { c.Filter.BloomHashes = 9 }, "bloom hashes"},
		{"bloom reject overflow", func(c *Config) { c.Filter.BloomReject = 16 }, "reject"},
		{"non-UTF-8 filter kind", func(c *Config) { c.Filter.Kind = "\x98" }, "UTF-8"},
		{"non-UTF-8 tournament side", func(c *Config) { c.Filter.TournamentB = "p\xc3" }, "UTF-8"},
		{"non-UTF-8 iprefetcher", func(c *Config) { fe := DefaultFrontend(); fe.IPrefetch = "\xff"; c.Frontend = &fe }, "UTF-8"},
		{"psel bits overflow", func(c *Config) { c.Filter.TournamentPselBits = 21 }, "PSEL"},
		{"tournament side static", func(c *Config) { c.Filter.TournamentA = FilterStatic }, "tournament side"},
		{"tournament side nested", func(c *Config) { c.Filter.TournamentB = FilterTournament }, "tournament side"},
		{"buffer zero entries", func(c *Config) { c.Buffer.Enable = true; c.Buffer.Entries = 0 }, "buffer"},
		{"negative max instructions", func(c *Config) { c.MaxInstructions = -1 }, "max instructions"},
		// Upper bounds: no config may ask for more memory or per-event
		// work than a host has.
		{"huge L1", func(c *Config) { c.L1.SizeBytes = 128 << 20 }, "size"},
		{"too many L2 lines", func(c *Config) { c.L2.SizeBytes = 64 << 20; c.L2.LineBytes = 8; c.L1.LineBytes = 8 }, "lines"},
		{"line larger than cache", func(c *Config) { c.L1.LineBytes = 16 << 10 }, "lines"},
		{"assoc beyond lines", func(c *Config) { c.L1.Assoc = 1 << 40 }, "associativity"},
		{"overflowing line*assoc", func(c *Config) { c.L1.LineBytes, c.L1.Assoc = 1<<32, 1<<32 }, "lines"},
		{"huge rob", func(c *Config) { c.CPU.ROBEntries = 1 << 17 }, "ROB"},
		{"huge lsq", func(c *Config) { c.CPU.LSQEntries = 1 << 40 }, "LSQ"},
		{"huge bimodal", func(c *Config) { c.CPU.BimodalEntries = 1 << 17 }, "bimodal"},
		{"huge btb sets", func(c *Config) { c.CPU.BTBSets = 1 << 17; c.CPU.BTBAssoc = 1 }, "BTB sets"},
		{"huge btb product", func(c *Config) { c.CPU.BTBSets = 1 << 15; c.CPU.BTBAssoc = 4 }, "BTB"},
		{"overflowing btb product", func(c *Config) { c.CPU.BTBAssoc = 1 << 62 }, "BTB"},
		{"huge mshrs", func(c *Config) { c.CPU.MSHRs = 1 << 17 }, "MSHRs"},
		{"huge queue", func(c *Config) { c.Prefetch.QueueEntries = 1 << 17 }, "queue"},
		{"huge degree", func(c *Config) { c.Prefetch.Degree = 1 << 40 }, "degree"},
		{"huge stride", func(c *Config) { c.Prefetch.EnableStride = true; c.Prefetch.StrideEntries = 1 << 17 }, "stride"},
		{"huge correlation sets", func(c *Config) { c.Prefetch.EnableCorrelation = true; c.Prefetch.CorrelationSets = 1 << 17 }, "correlation sets"},
		{"huge correlation product", func(c *Config) {
			c.Prefetch.EnableCorrelation = true
			c.Prefetch.CorrelationSets, c.Prefetch.CorrelationAssoc = 1<<16, 2
		}, "correlation"},
		{"huge table", func(c *Config) { c.Filter.TableEntries = 1 << 40 }, "table"},
		{"huge adaptive window", func(c *Config) { c.Filter.Kind = FilterAdaptive; c.Filter.AdaptiveWindow = 1 << 17 }, "adaptive"},
		{"huge perceptron", func(c *Config) { c.Filter.PerceptronEntries = 1 << 17 }, "perceptron"},
		{"huge bloom", func(c *Config) { c.Filter.BloomEntries = 1 << 17 }, "bloom"},
		{"huge buffer", func(c *Config) { c.Buffer.Enable = true; c.Buffer.Entries = 1 << 17 }, "buffer"},
		{"huge victim", func(c *Config) { c.VictimEntries = 1 << 17 }, "victim"},
		{"huge frontend queue", func(c *Config) { fe := DefaultFrontend(); fe.QueueEntries = 1 << 17; c.Frontend = &fe }, "queue"},
		{"huge l1i", func(c *Config) { fe := DefaultFrontend(); fe.L1I.SizeBytes = 128 << 20; c.Frontend = &fe }, "l1i"},
	}
	for _, tc := range cases {
		c := Default()
		tc.mutate(&c)
		err := c.Validate()
		if err == nil {
			t.Errorf("%s: expected error", tc.name)
			continue
		}
		if !strings.Contains(strings.ToLower(err.Error()), strings.ToLower(tc.want)) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestNonPow2SetsRejected(t *testing.T) {
	c := Default()
	c.L1.SizeBytes = 3 * 32 * 1 // 3 sets
	if err := c.Validate(); err == nil {
		t.Fatal("3-set cache should be rejected")
	}
}

func TestReplacementPolicyValid(t *testing.T) {
	for _, p := range []ReplacementPolicy{ReplaceLRU, ReplaceFIFO, ReplaceRandom} {
		if !p.Valid() {
			t.Errorf("%q should be valid", p)
		}
	}
	if ReplacementPolicy("plru").Valid() {
		t.Error("plru should be invalid")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	orig := Default().WithFilter(FilterPC).WithTableEntries(8192)
	orig.Seed = 99
	data := []byte(orig.String())
	parsed, err := Parse(data)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if parsed.Filter.Kind != FilterPC || parsed.Filter.TableEntries != 8192 || parsed.Seed != 99 {
		t.Fatalf("round trip lost fields: %+v", parsed.Filter)
	}
	if parsed.String() != orig.String() {
		t.Fatal("round trip not identical")
	}
}

func TestParseRejectsInvalid(t *testing.T) {
	if _, err := Parse([]byte("{")); err == nil {
		t.Fatal("malformed JSON should fail")
	}
	if _, err := Parse([]byte(`{"l1":{"size_bytes":-1}}`)); err == nil {
		t.Fatal("invalid config should fail validation")
	}
}
