package filter

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/metrics"
)

func req(line, pc uint64) core.Request {
	return core.Request{LineAddr: line, TriggerPC: pc}
}

// fcfg returns a valid config for kind with the standard table size.
func fcfg(kind config.FilterKind) config.FilterConfig {
	return config.FilterConfig{Kind: kind, TableEntries: 4096}
}

func bad(line, pc uint64) core.Feedback {
	return core.Feedback{LineAddr: line, TriggerPC: pc, Referenced: false}
}

func good(line, pc uint64) core.Feedback {
	return core.Feedback{LineAddr: line, TriggerPC: pc, Referenced: true}
}

// --- registry ---

func TestRegistryKinds(t *testing.T) {
	want := []string{"adaptive", "bloom", "deadblock", "none", "pa", "pc", "perceptron", "static", "tournament"}
	if got := Registry.Kinds(); !slices.Equal(got, want) {
		t.Fatalf("Registry.Kinds() = %v, want %v", got, want)
	}
	// Aliases resolve to their canonical kinds.
	for alias, kind := range map[config.FilterKind]config.FilterKind{
		config.FilterTablePA: config.FilterPA, config.FilterTablePC: config.FilterPC,
	} {
		if got, err := Registry.Resolve(string(alias)); err != nil || got != kind {
			t.Errorf("Resolve(%q) = %q, %v; want %q", alias, got, err, kind)
		}
	}
	sweep := slices.DeleteFunc(slices.Clone(want), func(k string) bool { return k == "static" })
	if got := Sweepable(); !slices.Equal(got, sweep) {
		t.Errorf("Sweepable() = %v, want Kinds() minus static (%v)", got, sweep)
	}
}

func TestNewUnknownKindListsBackends(t *testing.T) {
	_, err := New(config.FilterConfig{Kind: "no-such-filter", TableEntries: 4096})
	if err == nil {
		t.Fatal("expected error for unknown kind")
	}
}

func TestNewStaticRefuses(t *testing.T) {
	_, err := New(fcfg(config.FilterStatic))
	if err == nil || !strings.Contains(err.Error(), "profiling") {
		t.Fatalf("static kind should explain the profiling requirement, got %v", err)
	}
}

func TestNewBaselineDelegatesToCore(t *testing.T) {
	// The registry's table backends must be the exact core implementations
	// so filter behaviour (and simulation fingerprints) cannot drift.
	for _, kind := range []config.FilterKind{
		config.FilterPA, config.FilterPC, config.FilterTablePA, config.FilterTablePC,
	} {
		f, err := New(fcfg(kind))
		if err != nil {
			t.Fatalf("New(%q): %v", kind, err)
		}
		if _, ok := f.(*core.TableFilter); !ok {
			t.Errorf("New(%q) = %T, want *core.TableFilter", kind, f)
		}
	}
	f, err := New(fcfg(config.FilterNone))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := f.(*core.Null); !ok {
		t.Errorf("New(none) = %T, want *core.Null", f)
	}
	f, err = New(fcfg(config.FilterDeadBlock))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := f.(*core.Null); !ok {
		t.Errorf("New(deadblock) = %T, want pass-through *core.Null", f)
	}
}

// TestPaperBackendsFromConfig builds the paper's table-family kinds from
// the default machine's filter config through the registry, and checks
// that an invalid table size is rejected before construction.
func TestPaperBackendsFromConfig(t *testing.T) {
	base := config.Default().Filter
	for _, tc := range []struct {
		kind config.FilterKind
		name string
	}{
		{config.FilterNone, "none"},
		{config.FilterPA, "pa"},
		{config.FilterPC, "pc"},
		{config.FilterAdaptive, "pa-adaptive"},
	} {
		cfg := base
		cfg.Kind = tc.kind
		f, err := New(cfg)
		if err != nil {
			t.Errorf("%s: %v", tc.kind, err)
			continue
		}
		if f.Name() != tc.name {
			t.Errorf("%s: name = %q, want %q", tc.kind, f.Name(), tc.name)
		}
	}
	cfg := base
	cfg.TableEntries = 1000
	if _, err := New(cfg); err == nil {
		t.Error("invalid table entries should fail")
	}
}

func TestAliasBuildsIdenticalTable(t *testing.T) {
	a, err := New(config.FilterConfig{Kind: config.FilterTablePA, TableEntries: 256})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(config.FilterConfig{Kind: config.FilterPA, TableEntries: 256})
	if err != nil {
		t.Fatal(err)
	}
	// Drive both with the same stream; decisions must agree everywhere.
	for i := uint64(0); i < 2048; i++ {
		line, pc := i*0x40, 0x1000+i%7*4
		a.Train(core.Feedback{LineAddr: line, TriggerPC: pc, Referenced: i%3 == 0})
		b.Train(core.Feedback{LineAddr: line, TriggerPC: pc, Referenced: i%3 == 0})
		if a.Allow(req(line, pc)) != b.Allow(req(line, pc)) {
			t.Fatalf("alias table-pa diverged from pa at step %d", i)
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("alias stats diverged: %+v vs %+v", a.Stats(), b.Stats())
	}
}

// --- perceptron ---

func TestPerceptronFirstTouchAllows(t *testing.T) {
	p, err := NewPerceptron(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Allow(req(0xabc0, 0x400)) {
		t.Error("untrained perceptron must allow (zero weight sum)")
	}
	if p.Entries() != defaultPerceptronEntries {
		t.Errorf("Entries() = %d, want default %d", p.Entries(), defaultPerceptronEntries)
	}
	if p.SizeBytes() <= 0 {
		t.Error("SizeBytes() must be positive")
	}
}

func TestPerceptronLearnsToReject(t *testing.T) {
	p, err := NewPerceptron(1024, 8)
	if err != nil {
		t.Fatal(err)
	}
	line, pc := uint64(0x1f40), uint64(0x400)
	for i := 0; i < 16; i++ {
		p.Train(bad(line, pc))
	}
	if p.Allow(req(line, pc)) {
		t.Fatal("perceptron should reject after repeated bad feedback")
	}
	// Retraining with good feedback flips it back.
	for i := 0; i < 64; i++ {
		p.Train(good(line, pc))
	}
	if !p.Allow(req(line, pc)) {
		t.Fatal("perceptron should re-allow after repeated good feedback")
	}
	s := p.Stats()
	if s.TrainBad != 16 || s.TrainGood != 64 {
		t.Errorf("training stats = %+v", s)
	}
}

func TestPerceptronThresholdStopsUpdates(t *testing.T) {
	p, err := NewPerceptron(256, 4)
	if err != nil {
		t.Fatal(err)
	}
	line, pc := uint64(0x2000), uint64(0x800)
	for i := 0; i < 100; i++ {
		p.Train(good(line, pc))
	}
	// Confidence saturates well before 100 trainings; the thresholded rule
	// must have stopped moving weights once |sum| cleared theta.
	if p.TrainUpdates >= 100 {
		t.Errorf("TrainUpdates = %d, want < 100 (thresholded rule)", p.TrainUpdates)
	}
	if p.TrainUpdates == 0 {
		t.Error("TrainUpdates must count the initial updates")
	}
}

func TestPerceptronSourceFeatureSeparates(t *testing.T) {
	p, err := NewPerceptron(1024, 30)
	if err != nil {
		t.Fatal(err)
	}
	line, pc := uint64(0x3000), uint64(0x900)
	// Same line+PC, different prefetcher: train one source bad hard.
	for i := 0; i < 40; i++ {
		p.Train(core.Feedback{LineAddr: line, TriggerPC: pc, Referenced: false, Source: core.SrcNSP})
	}
	rNSP := core.Request{LineAddr: line, TriggerPC: pc, Source: core.SrcNSP}
	if p.Predict(rNSP) {
		t.Fatal("trained-bad source should be rejected")
	}
	// The source-tagged feature gives the other prefetcher a higher sum:
	// three of four features are shared, but not all four.
	sNSP := p.sum(p.features(line, pc, core.SrcNSP))
	sStride := p.sum(p.features(line, pc, core.SrcStride))
	if sStride <= sNSP {
		t.Errorf("source feature not separating: sum(stride)=%d sum(nsp)=%d", sStride, sNSP)
	}
}

func TestPerceptronRejectsBadParams(t *testing.T) {
	if _, err := NewPerceptron(100, 0); err == nil {
		t.Error("non-power-of-two entries must fail")
	}
	if _, err := NewPerceptron(0, -1); err == nil {
		t.Error("negative theta must fail")
	}
}

// --- bloom ---

func TestBloomFirstTouchAllows(t *testing.T) {
	b, err := NewBloom(0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Allow(req(0x40, 0)) {
		t.Error("empty bloom must allow")
	}
	if b.Entries() != defaultBloomEntries || b.SizeBytes() != defaultBloomEntries/2 {
		t.Errorf("Entries=%d SizeBytes=%d", b.Entries(), b.SizeBytes())
	}
}

func TestBloomLearnsAndForgets(t *testing.T) {
	b, err := NewBloom(4096, 2, 2, -1) // decay disabled
	if err != nil {
		t.Fatal(err)
	}
	line := uint64(0x7c0)
	b.Train(bad(line, 0))
	if !b.Allow(req(line, 0)) {
		t.Fatal("one bad training must not reach the reject threshold of 2")
	}
	b.Train(bad(line, 0))
	if b.Allow(req(line, 0)) {
		t.Fatal("two bad trainings must reject at threshold 2")
	}
	// Counting-Bloom deletion: good feedback removes the entry.
	b.Train(good(line, 0))
	if !b.Allow(req(line, 0)) {
		t.Fatal("good feedback must decrement below the reject threshold")
	}
	if b.Occupancy() == 0 {
		t.Error("occupancy should reflect remaining non-zero counters")
	}
}

func TestBloomDecayAgesOutRejections(t *testing.T) {
	b, err := NewBloom(1024, 2, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	line := uint64(0x1140)
	// counters checks the line's counter under every hash.
	counters := func(when string, want uint8) {
		t.Helper()
		for i := 0; i < b.hashes; i++ {
			if c := b.counters[b.probe(line, i)]; c != want {
				t.Fatalf("%s: hash %d counter = %d, want %d", when, i, c, want)
			}
		}
	}
	for i := 0; i < 6; i++ {
		b.Train(bad(line, 0))
	}
	counters("before decay", 6)
	if b.Allow(req(line, 0)) {
		t.Fatal("line should be rejected before decay")
	}
	// Unrelated trainings tick the decay clock; each sweep halves the
	// counters exactly: 6 -> 3 -> 1.
	tick := uint64(0)
	for _, want := range []uint8{3, 1} {
		for sweeps := b.Decays; b.Decays == sweeps; {
			tick++
			b.Train(good(0x100000+tick*0x40, 0))
		}
		counters(fmt.Sprintf("after %d decay sweeps", b.Decays), want)
	}
	if !b.Allow(req(line, 0)) {
		t.Fatal("decay should age the rejection back below threshold 4")
	}
}

func TestBloomRejectsBadParams(t *testing.T) {
	if _, err := NewBloom(1000, 0, 0, 0); err == nil {
		t.Error("non-power-of-two entries must fail")
	}
	if _, err := NewBloom(0, 9, 0, 0); err == nil {
		t.Error("hashes > 8 must fail")
	}
	if _, err := NewBloom(0, 0, 16, 0); err == nil {
		t.Error("reject threshold > counter max must fail")
	}
}

// --- tournament ---

func TestTournamentConfigDefaults(t *testing.T) {
	f, err := New(fcfg(config.FilterTournament))
	if err != nil {
		t.Fatal(err)
	}
	tour, ok := f.(*Tournament)
	if !ok {
		t.Fatalf("New(tournament) = %T", f)
	}
	a, b := tour.Sides()
	if _, ok := a.(*core.TableFilter); !ok {
		t.Errorf("default side A = %T, want *core.TableFilter (pa)", a)
	}
	if _, ok := b.(*Perceptron); !ok {
		t.Errorf("default side B = %T, want *Perceptron", b)
	}
	v, max := tour.PSEL()
	if max != 1<<defaultPselBits-1 || v != 1<<(defaultPselBits-1) {
		t.Errorf("PSEL = %d/%d, want midpoint of %d-bit counter", v, max, defaultPselBits)
	}
	if got := tour.Name(); got != "tournament(pa,perceptron)" {
		t.Errorf("Name() = %q", got)
	}
}

func TestTournamentRejectsBadSides(t *testing.T) {
	cfgA := fcfg(config.FilterTournament)
	cfgA.TournamentA = config.FilterTournament
	_, err := New(cfgA)
	if err == nil {
		t.Error("nested tournament must be rejected")
	}
	cfgB := fcfg(config.FilterTournament)
	cfgB.TournamentB = config.FilterStatic
	_, err = New(cfgB)
	if err == nil {
		t.Error("static tournament side must be rejected")
	}
}

// alwaysFilter is a deterministic test backend.
type alwaysFilter struct {
	allow  bool
	stats  core.Stats
	trains int
}

func (f *alwaysFilter) Predict(core.Request) bool { return f.allow }
func (f *alwaysFilter) Allow(core.Request) bool   { f.stats.Queries++; return f.allow }
func (f *alwaysFilter) Train(core.Feedback)       { f.trains++ }
func (f *alwaysFilter) Name() string              { return "always" }
func (f *alwaysFilter) Stats() core.Stats         { return f.stats }

func TestTournamentPselConverges(t *testing.T) {
	// Side A always predicts "good", side B always predicts "bad". Feed
	// uniformly bad-outcome feedback: B is always right, so PSEL must run
	// to zero and follower keys must adopt B's rejections.
	a := &alwaysFilter{allow: true}
	b := &alwaysFilter{allow: false}
	tour, err := NewTournament(a, b, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 4096; i++ {
		tour.Train(bad(i*0x40, 0))
	}
	if v, _ := tour.PSEL(); v != 0 {
		t.Fatalf("PSEL = %d, want 0 (B always right)", v)
	}
	if tour.BWins == 0 || tour.AWins != 0 {
		t.Fatalf("wins A=%d B=%d, want only B wins", tour.AWins, tour.BWins)
	}
	if a.trains != 4096 || b.trains != 4096 {
		t.Fatalf("both sides must train on all feedback: A=%d B=%d", a.trains, b.trains)
	}
	// A follower key (neither leader set) must now follow B.
	follower := uint64(0)
	for line := uint64(0); ; line += 0x40 {
		if bkt := duelBucket(line); bkt >= 2*leaderBuckets {
			follower = line
			break
		}
	}
	if tour.Allow(req(follower, 0)) {
		t.Error("follower key should adopt losing-side-B's rejection")
	}
	// Leader-A keys still use A regardless of PSEL.
	leaderA := uint64(0)
	for line := uint64(0x40); ; line += 0x40 {
		if duelBucket(line) < leaderBuckets {
			leaderA = line
			break
		}
	}
	if !tour.Allow(req(leaderA, 0)) {
		t.Error("leader-A key must keep using side A")
	}
}

// TestTournamentPselSaturates drives PSEL up to its maximum with
// A-right, B-wrong leader feedback, and past it: PSEL must reach
// pselMax exactly and stay there while A keeps winning.
func TestTournamentPselSaturates(t *testing.T) {
	tour, err := NewTournament(&alwaysFilter{allow: true}, &alwaysFilter{allow: false}, 3)
	if err != nil {
		t.Fatal(err)
	}
	leader := uint64(0)
	for duelBucket(leader) >= 2*leaderBuckets {
		leader += 0x40
	}
	v, max := tour.PSEL()
	for i := 0; i < int(max-v)+5; i++ {
		tour.Train(good(leader, 0))
		if got, _ := tour.PSEL(); got != min(v+uint32(i)+1, max) {
			t.Fatalf("after %d A wins PSEL = %d, want %d (max %d)", i+1, got, min(v+uint32(i)+1, max), max)
		}
	}
	if want := uint64(max-v) + 5; tour.AWins != want || tour.BWins != 0 {
		t.Fatalf("wins A=%d B=%d, want A=%d B=0", tour.AWins, tour.BWins, want)
	}
}

func TestTournamentPredictHasNoSideEffects(t *testing.T) {
	f, err := New(fcfg(config.FilterTournament))
	if err != nil {
		t.Fatal(err)
	}
	tour := f.(*Tournament)
	tour.Predict(req(0x40, 0x100))
	if s := tour.Stats(); s.Queries != 0 {
		t.Errorf("Predict must not count queries, got %+v", s)
	}
}

// --- metrics / reset ---

func TestBackendsDumpMetricsAndReset(t *testing.T) {
	for _, kind := range []config.FilterKind{
		config.FilterPerceptron, config.FilterBloom, config.FilterTournament,
	} {
		f, err := New(fcfg(kind))
		if err != nil {
			t.Fatalf("New(%q): %v", kind, err)
		}
		f.Allow(req(0x40, 0))
		f.Train(bad(0x40, 0))
		reg := metrics.New()
		if d, ok := f.(core.MetricsDumper); ok {
			d.DumpMetrics(reg, "filter")
			d.DumpMetrics(nil, "filter") // nil registry must be a no-op
		} else {
			t.Fatalf("%q does not implement MetricsDumper", kind)
		}
		if len(reg.Snapshot().Counters) == 0 {
			t.Errorf("%q dumped no metrics", kind)
		}
		if r, ok := f.(interface{ ResetStats() }); ok {
			r.ResetStats()
		} else {
			t.Fatalf("%q does not implement ResetStats", kind)
		}
		if s := f.Stats(); s != (core.Stats{}) {
			t.Errorf("%q stats not reset: %+v", kind, s)
		}
	}
}
