// Package config defines the structural parameters of the simulated machine.
//
// The default configuration mirrors Table 1 of the paper: an 8-wide
// out-of-order core with a 128-entry reorder buffer, 64-entry load/store
// queue, bimodal branch predictor, an 8KB direct-mapped single-cycle L1
// data cache with 3 universal ports, a 512KB 4-way 15-cycle L2, a 150-cycle
// main memory, a 64-entry prefetch queue, and a 4096-entry (1KB) pollution
// filter history table.
package config

import (
	"encoding/json"
	"fmt"
	"unicode/utf8"
)

// FilterKind selects the pollution filter variant attached to the machine.
// The kinds that exist are the keys of internal/filter's registry, and
// sim.Validate resolves a config's names there; this package checks
// only numbers and structure.
type FilterKind string

// Filter variants evaluated in the paper plus the extensions this repo adds.
const (
	FilterNone     FilterKind = "none"     // no filtering (baseline)
	FilterPA       FilterKind = "pa"       // per-address history table
	FilterPC       FilterKind = "pc"       // program-counter history table
	FilterStatic   FilterKind = "static"   // profile-driven static filter (Srinivasan et al. baseline)
	FilterAdaptive FilterKind = "adaptive" // PA table engaged only when prefetch accuracy is low (§5.2.1 "advanced features")
	// FilterDeadBlock gates prefetches on the predicted liveness of the
	// line they would displace — the Lai et al. dead-block baseline
	// (paper reference [11]), built from the same 2-bit counter fabric.
	FilterDeadBlock FilterKind = "deadblock"
	// FilterPerceptron is a hashed-perceptron filter (internal/filter):
	// per-feature weight tables over line address, trigger PC, and
	// prefetcher id, trained on the same eviction-time RIB signal.
	FilterPerceptron FilterKind = "perceptron"
	// FilterBloom is a counting-Bloom rejection filter with periodic
	// decay: bad evictions insert the line address, k saturated counters
	// above the reject threshold drop the prefetch.
	FilterBloom FilterKind = "bloom"
	// FilterTournament set-duels two backends with a PSEL counter:
	// sampled leader keys always use their backend, follower keys use
	// whichever backend the PSEL currently favours.
	FilterTournament FilterKind = "tournament"
)

// Aliases accepted anywhere a FilterKind is parsed; Canonical() folds
// them onto the paper kinds so configs naming either spelling build the
// same machine (and share memo cache entries).
const (
	FilterTablePA FilterKind = "table-pa" // alias of FilterPA
	FilterTablePC FilterKind = "table-pc" // alias of FilterPC
)

// Canonical resolves aliases to the canonical kind name.
func (k FilterKind) Canonical() FilterKind {
	switch k {
	case FilterTablePA:
		return FilterPA
	case FilterTablePC:
		return FilterPC
	}
	return k
}

// PrefetchKind names one prefetch generator backend in the generator
// zoo (internal/prefetch's registry), mirroring FilterKind for the
// filter zoo. A config selects generators by the Enable* flags, so it
// never holds a PrefetchKind to resolve.
type PrefetchKind string

// Prefetch generators known to the simulator: the paper's two hardware
// prefetchers, the two classic extensions, and the generator-zoo
// additions.
const (
	PrefetchNSP         PrefetchKind = "nsp"    // tagged next-sequence prefetching (Smith)
	PrefetchSDP         PrefetchKind = "sdp"    // shadow-directory prefetching (Pomerene et al.)
	PrefetchStride      PrefetchKind = "stride" // reference-prediction-table stride (Chen & Baer)
	PrefetchCorrelation PrefetchKind = "corr"   // miss-pair correlation (Charney & Reeves)
	// PrefetchBerti is the Berti-style latency-aware local-delta
	// prefetcher (Navarro-Torres et al., MICRO 2022): per-PC history
	// table, reuse-latency table, and shadow timeliness tracking.
	PrefetchBerti PrefetchKind = "berti"
	// PrefetchGHB is the GHB/PC-delta-correlation prefetcher
	// (Nesbit & Smith): a global history buffer with per-PC linked
	// chains, delta-pair matching, and accuracy-gated degree throttling.
	PrefetchGHB PrefetchKind = "ghb"
)

// Aliases accepted anywhere a PrefetchKind is parsed; Canonical() folds
// them onto the canonical kinds so configs naming either spelling build
// the same machine (and share memo cache entries).
const (
	PrefetchCorrelationAlias PrefetchKind = "correlation"  // alias of PrefetchCorrelation
	PrefetchGHBAlias         PrefetchKind = "ghb-pc-delta" // alias of PrefetchGHB
)

// Canonical resolves aliases to the canonical kind name.
func (k PrefetchKind) Canonical() PrefetchKind {
	switch k {
	case PrefetchCorrelationAlias:
		return PrefetchCorrelation
	case PrefetchGHBAlias:
		return PrefetchGHB
	}
	return k
}

// IPrefetchKind names an instruction-prefetch backend from the
// internal/frontend registry, where sim.Validate resolves it.
type IPrefetchKind string

// Instruction prefetchers known to the simulator.
const (
	// IPrefetchNone disables instruction prefetching: the L1I serves the
	// fetch stream on demand only.
	IPrefetchNone IPrefetchKind = "none"
	// IPrefetchNextLine is the next-line/fetch-directed baseline: run a
	// configurable number of sequential blocks ahead of the live fetch
	// stream (which already includes taken-branch redirects).
	IPrefetchNextLine IPrefetchKind = "nextline"
	// IPrefetchMANA is the MANA-lite spatial-region prefetcher
	// (Ansari et al., arXiv 2102.01764): per-region footprint records
	// keyed by the trigger PC that entered the region, replayed on
	// re-encounter, in bounded log2-sized tables.
	IPrefetchMANA IPrefetchKind = "mana"
)

// IPrefetchFDIPAlias is accepted anywhere an IPrefetchKind is parsed;
// Canonical() folds it onto IPrefetchNextLine so configs naming either
// spelling build the same machine (and share memo cache entries).
const IPrefetchFDIPAlias IPrefetchKind = "fetch-directed" // alias of IPrefetchNextLine

// Canonical resolves aliases to the canonical kind name.
func (k IPrefetchKind) Canonical() IPrefetchKind {
	if k == IPrefetchFDIPAlias {
		return IPrefetchNextLine
	}
	return k
}

// ReplacementPolicy selects how a set-associative cache picks a victim.
type ReplacementPolicy string

// Supported replacement policies.
const (
	ReplaceLRU    ReplacementPolicy = "lru"
	ReplaceFIFO   ReplacementPolicy = "fifo"
	ReplaceRandom ReplacementPolicy = "random"
)

// Valid reports whether p names a known policy.
func (p ReplacementPolicy) Valid() bool {
	switch p {
	case ReplaceLRU, ReplaceFIFO, ReplaceRandom:
		return true
	}
	return false
}

// CacheConfig describes one cache level.
type CacheConfig struct {
	// SizeBytes is the total data capacity.
	SizeBytes int `json:"size_bytes"`
	// LineBytes is the cache line (block) size; must be a power of two.
	LineBytes int `json:"line_bytes"`
	// Assoc is the number of ways; 1 means direct-mapped.
	Assoc int `json:"assoc"`
	// LatencyCycles is the hit latency.
	LatencyCycles int `json:"latency_cycles"`
	// Ports is the number of universal (read/write) ports usable per cycle.
	Ports int `json:"ports"`
	// Replacement selects the victim policy for Assoc > 1.
	Replacement ReplacementPolicy `json:"replacement"`
}

// Sets returns the number of sets implied by the geometry.
func (c CacheConfig) Sets() int {
	if c.LineBytes <= 0 || c.Assoc <= 0 {
		return 0
	}
	return c.SizeBytes / (c.LineBytes * c.Assoc)
}

// Validate checks geometric and physical sanity.
func (c CacheConfig) Validate(name string) error {
	switch {
	case c.SizeBytes <= 0 || c.SizeBytes > maxCacheBytes:
		return fmt.Errorf("%s: size must be in [1,%d], got %d", name, maxCacheBytes, c.SizeBytes)
	case c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("%s: line size must be a positive power of two, got %d", name, c.LineBytes)
	case c.LineBytes > c.SizeBytes || c.SizeBytes/c.LineBytes > maxCacheLines:
		return fmt.Errorf("%s: %d-byte lines in %d bytes must number in [1,%d]", name, c.LineBytes, c.SizeBytes, maxCacheLines)
	case c.Assoc <= 0 || c.Assoc > c.SizeBytes/c.LineBytes:
		return fmt.Errorf("%s: associativity must be in [1,%d], got %d", name, c.SizeBytes/c.LineBytes, c.Assoc)
	case c.SizeBytes%(c.LineBytes*c.Assoc) != 0:
		return fmt.Errorf("%s: size %d not divisible by line*assoc (%d*%d)", name, c.SizeBytes, c.LineBytes, c.Assoc)
	case c.Sets()&(c.Sets()-1) != 0:
		return fmt.Errorf("%s: set count %d must be a power of two", name, c.Sets())
	case c.LatencyCycles <= 0:
		return fmt.Errorf("%s: latency must be positive, got %d", name, c.LatencyCycles)
	case c.Ports <= 0:
		return fmt.Errorf("%s: ports must be positive, got %d", name, c.Ports)
	case !c.Replacement.Valid():
		return fmt.Errorf("%s: unknown replacement policy %q", name, c.Replacement)
	}
	return nil
}

// CPUConfig describes the out-of-order core.
type CPUConfig struct {
	IssueWidth  int `json:"issue_width"`  // instructions dispatched per cycle
	RetireWidth int `json:"retire_width"` // instructions retired per cycle
	ROBEntries  int `json:"rob_entries"`
	LSQEntries  int `json:"lsq_entries"`
	// BranchPenalty is the flush penalty in cycles on a mispredicted branch.
	BranchPenalty int `json:"branch_penalty"`
	// BimodalEntries sizes the bimodal predictor's 2-bit counter table.
	BimodalEntries int `json:"bimodal_entries"`
	// BTBSets and BTBAssoc size the branch target buffer.
	BTBSets  int `json:"btb_sets"`
	BTBAssoc int `json:"btb_assoc"`
	// MSHRs bounds concurrently outstanding demand load misses; 0 means
	// unlimited (the paper does not specify a bound, and the default
	// machine leaves memory-level parallelism to the LSQ/ROB limits).
	MSHRs int `json:"mshrs"`
}

// Validate checks the core parameters.
func (c CPUConfig) Validate() error {
	switch {
	case c.IssueWidth <= 0:
		return fmt.Errorf("cpu: issue width must be positive, got %d", c.IssueWidth)
	case c.RetireWidth <= 0:
		return fmt.Errorf("cpu: retire width must be positive, got %d", c.RetireWidth)
	case !entries(c.ROBEntries):
		return fmt.Errorf("cpu: ROB entries must be in [1,%d], got %d", maxEntries, c.ROBEntries)
	case !entries(c.LSQEntries):
		return fmt.Errorf("cpu: LSQ entries must be in [1,%d], got %d", maxEntries, c.LSQEntries)
	case c.BranchPenalty < 0:
		return fmt.Errorf("cpu: branch penalty must be non-negative, got %d", c.BranchPenalty)
	case !pow2Entries(c.BimodalEntries):
		return fmt.Errorf("cpu: bimodal entries must be a power of two in [1,%d], got %d", maxEntries, c.BimodalEntries)
	case !pow2Entries(c.BTBSets):
		return fmt.Errorf("cpu: BTB sets must be a power of two in [1,%d], got %d", maxEntries, c.BTBSets)
	case c.BTBAssoc <= 0 || c.BTBSets > maxEntries/c.BTBAssoc:
		return fmt.Errorf("cpu: BTB associativity must be positive with sets*assoc at most %d, got %d*%d", maxEntries, c.BTBSets, c.BTBAssoc)
	case c.MSHRs < 0 || c.MSHRs > maxEntries:
		return fmt.Errorf("cpu: MSHRs must be in [0,%d], got %d", maxEntries, c.MSHRs)
	}
	return nil
}

// PrefetchConfig controls the prefetch generators and queue.
type PrefetchConfig struct {
	// EnableNSP turns on tagged next-sequence prefetching.
	EnableNSP bool `json:"enable_nsp"`
	// EnableSDP turns on shadow-directory prefetching at the L2.
	EnableSDP bool `json:"enable_sdp"`
	// EnableStride turns on the reference-prediction-table stride prefetcher
	// (an extension beyond the paper's two hardware prefetchers).
	EnableStride bool `json:"enable_stride"`
	// EnableCorrelation turns on the miss-pair correlation prefetcher
	// (Charney & Reeves, the paper's reference [2] — extension).
	EnableCorrelation bool `json:"enable_correlation"`
	// EnableSoftware honours software prefetch records in the trace.
	EnableSoftware bool `json:"enable_software"`
	// QueueEntries is the prefetch queue depth (Table 1: 64).
	QueueEntries int `json:"queue_entries"`
	// Degree is how many sequential lines NSP fetches per trigger (paper: 1).
	Degree int `json:"degree"`
	// StrideEntries sizes the RPT when EnableStride is set.
	StrideEntries int `json:"stride_entries"`
	// CorrelationSets and CorrelationAssoc size the correlation table.
	CorrelationSets  int `json:"correlation_sets"`
	CorrelationAssoc int `json:"correlation_assoc"`

	// Generator-zoo backends (internal/prefetch registry). All table
	// budgets are log2-sized in the ChampSim exemplar idiom, and every
	// field is omitted from the JSON encoding when unset so
	// configurations that never name these backends keep their pre-zoo
	// canonical encoding — and therefore their memo cache keys and
	// harness fingerprints — byte-identical.

	// EnableBerti turns on the Berti-style latency-aware local-delta
	// prefetcher. Enabling it requires explicit table budgets
	// (WithGenerator fills in the defaults).
	EnableBerti bool `json:"enable_berti,omitempty"`
	// BertiHistoryLog2 sizes the per-PC history table (log2 entries).
	BertiHistoryLog2 int `json:"berti_history_log2,omitempty"`
	// BertiLatencyLog2 sizes the reuse-latency table (log2 entries).
	BertiLatencyLog2 int `json:"berti_latency_log2,omitempty"`
	// BertiShadowLog2 sizes the shadow table tracking issued prefetches
	// for usefulness/timeliness accounting (log2 entries).
	BertiShadowLog2 int `json:"berti_shadow_log2,omitempty"`

	// EnableGHB turns on the GHB/PC-delta-correlation prefetcher.
	// Enabling it requires explicit table budgets.
	EnableGHB bool `json:"enable_ghb,omitempty"`
	// GHBLog2 sizes the global history buffer (log2 entries).
	GHBLog2 int `json:"ghb_log2,omitempty"`
	// GHBIndexLog2 sizes the PC index table (log2 entries).
	GHBIndexLog2 int `json:"ghb_index_log2,omitempty"`
	// GHBMaxDegree is the ceiling of the accuracy-gated prefetch degree;
	// the live degree starts at 1 and never exceeds this.
	GHBMaxDegree int `json:"ghb_max_degree,omitempty"`
}

// Default generator-zoo table budgets, applied by WithGenerator. The
// log2 sizing keeps hardware cost explicit. The PC-indexed tables are
// sized for the workload models' deliberately large static instruction
// footprints (every model spreads its loop kernel over dozens of code
// contexts, like unrolled/inlined real programs): a 1024-entry history
// table plays the role a smaller set-associative one would in hardware.
const (
	DefaultBertiHistoryLog2 = 10
	DefaultBertiLatencyLog2 = 8
	DefaultBertiShadowLog2  = 8
	DefaultGHBLog2          = 13
	DefaultGHBIndexLog2     = 10
	DefaultGHBMaxDegree     = 4
)

// Upper bounds on every size a config names. They sit far beyond any
// hardware-realistic structure, and they keep a config from untrusted
// input from asking for more memory or per-event work than a host has.
const (
	// maxTableLog2 bounds every log2-sized table budget.
	maxTableLog2 = 16
	// maxEntries bounds every entry count, and the product of sets and
	// ways: tables, queues, buffers, the ROB and the LSQ.
	maxEntries = 1 << maxTableLog2
	// maxCacheBytes and maxCacheLines bound one cache's capacity.
	maxCacheBytes = 64 << 20
	maxCacheLines = 1 << 20
	// maxDegree bounds every prefetch degree: candidates per trigger.
	maxDegree = 16
)

// entries reports whether n is a usable entry count.
func entries(n int) bool { return n > 0 && n <= maxEntries }

// pow2Entries reports whether n is a usable power-of-two entry count.
func pow2Entries(n int) bool { return entries(n) && n&(n-1) == 0 }

// generatorFlag pairs a generator kind with its enable flag.
type generatorFlag struct {
	kind PrefetchKind
	on   *bool
}

// generatorFlags is the one list of generator enable flags, in the
// deterministic order the hierarchy composes them: the historical
// NSP → SDP → stride → correlation order, then the zoo additions.
func (c *PrefetchConfig) generatorFlags() [6]generatorFlag {
	return [...]generatorFlag{
		{PrefetchNSP, &c.EnableNSP},
		{PrefetchSDP, &c.EnableSDP},
		{PrefetchStride, &c.EnableStride},
		{PrefetchCorrelation, &c.EnableCorrelation},
		{PrefetchBerti, &c.EnableBerti},
		{PrefetchGHB, &c.EnableGHB},
	}
}

// Enabled returns the enabled generator kinds in composition order.
func (c PrefetchConfig) Enabled() []PrefetchKind {
	var kinds []PrefetchKind
	for _, g := range c.generatorFlags() {
		if *g.on {
			kinds = append(kinds, g.kind)
		}
	}
	return kinds
}

// Validate checks the prefetch parameters.
func (c PrefetchConfig) Validate() error {
	switch {
	case !entries(c.QueueEntries):
		return fmt.Errorf("prefetch: queue entries must be in [1,%d], got %d", maxEntries, c.QueueEntries)
	case c.Degree <= 0 || c.Degree > maxDegree:
		return fmt.Errorf("prefetch: degree must be in [1,%d], got %d", maxDegree, c.Degree)
	case c.EnableStride && !pow2Entries(c.StrideEntries):
		return fmt.Errorf("prefetch: stride entries must be a power of two in [1,%d], got %d", maxEntries, c.StrideEntries)
	case c.EnableCorrelation && !pow2Entries(c.CorrelationSets):
		return fmt.Errorf("prefetch: correlation sets must be a power of two in [1,%d], got %d", maxEntries, c.CorrelationSets)
	case c.EnableCorrelation && (c.CorrelationAssoc <= 0 || c.CorrelationSets > maxEntries/c.CorrelationAssoc):
		return fmt.Errorf("prefetch: correlation associativity must be positive with sets*assoc at most %d, got %d*%d", maxEntries, c.CorrelationSets, c.CorrelationAssoc)
	}
	if c.EnableBerti {
		for _, b := range []struct {
			name string
			log2 int
		}{
			{"berti history", c.BertiHistoryLog2},
			{"berti latency", c.BertiLatencyLog2},
			{"berti shadow", c.BertiShadowLog2},
		} {
			if b.log2 <= 0 || b.log2 > maxTableLog2 {
				return fmt.Errorf("prefetch: %s log2 budget must be in [1,%d], got %d", b.name, maxTableLog2, b.log2)
			}
		}
	}
	if c.EnableGHB {
		switch {
		case c.GHBLog2 <= 0 || c.GHBLog2 > maxTableLog2:
			return fmt.Errorf("prefetch: ghb log2 budget must be in [1,%d], got %d", maxTableLog2, c.GHBLog2)
		case c.GHBIndexLog2 <= 0 || c.GHBIndexLog2 > maxTableLog2:
			return fmt.Errorf("prefetch: ghb index log2 budget must be in [1,%d], got %d", maxTableLog2, c.GHBIndexLog2)
		case c.GHBMaxDegree <= 0 || c.GHBMaxDegree > maxDegree:
			return fmt.Errorf("prefetch: ghb max degree must be in [1,%d], got %d", maxDegree, c.GHBMaxDegree)
		}
	}
	return nil
}

// FilterConfig controls the pollution filter.
type FilterConfig struct {
	Kind FilterKind `json:"kind"`
	// TableEntries is the history table length; must be a power of two.
	// Table 1 default: 4096 entries (1KB of 2-bit counters).
	TableEntries int `json:"table_entries"`
	// InitialCounter seeds new table entries; the paper issues first-touch
	// prefetches, implying a weakly-good initial state (2).
	InitialCounter uint8 `json:"initial_counter"`
	// Threshold is the minimum counter value that predicts "good".
	Threshold uint8 `json:"threshold"`
	// AdaptiveAccuracy: when Kind is FilterAdaptive, filtering engages only
	// while the observed fraction of good prefetches is below this value.
	AdaptiveAccuracy float64 `json:"adaptive_accuracy"`
	// AdaptiveWindow: number of classified prefetches per accuracy sample.
	AdaptiveWindow int `json:"adaptive_window"`

	// Per-backend parameters for the internal/filter zoo. All are
	// optional (zero selects the backend's default) and omitted from the
	// JSON encoding when unset, so configurations that never name these
	// backends keep their pre-zoo canonical encoding — and therefore
	// their memo cache keys and harness fingerprints — byte-identical.

	// PerceptronEntries sizes each per-feature weight table (power of
	// two; default 1024).
	PerceptronEntries int `json:"perceptron_entries,omitempty"`
	// PerceptronTheta is the training threshold: weights train whenever
	// the prediction was wrong or |sum| <= theta (default 8).
	PerceptronTheta int `json:"perceptron_theta,omitempty"`

	// BloomEntries sizes the counting-Bloom counter array (power of two;
	// default 4096).
	BloomEntries int `json:"bloom_entries,omitempty"`
	// BloomHashes is the number of hash probes per key (default 2).
	BloomHashes int `json:"bloom_hashes,omitempty"`
	// BloomReject is the minimum count across all probes that predicts a
	// bad prefetch (default 2).
	BloomReject int `json:"bloom_reject,omitempty"`
	// BloomDecay halves every counter after this many trainings
	// (default 8192; negative disables decay).
	//pflint:allow configcov every value is legal: 0 selects the default, negative disables decay
	BloomDecay int `json:"bloom_decay,omitempty"`

	// TournamentA and TournamentB name the two duelling backends
	// (defaults: pa and perceptron). Neither may itself be a tournament,
	// static, or deadblock kind.
	TournamentA FilterKind `json:"tournament_a,omitempty"`
	TournamentB FilterKind `json:"tournament_b,omitempty"`
	// TournamentPselBits sizes the PSEL saturating counter (default 10).
	TournamentPselBits int `json:"tournament_psel_bits,omitempty"`
}

// Validate checks the filter parameters.
func (c FilterConfig) Validate() error {
	switch {
	case !pow2Entries(c.TableEntries):
		return fmt.Errorf("filter: table entries must be a power of two in [1,%d], got %d", maxEntries, c.TableEntries)
	case c.InitialCounter > 3:
		return fmt.Errorf("filter: initial counter must be a 2-bit value, got %d", c.InitialCounter)
	case c.Threshold > 3:
		return fmt.Errorf("filter: threshold must be a 2-bit value, got %d", c.Threshold)
	}
	if c.Kind == FilterAdaptive {
		if c.AdaptiveAccuracy <= 0 || c.AdaptiveAccuracy >= 1 {
			return fmt.Errorf("filter: adaptive accuracy must be in (0,1), got %g", c.AdaptiveAccuracy)
		}
		if !entries(c.AdaptiveWindow) {
			return fmt.Errorf("filter: adaptive window must be in [1,%d], got %d", maxEntries, c.AdaptiveWindow)
		}
	}
	switch {
	case c.PerceptronEntries != 0 && !pow2Entries(c.PerceptronEntries):
		return fmt.Errorf("filter: perceptron entries must be 0 or a power of two in [1,%d], got %d", maxEntries, c.PerceptronEntries)
	case c.PerceptronTheta < 0:
		return fmt.Errorf("filter: perceptron theta must be non-negative, got %d", c.PerceptronTheta)
	case c.BloomEntries != 0 && !pow2Entries(c.BloomEntries):
		return fmt.Errorf("filter: bloom entries must be 0 or a power of two in [1,%d], got %d", maxEntries, c.BloomEntries)
	case c.BloomHashes < 0 || c.BloomHashes > 8:
		return fmt.Errorf("filter: bloom hashes must be in [0,8], got %d", c.BloomHashes)
	case c.BloomReject < 0 || c.BloomReject > 15:
		return fmt.Errorf("filter: bloom reject threshold must be in [0,15], got %d", c.BloomReject)
	case c.TournamentPselBits < 0 || c.TournamentPselBits > 20:
		return fmt.Errorf("filter: tournament PSEL bits must be in [0,20], got %d", c.TournamentPselBits)
	}
	// Which names exist is the registries' business (sim.Validate), but
	// every name must survive the JSON encoding memo keys are made of:
	// encoding/json replaces invalid UTF-8, so two such names would
	// share one key.
	for _, k := range []FilterKind{c.Kind, c.TournamentA, c.TournamentB} {
		if !utf8.ValidString(string(k)) {
			return fmt.Errorf("filter: kind %q is not valid UTF-8", k)
		}
	}
	for _, side := range []FilterKind{c.TournamentA, c.TournamentB} {
		switch side.Canonical() {
		case FilterTournament, FilterStatic, FilterDeadBlock:
			return fmt.Errorf("filter: tournament side cannot be %q", side)
		}
	}
	return nil
}

// BufferConfig controls the optional dedicated prefetch buffer (§5.5).
type BufferConfig struct {
	// Enable routes prefetch fills into the buffer instead of the L1.
	Enable bool `json:"enable"`
	// Entries is the fully-associative buffer capacity (paper: 16).
	Entries int `json:"entries"`
}

// Validate checks the buffer parameters.
func (c BufferConfig) Validate() error {
	if c.Enable && !entries(c.Entries) {
		return fmt.Errorf("prefetch buffer: entries must be in [1,%d], got %d", maxEntries, c.Entries)
	}
	return nil
}

// TraceConfig selects a real-trace corpus to expose as benchmarks. It
// is harness configuration, not machine configuration: it deliberately
// lives outside Config so that loading a corpus never perturbs the
// machine's canonical JSON encoding (and therefore memo cache keys and
// harness fingerprints). internal/tracefile.RegisterCorpus consumes it.
type TraceConfig struct {
	// Manifest is the path to the corpus manifest JSON (see
	// docs/TRACES.md for the schema).
	Manifest string `json:"manifest"`
	// Verify fully scans every trace at registration: per-chunk CRCs,
	// stream fingerprint, and record count against the manifest.
	// Off, only the file header is checked.
	Verify bool `json:"verify"`
	// MaxChunkBytes caps the chunk payload size a reader will accept;
	// 0 selects the decoder's default (64 MiB).
	MaxChunkBytes int `json:"max_chunk_bytes"`
}

// Validate checks the trace-corpus parameters.
func (c TraceConfig) Validate() error {
	if c.Manifest == "" {
		return fmt.Errorf("trace: manifest path must be set")
	}
	if c.MaxChunkBytes < 0 {
		return fmt.Errorf("trace: max chunk bytes must be non-negative, got %d", c.MaxChunkBytes)
	}
	return nil
}

// Default log2-sized table budgets for the MANA-lite instruction
// prefetcher: 1024 footprint records over 8-block (256B) regions.
const (
	DefaultManaRecordsLog2 = 10
	DefaultManaRegionLog2  = 3
)

// maxManaRegionLog2 bounds the spatial-region size: footprints are one
// 64-bit bitvector, so a region is at most 2^6 blocks.
const maxManaRegionLog2 = 6

// FrontendConfig describes the I-side front end: the L1I geometry, the
// instruction-prefetch backend, and its bounded table budgets. It hangs
// off Config as an optional pointer so machines that never model the
// instruction side keep their pre-frontend canonical JSON encoding —
// and therefore their memo cache keys and harness fingerprints —
// byte-identical.
type FrontendConfig struct {
	// L1I is the instruction cache beside the L1D; its line size must
	// match the L2's.
	L1I CacheConfig `json:"l1i"`
	// IPrefetch selects the instruction-prefetch backend ("none"
	// disables prefetching but keeps the L1I).
	IPrefetch IPrefetchKind `json:"iprefetch"`
	// QueueEntries bounds the instruction-prefetch request queue.
	QueueEntries int `json:"queue_entries"`
	// Degree caps the candidates a backend may emit per fetch-block
	// event (sequential depth for nextline, footprint replay width for
	// mana).
	Degree int `json:"degree"`
	// ManaRecordsLog2 is the log2 size of the MANA record table; only
	// meaningful (and only validated) when IPrefetch is "mana".
	ManaRecordsLog2 int `json:"mana_records_log2,omitempty"`
	// ManaRegionLog2 is the log2 spatial-region size in blocks, at most
	// 6 (footprints are one 64-bit bitvector per record).
	ManaRegionLog2 int `json:"mana_region_log2,omitempty"`
}

// DefaultFrontend returns the default I-side machine: an 8KB
// direct-mapped 1-cycle single-ported L1I matching the Table 1 L1D
// geometry, no instruction prefetching.
func DefaultFrontend() FrontendConfig {
	return FrontendConfig{
		L1I: CacheConfig{
			SizeBytes:     8 * 1024,
			LineBytes:     32,
			Assoc:         1,
			LatencyCycles: 1,
			Ports:         1,
			Replacement:   ReplaceLRU,
		},
		IPrefetch:    IPrefetchNone,
		QueueEntries: 32,
		Degree:       2,
	}
}

// Validate checks the front-end parameters against the L2 line size.
func (c FrontendConfig) Validate(l2LineBytes int) error {
	if err := c.L1I.Validate("l1i"); err != nil {
		return err
	}
	if c.L1I.LineBytes != l2LineBytes {
		return fmt.Errorf("frontend: l1i line size %d must equal l2 line size %d", c.L1I.LineBytes, l2LineBytes)
	}
	if !utf8.ValidString(string(c.IPrefetch)) {
		return fmt.Errorf("frontend: instruction-prefetch kind %q is not valid UTF-8", c.IPrefetch)
	}
	if !entries(c.QueueEntries) {
		return fmt.Errorf("frontend: queue entries must be in [1,%d], got %d", maxEntries, c.QueueEntries)
	}
	if c.Degree <= 0 || c.Degree > maxDegree {
		return fmt.Errorf("frontend: degree must be in [1,%d], got %d", maxDegree, c.Degree)
	}
	if c.IPrefetch.Canonical() == IPrefetchMANA {
		if c.ManaRecordsLog2 <= 0 || c.ManaRecordsLog2 > maxTableLog2 {
			return fmt.Errorf("frontend: mana records log2 budget must be in [1,%d], got %d", maxTableLog2, c.ManaRecordsLog2)
		}
		if c.ManaRegionLog2 <= 0 || c.ManaRegionLog2 > maxManaRegionLog2 {
			return fmt.Errorf("frontend: mana region log2 must be in [1,%d], got %d", maxManaRegionLog2, c.ManaRegionLog2)
		}
	}
	return nil
}

// Config is the complete machine description.
type Config struct {
	CPU            CPUConfig      `json:"cpu"`
	L1             CacheConfig    `json:"l1"`
	L2             CacheConfig    `json:"l2"`
	MemoryLatency  int            `json:"memory_latency"` // core cycles (Table 1: 150)
	BusBytesPerCyc int            `json:"bus_bytes_per_cycle"`
	Prefetch       PrefetchConfig `json:"prefetch"`
	Filter         FilterConfig   `json:"filter"`
	Buffer         BufferConfig   `json:"buffer"`
	// Frontend enables the I-side model (L1I + fetch stream +
	// instruction prefetching); nil keeps the paper's D-side-only
	// machine and — via omitempty — its canonical JSON encoding.
	Frontend *FrontendConfig `json:"frontend,omitempty"`
	// VictimEntries adds a fully-associative victim cache behind the L1
	// (0 disables — the paper's machine). See internal/victim.
	VictimEntries int `json:"victim_entries"`
	// Seed drives every random decision in the run.
	//pflint:allow configcov any uint64 is a valid seed
	Seed uint64 `json:"seed"`
	// MaxInstructions bounds the run; 0 means run the trace to completion.
	MaxInstructions int64 `json:"max_instructions"`
}

// Default returns the Table 1 machine: 8KB direct-mapped 1-cycle 3-port L1.
func Default() Config {
	return Config{
		CPU: CPUConfig{
			IssueWidth:     8,
			RetireWidth:    8,
			ROBEntries:     128,
			LSQEntries:     64,
			BranchPenalty:  7,
			BimodalEntries: 2048,
			BTBSets:        4096,
			BTBAssoc:       4,
		},
		L1: CacheConfig{
			SizeBytes:     8 * 1024,
			LineBytes:     32,
			Assoc:         1,
			LatencyCycles: 1,
			Ports:         3,
			Replacement:   ReplaceLRU,
		},
		L2: CacheConfig{
			SizeBytes:     512 * 1024,
			LineBytes:     32,
			Assoc:         4,
			LatencyCycles: 15,
			Ports:         1,
			Replacement:   ReplaceLRU,
		},
		MemoryLatency:  150,
		BusBytesPerCyc: 8, // 64-byte-wide bus at memory speed ≈ 8B/core-cycle
		Prefetch: PrefetchConfig{
			EnableNSP:        true,
			EnableSDP:        true,
			EnableStride:     false,
			EnableSoftware:   true,
			QueueEntries:     64,
			Degree:           1,
			StrideEntries:    256,
			CorrelationSets:  1024,
			CorrelationAssoc: 2,
		},
		Filter: FilterConfig{
			Kind:             FilterNone,
			TableEntries:     4096,
			InitialCounter:   2,
			Threshold:        2,
			AdaptiveAccuracy: 0.5,
			AdaptiveWindow:   1024,
		},
		Buffer: BufferConfig{Enable: false, Entries: 16},
		Seed:   1,
	}
}

// Default8K is an alias for Default, named for symmetry with Default32K.
func Default8K() Config { return Default() }

// Default16K returns the §5.2.1 comparison machine: a 16KB L1, same latency,
// used to show that a 1KB history table beats simply doubling the cache.
func Default16K() Config {
	c := Default()
	c.L1.SizeBytes = 16 * 1024
	return c
}

// Default32K returns the §5.2.2 machine: 32KB L1 with a 4-cycle access.
func Default32K() Config {
	c := Default()
	c.L1.SizeBytes = 32 * 1024
	c.L1.LatencyCycles = 4
	return c
}

// WithFilter returns a copy of c using the given filter kind.
func (c Config) WithFilter(kind FilterKind) Config {
	c.Filter.Kind = kind
	return c
}

// WithTableEntries returns a copy of c with the history table resized.
func (c Config) WithTableEntries(entries int) Config {
	c.Filter.TableEntries = entries
	return c
}

// WithL1Ports returns a copy of c with the §5.4 port/latency pairing:
// 3 ports → 1 cycle, 4 ports → 2 cycles, 5 ports → 3 cycles (8KB L1).
func (c Config) WithL1Ports(ports int) Config {
	c.L1.Ports = ports
	switch ports {
	case 3:
		c.L1.LatencyCycles = 1
	case 4:
		c.L1.LatencyCycles = 2
	case 5:
		c.L1.LatencyCycles = 3
	}
	return c
}

// WithGenerator returns a copy of c running exactly one hardware
// prefetch generator: every generator (and software prefetching) is
// switched off, then the named kind is enabled with the default table
// budgets. This is the cell configuration of the (generator × filter)
// cross-product — it isolates one generator's candidate stream so the
// pollution filter is judged against that generator alone. An unknown
// kind, or "", leaves every generator off: the no-prefetch machine.
func (c Config) WithGenerator(kind PrefetchKind) Config {
	p := &c.Prefetch
	p.EnableSoftware = false
	kind = kind.Canonical()
	for _, g := range p.generatorFlags() {
		*g.on = g.kind == kind
	}
	switch kind {
	case PrefetchBerti:
		p.BertiHistoryLog2 = DefaultBertiHistoryLog2
		p.BertiLatencyLog2 = DefaultBertiLatencyLog2
		p.BertiShadowLog2 = DefaultBertiShadowLog2
	case PrefetchGHB:
		p.GHBLog2 = DefaultGHBLog2
		p.GHBIndexLog2 = DefaultGHBIndexLog2
		p.GHBMaxDegree = DefaultGHBMaxDegree
	}
	return c
}

// WithIPrefetch returns a copy of c with the I-side front end enabled
// and exactly one instruction-prefetch backend selected with its
// default table budgets. Like WithGenerator, every D-side generator
// (and software prefetching) is switched off so the pollution filter is
// judged against the instruction-prefetch stream alone — this is the
// cell configuration of the (iprefetcher × filter) cross-product.
func (c Config) WithIPrefetch(kind IPrefetchKind) Config {
	c = c.WithGenerator("")
	fe := DefaultFrontend()
	fe.IPrefetch = kind.Canonical()
	if fe.IPrefetch == IPrefetchMANA {
		fe.ManaRecordsLog2 = DefaultManaRecordsLog2
		fe.ManaRegionLog2 = DefaultManaRegionLog2
	}
	c.Frontend = &fe
	return c
}

// WithPrefetchBuffer returns a copy of c with the dedicated buffer toggled.
func (c Config) WithPrefetchBuffer(enable bool) Config {
	c.Buffer.Enable = enable
	return c
}

// Validate checks the whole configuration.
func (c Config) Validate() error {
	if err := c.CPU.Validate(); err != nil {
		return err
	}
	if err := c.L1.Validate("l1"); err != nil {
		return err
	}
	if err := c.L2.Validate("l2"); err != nil {
		return err
	}
	if c.L1.LineBytes != c.L2.LineBytes {
		return fmt.Errorf("l1 line size %d must equal l2 line size %d", c.L1.LineBytes, c.L2.LineBytes)
	}
	if c.MemoryLatency <= 0 {
		return fmt.Errorf("memory latency must be positive, got %d", c.MemoryLatency)
	}
	if c.BusBytesPerCyc <= 0 {
		return fmt.Errorf("bus bytes/cycle must be positive, got %d", c.BusBytesPerCyc)
	}
	if err := c.Prefetch.Validate(); err != nil {
		return err
	}
	if err := c.Filter.Validate(); err != nil {
		return err
	}
	if err := c.Buffer.Validate(); err != nil {
		return err
	}
	if c.Frontend != nil {
		if err := c.Frontend.Validate(c.L2.LineBytes); err != nil {
			return err
		}
	}
	if c.VictimEntries < 0 || c.VictimEntries > maxEntries {
		return fmt.Errorf("victim entries must be in [0,%d], got %d", maxEntries, c.VictimEntries)
	}
	if c.MaxInstructions < 0 {
		return fmt.Errorf("max instructions must be non-negative, got %d", c.MaxInstructions)
	}
	return nil
}

// String renders the config as indented JSON.
func (c Config) String() string {
	b, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return fmt.Sprintf("config{error: %v}", err)
	}
	return string(b)
}

// Parse decodes a JSON configuration and validates it.
func Parse(data []byte) (Config, error) {
	var c Config
	if err := json.Unmarshal(data, &c); err != nil {
		return Config{}, fmt.Errorf("config: %w", err)
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}
