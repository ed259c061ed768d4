// Corpus management: the manifest that names a set of PFTC traces and
// the registration path that turns each one into a first-class workload
// benchmark ("trace:<name>") next to the ten synthetic models.

package tracefile

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/workload"
)

// BenchPrefix prefixes every registered trace benchmark's name, keeping
// the trace namespace disjoint from the synthetic models'.
const BenchPrefix = "trace:"

// ManifestVersion is the corpus manifest schema version this package
// reads and writes.
const ManifestVersion = 1

// ManifestEntry describes one trace in a corpus manifest.
type ManifestEntry struct {
	// Name is the benchmark name (registered as "trace:<name>").
	Name string `json:"name"`
	// File is the PFTC file path, relative to the manifest's directory
	// unless absolute.
	File string `json:"file"`
	// SHA256 is the hex stream fingerprint from the PFTC trailer — the
	// chunk-size-independent identity of the record sequence.
	SHA256 string `json:"sha256"`
	// Records is the trace's total record count.
	Records uint64 `json:"records"`
	// FormatVersion is the PFTC format version of the file.
	FormatVersion int `json:"format_version"`
}

// Manifest is a corpus manifest: the set of traces an experiment run or
// server instance exposes as benchmarks.
type Manifest struct {
	Version int             `json:"version"`
	Traces  []ManifestEntry `json:"traces"`
}

// Validate checks structural sanity: schema version, no duplicate or
// empty names, complete entries.
func (m Manifest) Validate() error {
	if m.Version != ManifestVersion {
		return fmt.Errorf("tracefile: manifest version %d, support %d", m.Version, ManifestVersion)
	}
	seen := map[string]bool{}
	for i, e := range m.Traces {
		switch {
		case e.Name == "":
			return fmt.Errorf("tracefile: manifest entry %d: empty name", i)
		case e.File == "":
			return fmt.Errorf("tracefile: manifest entry %q: empty file", e.Name)
		case len(e.SHA256) != 64:
			return fmt.Errorf("tracefile: manifest entry %q: sha256 must be 64 hex chars, got %d", e.Name, len(e.SHA256))
		case e.Records == 0:
			return fmt.Errorf("tracefile: manifest entry %q: zero records", e.Name)
		case e.FormatVersion != Version:
			return fmt.Errorf("tracefile: manifest entry %q: format version %d, support %d", e.Name, e.FormatVersion, Version)
		case seen[e.Name]:
			return fmt.Errorf("tracefile: manifest entry %q duplicated", e.Name)
		}
		seen[e.Name] = true
	}
	return nil
}

// Upsert replaces the entry with e's name, or appends it.
func (m *Manifest) Upsert(e ManifestEntry) {
	for i := range m.Traces {
		if m.Traces[i].Name == e.Name {
			m.Traces[i] = e
			return
		}
	}
	m.Traces = append(m.Traces, e)
}

// LoadManifest reads and validates a corpus manifest.
func LoadManifest(path string) (Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Manifest{}, fmt.Errorf("tracefile: reading manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, fmt.Errorf("tracefile: parsing manifest %s: %w", path, err)
	}
	if err := m.Validate(); err != nil {
		return Manifest{}, err
	}
	return m, nil
}

// SaveManifest writes m to path as indented JSON with entries sorted by
// name, so regenerated manifests diff cleanly. Saving has no visible
// side effect on the caller: the sort happens on a copied slice, never
// through m's backing array.
func SaveManifest(path string, m Manifest) error {
	if m.Version == 0 {
		m.Version = ManifestVersion
	}
	m.Traces = append([]ManifestEntry(nil), m.Traces...)
	sort.Slice(m.Traces, func(i, j int) bool { return m.Traces[i].Name < m.Traces[j].Name })
	if err := m.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("tracefile: encoding manifest: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("tracefile: writing manifest: %w", err)
	}
	return nil
}

// registered maps benchmark name → manifest sha256 for every trace this
// process has registered, making corpus re-registration (same manifest
// loaded by several subsystems) idempotent.
var (
	regMu      sync.Mutex
	registered = map[string]string{}
)

// RegisterCorpus loads the manifest named by cfg and registers each
// trace as a workload benchmark "trace:<name>". It returns the
// registered benchmark names in manifest-sorted order. Re-registering a
// name with the same sha256 is a no-op; a different sha256 is an error.
// With cfg.Verify, every file is fully scanned (CRC per chunk, stream
// fingerprint and record count against the manifest); otherwise only
// the file header is checked.
//
// Registration is all-or-nothing: every entry is validated — file
// check, conflict check, and workload-name availability — before any
// entry mutates the workload registry, so a failing manifest leaves the
// process exactly as it was.
func RegisterCorpus(cfg config.TraceConfig) ([]string, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m, err := LoadManifest(cfg.Manifest)
	if err != nil {
		return nil, err
	}
	dir := filepath.Dir(cfg.Manifest)
	regMu.Lock()
	defer regMu.Unlock()

	// Phase 1: validate every entry without touching any registry.
	type pending struct {
		bench string
		path  string
		e     ManifestEntry
	}
	var commits []pending
	names := make([]string, 0, len(m.Traces))
	for _, e := range m.Traces {
		bench := BenchPrefix + e.Name
		names = append(names, bench)
		if prev, ok := registered[bench]; ok {
			if prev == e.SHA256 {
				continue
			}
			return nil, fmt.Errorf("tracefile: %s already registered with sha256 %s, manifest has %s", bench, prev, e.SHA256)
		}
		if _, taken := workload.ByName(bench); taken {
			return nil, fmt.Errorf("tracefile: benchmark %q already exists in the workload registry", bench)
		}
		path := e.File
		if !filepath.IsAbs(path) {
			path = filepath.Join(dir, path)
		}
		if err := checkEntry(path, e, cfg.MaxChunkBytes, cfg.Verify); err != nil {
			return nil, err
		}
		commits = append(commits, pending{bench: bench, path: path, e: e})
	}

	// Phase 2: commit. Every entry passed validation, so registration
	// can only fail on a workload-name collision — which phase 1 ruled
	// out under the same lock.
	for _, c := range commits {
		c := c
		spec := workload.Spec{
			Name:  c.bench,
			Suite: "trace",
			Input: filepath.Base(c.e.File),
			New: func(seed uint64) isa.Source {
				// Replay is seed-independent: the trace is the program.
				return newFileSource(c.path, cfg.MaxChunkBytes)
			},
		}
		if err := workload.RegisterExternal(spec); err != nil {
			// Unreachable given phase 1; surface it rather than hide it.
			return nil, err
		}
		registered[c.bench] = c.e.SHA256
	}
	sort.Strings(names)
	return names, nil
}

// checkEntry validates a manifest entry's file: header-only by default,
// full scan (CRCs, fingerprint, record count) when full is set.
func checkEntry(path string, e ManifestEntry, maxChunk int, full bool) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("tracefile: trace %q: %w", e.Name, err)
	}
	defer func() { _ = f.Close() }() // read-only
	if !full {
		if _, err := NewReader(f, ReaderOptions{MaxChunkBytes: maxChunk}); err != nil {
			return fmt.Errorf("tracefile: trace %q: %w", e.Name, err)
		}
		return nil
	}
	info, err := Inspect(f)
	if err != nil {
		return fmt.Errorf("tracefile: trace %q: %w", e.Name, err)
	}
	if info.Fingerprint != e.SHA256 {
		return fmt.Errorf("%w: trace %q: fingerprint %s, manifest has %s", ErrCorrupt, e.Name, info.Fingerprint, e.SHA256)
	}
	if info.Records != e.Records {
		return fmt.Errorf("%w: trace %q: %d records, manifest has %d", ErrCorrupt, e.Name, info.Records, e.Records)
	}
	return nil
}

// Registered returns every registered trace benchmark name, sorted —
// the list the server's 400 responses surface on an unknown trace.
func Registered() []string {
	regMu.Lock()
	defer regMu.Unlock()
	names := make([]string, 0, len(registered))
	for name := range registered {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// IsTraceBench reports whether name is in the trace benchmark namespace.
func IsTraceBench(name string) bool {
	return len(name) > len(BenchPrefix) && name[:len(BenchPrefix)] == BenchPrefix
}

// fileSource streams a PFTC file as an isa.BatchSource, looping back to the
// start on a clean end of trace so it satisfies the workload contract
// (models are infinite sources; the simulator bounds runs by instruction
// count). Decode errors stop the stream and surface from Close.
type fileSource struct {
	path     string
	maxChunk int

	f        *os.File
	r        *Reader
	passRecs uint64
	err      error
	done     bool
}

func newFileSource(path string, maxChunk int) *fileSource {
	s := &fileSource{path: path, maxChunk: maxChunk}
	f, err := os.Open(path)
	if err != nil {
		s.fail(err)
		return s
	}
	s.f = f
	s.attach()
	return s
}

// attach arms the Reader over the file's current start: a new one the
// first time, the same one re-armed on every loop-back.
func (s *fileSource) attach() {
	s.passRecs = 0
	if s.r != nil {
		if err := s.r.reset(s.f); err != nil {
			s.fail(err)
		}
		return
	}
	r, err := NewReader(s.f, ReaderOptions{MaxChunkBytes: s.maxChunk})
	if err != nil {
		s.fail(err)
		return
	}
	s.r = r
}

func (s *fileSource) fail(err error) {
	if s.err == nil {
		s.err = err
	}
	s.done = true
}

// Next implements isa.Source.
func (s *fileSource) Next() (isa.Record, bool) {
	var one [1]isa.Record
	if s.NextBatch(one[:]) == 0 {
		return isa.Record{}, false
	}
	return one[0], true
}

// NextBatch implements isa.BatchSource. A batch never spans a
// loop-back: the last batch of a pass ends with the trace's last record.
func (s *fileSource) NextBatch(dst []isa.Record) int {
	for !s.done {
		if n := s.r.NextBatch(dst); n > 0 {
			s.passRecs += uint64(n)
			return n
		}
		s.rewind()
	}
	return 0
}

// rewind handles the end of a pass: a decode error stops the stream, an
// empty trace reports exhaustion instead of spinning, and a clean end
// seeks back to the start for another pass.
func (s *fileSource) rewind() {
	if err := s.r.Err(); err != nil {
		s.fail(err)
		return
	}
	if s.passRecs == 0 {
		s.done = true
		return
	}
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		s.fail(err)
		return
	}
	s.attach()
}

// Close releases the file and returns the first error the source hit
// (decode or I/O), so trace corruption surfaces as a run error. It is
// idempotent.
func (s *fileSource) Close() error {
	s.done = true
	if s.f != nil {
		cerr := s.f.Close()
		s.f = nil
		if s.err == nil {
			s.err = cerr
		}
	}
	return s.err
}
