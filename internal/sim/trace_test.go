package sim

import (
	"bytes"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/config"
	"repro/internal/tracefile"
	"repro/internal/workload"
)

// The PFTC file header and chunk header are 16 bytes each (docs/TRACES.md).
const (
	pftcFileHeader  = 16
	pftcChunkHeader = 16
)

// TestTraceRunStopsAtItsBudget replays a PFTC trace whose second chunk
// fails its CRC. The core reads only the records its budget covers, so a
// run that ends inside the first chunk never loads the second and
// succeeds, while a run that needs one record more fails with the
// corruption.
func TestTraceRunStopsAtItsBudget(t *testing.T) {
	spec, _ := workload.ByName("gcc")
	var enc bytes.Buffer
	w, err := tracefile.NewWriter(&enc, tracefile.WriterOptions{ChunkBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	src := spec.New(1)
	for i := 0; i < 5000; i++ {
		rec, _ := src.Next()
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	chunks := w.Chunks()
	if len(chunks) < 3 {
		t.Fatalf("%d chunks; the test needs at least 3", len(chunks))
	}
	fp := w.Fingerprint()
	entry := tracefile.ManifestEntry{
		Name: "sim-budget-crc", File: "budget.pftc", Records: w.Count(),
		SHA256: hex.EncodeToString(fp[:]), FormatVersion: tracefile.Version,
	}
	dir := t.TempDir()
	manifest := filepath.Join(dir, "corpus.json")
	if err := tracefile.SaveManifest(manifest, tracefile.Manifest{Traces: []tracefile.ManifestEntry{entry}}); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of chunk 1 (the second chunk) after the file
	// passes registration's header check.
	data := bytes.Clone(enc.Bytes())
	data[pftcFileHeader+pftcChunkHeader+int(chunks[0].Bytes)+pftcChunkHeader+3] ^= 0x10
	if err := os.WriteFile(filepath.Join(dir, entry.File), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := tracefile.RegisterCorpus(config.TraceConfig{Manifest: manifest}); err != nil {
		t.Fatal(err)
	}

	first := int64(chunks[0].Records)
	for _, tc := range []struct {
		budget int64
		fail   bool
	}{{first / 2, false}, {first, false}, {first + 1, true}, {int64(w.Count()), true}} {
		_, err := Run(Options{
			Benchmark:       tracefile.BenchPrefix + entry.Name,
			Config:          config.Default(),
			MaxInstructions: tc.budget,
			Warmup:          -1,
		})
		switch {
		case tc.fail && !errors.Is(err, tracefile.ErrCorrupt):
			t.Errorf("budget %d reaches chunk 1: err = %v, want ErrCorrupt", tc.budget, err)
		case !tc.fail && err != nil:
			t.Errorf("budget %d ends in chunk 0: %v", tc.budget, err)
		}
	}
}
