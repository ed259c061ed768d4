package experiments

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/tracefile"
)

// The sample corpus is registered process-globally (the workload registry
// keeps the file path for the binary's lifetime), so it lives in a
// process-lifetime temp dir cleaned up by TestMain, not a t.TempDir.
var (
	sampleCorpusOnce sync.Once
	sampleCorpusDir  string
	sampleCorpusErr  error
	sampleBench      string
)

func TestMain(m *testing.M) {
	code := m.Run()
	if sampleCorpusDir != "" {
		_ = os.RemoveAll(sampleCorpusDir)
	}
	os.Exit(code)
}

// registerSampleCorpus converts the checked-in ChampSim fixture into a
// one-trace corpus and registers it (verified), once per process.
func registerSampleCorpus(t *testing.T) string {
	t.Helper()
	sampleCorpusOnce.Do(func() { sampleCorpusErr = buildSampleCorpus() })
	if sampleCorpusErr != nil {
		t.Fatal(sampleCorpusErr)
	}
	return sampleBench
}

func buildSampleCorpus() error {
	in, err := os.Open(filepath.Join("..", "tracefile", "testdata", "sample.champsim.gz"))
	if err != nil {
		return err
	}
	defer func() { _ = in.Close() }() // read-only
	src, err := tracefile.MaybeGzip(in)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "pftc-corpus-")
	if err != nil {
		return err
	}
	sampleCorpusDir = dir
	out, err := os.Create(filepath.Join(dir, "sample.pftc"))
	if err != nil {
		return err
	}
	st, err := tracefile.ConvertChampSim(src, out, tracefile.WriterOptions{})
	if err != nil {
		_ = out.Close() // the convert error takes precedence
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}
	manifest := filepath.Join(dir, "corpus.json")
	m := tracefile.Manifest{Version: tracefile.ManifestVersion}
	m.Upsert(tracefile.ManifestEntry{
		Name:          "exp-sample",
		File:          "sample.pftc",
		SHA256:        st.Fingerprint,
		Records:       st.Records,
		FormatVersion: tracefile.Version,
	})
	if err := tracefile.SaveManifest(manifest, m); err != nil {
		return err
	}
	names, err := tracefile.RegisterCorpus(config.TraceConfig{Manifest: manifest, Verify: true})
	if err != nil {
		return err
	}
	sampleBench = names[0]
	return nil
}

// TestTraceComparisonDeterministicAcrossWorkers replays the sample trace
// through the PA filter at 1, 4, and 8 workers: the comparison rows must
// be byte-identical (the trace is the program; scheduling must not leak
// into results).
func TestTraceComparisonDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("trace replay sweep is not short")
	}
	bench := registerSampleCorpus(t)
	var want string
	for _, workers := range []int{1, 4, 8} {
		p := Params{Instructions: 20_000, Warmup: 5_000, Seed: 1, Benchmarks: []string{bench}, Workers: workers}
		cells, err := p.Sweep(context.Background(), nil, nil, []string{"pa"})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		rows := Rows(cells)
		if len(rows) == 0 {
			t.Fatalf("workers=%d: no rows", workers)
		}
		for _, r := range rows {
			if r.Benchmark != bench {
				t.Fatalf("workers=%d: row for %q, want %q", workers, r.Benchmark, bench)
			}
			if r.IPC <= 0 {
				t.Fatalf("workers=%d: non-positive IPC in %+v", workers, r)
			}
		}
		buf, err := json.Marshal(rows)
		if err != nil {
			t.Fatal(err)
		}
		if got := string(buf); want == "" {
			want = got
		} else if got != want {
			t.Fatalf("workers=%d rows diverged:\n%s\nwant:\n%s", workers, got, want)
		}
	}
}

// TestTraceComparisonUnknownTrace lists the registered corpus in the
// error (the server's 400 body), and resolves names with or without the
// "trace:" prefix onto one benchmark.
func TestTraceComparisonUnknownTrace(t *testing.T) {
	bench := registerSampleCorpus(t)
	_, err := ExpandTraces([]string{"trace:nope"})
	if err == nil {
		t.Fatal("unknown trace accepted")
	}
	if !strings.Contains(err.Error(), "trace:nope") || !strings.Contains(err.Error(), "trace:exp-sample") {
		t.Fatalf("error %q should name the unknown trace and the registered corpus", err)
	}
	got, err := ExpandTraces([]string{"exp-sample", bench})
	if err != nil || len(got) != 1 || got[0] != bench {
		t.Fatalf("ExpandTraces(exp-sample, %s) = %v, %v; want [%s]", bench, got, err, bench)
	}
}

// TestTracesExperimentWithCorpus runs the registered traces experiment
// end to end once a corpus exists.
func TestTracesExperimentWithCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("trace replay sweep is not short")
	}
	registerSampleCorpus(t)
	p := Params{Instructions: 10_000, Warmup: 2_000, Seed: 1}
	e, ok := ByID("traces")
	if !ok {
		t.Fatal("traces experiment not registered")
	}
	tab, err := e.Run(context.Background(), &p)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("traces experiment produced no rows with a registered corpus")
	}
	if !strings.Contains(tab.String(), "trace:exp-sample") {
		t.Fatalf("table missing the corpus benchmark:\n%s", tab.String())
	}
}
