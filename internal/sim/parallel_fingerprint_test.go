package sim_test

// Parallel-determinism fingerprint: RunCells over the full standard
// evaluation matrix with 8 workers must produce a byte-identical cache
// fingerprint to a serial batch. This is the external test package (the
// experiments harness imports sim, so the test cannot live in package
// sim), and it must pass under `go test -race`.

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// smallParams returns a tiny but full-matrix budget: every (benchmark,
// config) pair of the standard matrix, few enough instructions that the
// whole sweep stays under a few seconds.
func smallParams() experiments.Params {
	return experiments.Params{Instructions: 10_000, Warmup: 2_000, Seed: 1}
}

// TestRunCellsParallelDeterminism runs the standard matrix serially and
// with 4 and 8 workers and requires byte-identical fingerprints at every
// width: the worker pool (and whatever completion order it happens to
// produce) must not change any simulation result, only the wall time.
func TestRunCellsParallelDeterminism(t *testing.T) {
	serial := smallParams()
	serial.Workers = 1
	if err := serial.RunCells(context.Background(), serial.StandardMatrix()); err != nil {
		t.Fatal(err)
	}
	want := serial.Fingerprint()
	if len(want) == 0 {
		t.Fatal("the serial batch produced an empty fingerprint")
	}

	for _, workers := range []int{4, 8} {
		par := smallParams()
		par.Workers = workers
		if err := par.RunCells(context.Background(), par.StandardMatrix()); err != nil {
			t.Fatal(err)
		}
		got := par.Fingerprint()

		if par.CachedRuns() != serial.CachedRuns() {
			t.Fatalf("workers=%d: cached runs differ: parallel %d, serial %d",
				workers, par.CachedRuns(), serial.CachedRuns())
		}
		if !bytes.Equal(got, want) {
			d := firstDiff(got, want)
			t.Fatalf("workers=%d: parallel fingerprint diverges from serial at byte %d:\nparallel: %s\nserial:   %s",
				workers, d, excerpt(got, d), excerpt(want, d))
		}
	}
}

// TestRunCellsJoinsAllErrors injects two bogus benchmark names and
// requires RunCells to report both (errors.Join), not just the first,
// while still completing the valid benchmark's share of the matrix.
func TestRunCellsJoinsAllErrors(t *testing.T) {
	p := smallParams()
	p.Benchmarks, p.Workers = []string{"mcf", "nope1", "nope2"}, 4
	err := p.RunCells(context.Background(), p.StandardMatrix())
	if err == nil {
		t.Fatal("RunCells with bogus benchmarks returned nil error")
	}
	for _, name := range []string{"nope1", "nope2"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("joined error missing %q: %v", name, err)
		}
	}
	// errors.Join wraps a slice; Unwrap() []error must expose >= 2 entries
	// (one per bogus benchmark per distinct config — at least 2).
	if u, ok := err.(interface{ Unwrap() []error }); !ok {
		t.Errorf("RunCells error is not a joined error: %T", err)
	} else if n := len(u.Unwrap()); n < 2 {
		t.Errorf("joined error holds %d entries, want >= 2", n)
	}
	if p.CachedRuns() == 0 {
		t.Error("valid benchmark runs were not cached alongside the failures")
	}
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

func excerpt(b []byte, at int) string {
	lo := max(0, at-40)
	hi := min(len(b), at+40)
	return string(b[lo:hi])
}
