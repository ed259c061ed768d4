package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// TestPrewarmCancellationReportsContextErrorOnce pins the dedup fix: a
// cancelled RunCells batch stamps every unstarted job with the context
// error and then appends the context error itself, so without global
// dedup the joined message repeated the cancellation text. (The name is
// that of the batch step RunCells replaced.)
func TestPrewarmCancellationReportsContextErrorOnce(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := Params{Instructions: 30_000, Warmup: 10_000, Seed: 1, Benchmarks: []string{"fpppp"}, Workers: 2}
	err := p.RunCells(ctx, p.StandardMatrix())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch: err = %v", err)
	}
	if n := strings.Count(err.Error(), context.Canceled.Error()); n != 1 {
		t.Fatalf("context error reported %d times, want 1:\n%s", n, err)
	}
}

// TestDedupJoinGlobal covers the case the consecutive-only collapse
// missed: duplicates separated by a message that sorts between them.
func TestDedupJoinGlobal(t *testing.T) {
	a := errors.New("context canceled")
	b := errors.New("experiments: bad benchmark")
	joined := dedupJoin([]error{a, b, errors.New("context canceled")})
	if joined == nil {
		t.Fatal("join of non-empty errs is nil")
	}
	if n := strings.Count(joined.Error(), a.Error()); n != 1 {
		t.Fatalf("duplicate survived global dedup (%d copies):\n%s", n, joined)
	}
	if !strings.Contains(joined.Error(), b.Error()) {
		t.Fatalf("distinct error lost:\n%s", joined)
	}
	if dedupJoin(nil) != nil {
		t.Fatal("dedupJoin(nil) must be nil")
	}
}
