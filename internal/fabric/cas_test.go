package fabric

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/stats"
)

func testRun(n uint64) stats.Run {
	return stats.Run{
		Benchmark:    "bench",
		Instructions: n,
		Cycles:       3 * n,
		Prefetches:   stats.Prefetches{Issued: n, Good: n / 2, Bad: n / 4},
	}
}

func openTestCAS(t *testing.T) (*CAS, *metrics.Registry) {
	t.Helper()
	m := metrics.New()
	c, err := OpenCAS(t.TempDir(), m)
	if err != nil {
		t.Fatalf("OpenCAS: %v", err)
	}
	return c, m
}

// entries counts the entry files in c's directory.
func entries(t *testing.T, c *CAS) int {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(c.Dir(), "*", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	return len(files)
}

func TestCASRoundTrip(t *testing.T) {
	c, m := openTestCAS(t)
	key := "mcf|n=100|w=10|seed=1|{}"

	if _, ok, err := c.Get(key); ok || err != nil {
		t.Fatalf("empty store: ok=%v err=%v, want miss with no error", ok, err)
	}
	want := testRun(100)
	if err := c.Put(key, want); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok, err := c.Get(key)
	if err != nil || !ok {
		t.Fatalf("Get after Put: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Get = %+v, want %+v", got, want)
	}

	// The sha-only lookup recovers the full key from the envelope.
	gotKey, got, ok, err := c.GetSHA(KeySHA(key))
	if err != nil || !ok {
		t.Fatalf("GetSHA: ok=%v err=%v", ok, err)
	}
	if gotKey != key || !reflect.DeepEqual(got, want) {
		t.Fatalf("GetSHA = (%q, %+v), want (%q, %+v)", gotKey, got, key, want)
	}

	if n := entries(t, c); n != 1 {
		t.Fatalf("%d entries, want 1", n)
	}
	snap := m.Snapshot()
	if snap.Counters["fabric.cas.fills"] != 1 || snap.Counters["fabric.cas.hits"] != 2 || snap.Counters["fabric.cas.misses"] != 1 {
		t.Fatalf("counters = %v, want 1 fill, 2 hits, 1 miss", snap.Counters)
	}
}

// TestCASPutIsIdempotent: repeated Puts of one key leave one entry and
// count one fill, since a verified entry is not written again; a corrupt
// entry is overwritten, and that counts as a fill.
func TestCASPutIsIdempotent(t *testing.T) {
	c, m := openTestCAS(t)
	key := "k"
	for i := 0; i < 3; i++ {
		if err := c.Put(key, testRun(7)); err != nil {
			t.Fatalf("Put #%d: %v", i, err)
		}
	}
	if n := entries(t, c); n != 1 {
		t.Fatalf("%d entries after repeated Put of one key, want 1", n)
	}
	if n := m.Snapshot().Counters["fabric.cas.fills"]; n != 1 {
		t.Fatalf("fills = %d after three Puts of one key, want 1", n)
	}
	if err := os.WriteFile(c.path(KeySHA(key)), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(key, testRun(7)); err != nil {
		t.Fatalf("Put over a corrupt entry: %v", err)
	}
	if got, ok, err := c.Get(key); !ok || err != nil || !reflect.DeepEqual(got, testRun(7)) {
		t.Fatalf("Get after overwriting a corrupt entry: %+v ok=%v err=%v", got, ok, err)
	}
	if n := m.Snapshot().Counters["fabric.cas.fills"]; n != 2 {
		t.Fatalf("fills = %d after overwriting a corrupt entry, want 2", n)
	}
	// No temp litter left behind.
	entries, err := os.ReadDir(filepath.Join(c.Dir(), KeySHA(key)[:2]))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Fatalf("temp file %s survived a successful Put", e.Name())
		}
	}
}

func TestCASGetSHARejectsBadAddress(t *testing.T) {
	c, _ := openTestCAS(t)
	if _, _, _, err := c.GetSHA("short"); err == nil {
		t.Fatal("GetSHA accepted a 5-char address")
	}
}

// TestCASGetSHARefusesPathsOutsideStore: an address is a file name, so
// one made of "../" steps must not reach a JSON file beside the store,
// and the answer must not tell whether such a file exists.
func TestCASGetSHARefusesPathsOutsideStore(t *testing.T) {
	base := filepath.Join(t.TempDir(), "p")
	c, err := OpenCAS(filepath.Join(base, "store"), nil)
	if err != nil {
		t.Fatal(err)
	}
	// path(sha) joins the store, sha[:2] (".." is base) and sha+".json",
	// so this 64-char address names base/xxx….json.
	name := strings.Repeat("x", 59)
	sha := "../p/" + name
	if len(sha) != 64 {
		t.Fatalf("address is %d chars, want 64", len(sha))
	}
	outside, err := json.Marshal(envelope{Key: "outside", Run: testRun(7)})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(base, name+".json"), outside, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, addr := range []string{sha, "/" + sha[1:], strings.ToUpper(KeySHA("k"))} {
		if _, _, ok, err := c.GetSHA(addr); ok || !errors.Is(err, ErrBadAddress) {
			t.Errorf("GetSHA(%q): ok=%v err=%v, want ErrBadAddress", addr, ok, err)
		}
	}
}

func TestCASCorruptEntryReadsAsMiss(t *testing.T) {
	c, m := openTestCAS(t)
	key := "corrupt-me"
	if err := c.Put(key, testRun(1)); err != nil {
		t.Fatal(err)
	}
	path := c.path(KeySHA(key))
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Get(key); ok || err == nil {
		t.Fatalf("corrupt entry: ok=%v err=%v, want miss WITH error", ok, err)
	}

	// An entry whose stored key does not hash to its address is a lie:
	// also an error, never a wrong answer.
	bad, err := json.Marshal(envelope{Key: "some-other-key", Run: testRun(2)})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Get(key); ok || err == nil {
		t.Fatalf("mismatched entry: ok=%v err=%v, want miss WITH error", ok, err)
	}
	if m.Snapshot().Counters["fabric.cas.errors"] != 2 {
		t.Fatalf("errors counter = %d, want 2", m.Snapshot().Counters["fabric.cas.errors"])
	}
}

func TestFingerprintOrderIndependent(t *testing.T) {
	a := map[string]stats.Run{"k1": testRun(1), "k2": testRun(2)}
	b := map[string]stats.Run{"k2": testRun(2), "k1": testRun(1)}
	if Fingerprint(a) != Fingerprint(b) {
		t.Fatal("fingerprint depends on map iteration order")
	}
	b["k2"] = testRun(3)
	if Fingerprint(a) == Fingerprint(b) {
		t.Fatal("fingerprint blind to a changed run")
	}
	delete(b, "k2")
	if Fingerprint(a) == Fingerprint(b) {
		t.Fatal("fingerprint blind to a missing cell")
	}
}
