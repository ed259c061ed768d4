package fabric

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

	if n, err := c.Len(); err != nil || n != 1 {
		t.Fatalf("Len = %d, %v; want 1 entry", n, err)
	}
	snap := m.Snapshot()
	if snap.Counters["fabric.cas.fills"] != 1 || snap.Counters["fabric.cas.hits"] != 2 || snap.Counters["fabric.cas.misses"] != 1 {
		t.Fatalf("counters = %v, want 1 fill, 2 hits, 1 miss", snap.Counters)
	}
}

func TestCASPutIsIdempotent(t *testing.T) {
	c, _ := openTestCAS(t)
	key := "k"
	for i := 0; i < 3; i++ {
		if err := c.Put(key, testRun(7)); err != nil {
			t.Fatalf("Put #%d: %v", i, err)
		}
	}
	if n, _ := c.Len(); n != 1 {
		t.Fatalf("Len = %d after repeated Put of one key, want 1", n)
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

// TestCASTierServesVerifiedRead: once a Get has read and verified an
// entry, later lookups are answered from memory — deleting or
// corrupting the file does not change the answer — and each counts as a
// CAS hit.
func TestCASTierServesVerifiedRead(t *testing.T) {
	c, m := openTestCAS(t)
	key := "tier"
	want := testRun(9)
	if err := c.Put(key, want); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := c.Get(key); !ok || err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("first Get: %+v ok=%v err=%v", got, ok, err)
	}
	path := c.path(KeySHA(key))
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := c.Get(key); !ok || err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("Get after the file was deleted: %+v ok=%v err=%v, want a tier hit", got, ok, err)
	}
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	gotKey, got, ok, err := c.GetSHA(KeySHA(key))
	if !ok || err != nil || gotKey != key || !reflect.DeepEqual(got, want) {
		t.Fatalf("GetSHA after the file was corrupted: (%q, %+v) ok=%v err=%v, want a tier hit", gotKey, got, ok, err)
	}
	snap := m.Snapshot()
	if snap.Counters["fabric.cas.hits"] != 3 || snap.Counters["fabric.cas.errors"] != 0 {
		t.Fatalf("counters = %v, want 3 hits and no errors", snap.Counters)
	}
}

// TestCASPutAdmitsNothing: a Put alone leaves the tier empty, so a
// deleted file is a clean miss; and a miss is never retained, so a
// later Put is visible.
func TestCASPutAdmitsNothing(t *testing.T) {
	c, _ := openTestCAS(t)
	key := "put-only"
	if _, ok, err := c.Get(key); ok || err != nil {
		t.Fatalf("empty store: ok=%v err=%v, want a clean miss", ok, err)
	}
	if err := c.Put(key, testRun(3)); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(c.path(KeySHA(key))); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Get(key); ok || err != nil {
		t.Fatalf("Put then delete: ok=%v err=%v, want a clean miss (Put admitted the entry)", ok, err)
	}
	if err := c.Put(key, testRun(3)); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := c.Get(key); !ok || err != nil || !reflect.DeepEqual(got, testRun(3)) {
		t.Fatalf("Get after a miss and a Put: %+v ok=%v err=%v, want a hit", got, ok, err)
	}
}

// TestCASTierRefusesBadEntries: a corrupt entry, or one holding another
// key, is refused and never admitted — once the file is gone the next
// lookup is a clean miss, not a served refusal.
func TestCASTierRefusesBadEntries(t *testing.T) {
	other, err := json.Marshal(envelope{Key: "some-other-key", Run: testRun(2)})
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"corrupt": []byte(`{"key":`), "other key": other} {
		t.Run(name, func(t *testing.T) {
			c, m := openTestCAS(t)
			key := "refused"
			path := c.path(KeySHA(key))
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok, err := c.Get(key); ok || err == nil {
				t.Fatalf("Get: ok=%v err=%v, want a miss with an error", ok, err)
			}
			if _, _, ok, err := c.GetSHA(KeySHA(key)); ok || err == nil {
				t.Fatalf("GetSHA: ok=%v err=%v, want a miss with an error", ok, err)
			}
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
			if _, ok, err := c.Get(key); ok || err != nil {
				t.Fatalf("Get after removal: ok=%v err=%v, want a clean miss", ok, err)
			}
			if n := m.Snapshot().Counters["fabric.cas.errors"]; n != 2 {
				t.Fatalf("errors counter = %d, want 2", n)
			}
		})
	}
}

// TestCASTierHitChecksKey: a tier entry asked for under a key other
// than the one it holds — a sha256 collision, which Get cannot produce
// on purpose, so the lookup is made directly — is a miss with an error.
func TestCASTierHitChecksKey(t *testing.T) {
	c, m := openTestCAS(t)
	key := "held"
	if err := c.Put(key, testRun(4)); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Get(key); !ok || err != nil {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	if err := os.Remove(c.path(KeySHA(key))); err != nil {
		t.Fatal(err)
	}
	if _, _, ok, err := c.load(KeySHA(key), "colliding"); ok || err == nil {
		t.Fatalf("tier hit under another key: ok=%v err=%v, want a miss with an error", ok, err)
	}
	if n := m.Snapshot().Counters["fabric.cas.errors"]; n != 1 {
		t.Fatalf("errors counter = %d, want 1", n)
	}
}

// TestCASConcurrentGetsReadOnce: Gets of one key racing on a cold tier
// share a single disk read.
func TestCASConcurrentGetsReadOnce(t *testing.T) {
	c, m := openTestCAS(t)
	key := "shared"
	if err := c.Put(key, testRun(6)); err != nil {
		t.Fatal(err)
	}
	var reads atomic.Int32
	release := make(chan struct{})
	c.readFile = func(name string) ([]byte, error) {
		reads.Add(1)
		<-release
		return os.ReadFile(name)
	}
	const readers = 8
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got, ok, err := c.Get(key); !ok || err != nil || !reflect.DeepEqual(got, testRun(6)) {
				t.Errorf("Get: %+v ok=%v err=%v", got, ok, err)
			}
		}()
	}
	// Let the readers pile onto the in-flight read, then release it. The
	// pause only makes the overlap likely: a reader that starts after
	// the read completes is a tier hit, so one read is right either way.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if n := reads.Load(); n != 1 {
		t.Fatalf("%d disk reads for %d concurrent Gets, want 1", n, readers)
	}
	if n := m.Snapshot().Counters["fabric.cas.hits"]; n != readers {
		t.Fatalf("hits counter = %d, want %d", n, readers)
	}
}

func TestCASRunStoreAdapterSwallowsErrors(t *testing.T) {
	c, _ := openTestCAS(t)
	key := "adapter"
	if _, ok := c.GetRun(key); ok {
		t.Fatal("GetRun hit on empty store")
	}
	c.PutRun(key, testRun(5))
	if r, ok := c.GetRun(key); !ok || !reflect.DeepEqual(r, testRun(5)) {
		t.Fatalf("GetRun = %+v, %v", r, ok)
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
