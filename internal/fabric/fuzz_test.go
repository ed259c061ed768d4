package fabric

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/stats"
)

// FuzzCASEntry writes arbitrary bytes at a key's entry path and looks
// the key up by sha and by key. Each lookup must be either a miss with
// an error or exactly the run the bytes hold for that key, and must
// never panic. Once the file is deleted, every lookup is a clean miss:
// the store keeps nothing in memory.
func FuzzCASEntry(f *testing.F) {
	key := "mcf|n=1000|w=100|seed=1|{}"
	valid, err := json.Marshal(envelope{Key: key, Run: testRun(1000)})
	if err != nil {
		f.Fatal(err)
	}
	other, err := json.Marshal(envelope{Key: "gzip|n=1000|w=100|seed=1|{}", Run: testRun(1000)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(key, valid)
	f.Add(key, other)
	f.Add(key, valid[:len(valid)/2])
	f.Add(key, []byte(`{"key":"`+key+`","run":{"instructions":-1}}`))
	f.Add(key, []byte(`{"key":"`+key+`","run":null}`))
	f.Add("", []byte(`{"key":"","run":{}}`))

	// Inputs run one at a time in each fuzzing process, and every input
	// deletes the file it wrote, so they can share one directory.
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, key string, data []byte) {
		c, err := OpenCAS(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		sha := KeySHA(key)
		path := c.path(sha)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// What the bytes hold for this key, if anything.
		var stored envelope
		valid := json.Unmarshal(data, &stored) == nil && stored.Key == key

		check := func(step string, gotKey string, got stats.Run, ok bool, err error) {
			t.Helper()
			switch {
			case ok && (err != nil || !valid || gotKey != key || !reflect.DeepEqual(got, stored.Run)):
				t.Fatalf("%s served (%q, %+v, err=%v) for %q; bytes valid=%v\n%q", step, gotKey, got, err, key, valid, data)
			case !ok && (err == nil || valid):
				t.Fatalf("%s: miss with err=%v for bytes valid=%v\n%q", step, err, valid, data)
			}
		}
		gotKey, got, ok, err := c.GetSHA(sha)
		check("GetSHA", gotKey, got, ok, err)
		got, ok, err = c.Get(key)
		check("Get", key, got, ok, err)

		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := c.Get(key); ok || err != nil {
			t.Fatalf("entry read back as ok=%v err=%v after its file was deleted, want a clean miss", ok, err)
		}
	})
}

// FuzzCellReply decodes arbitrary worker replies to /v1/cell. Decoding
// must never panic; a reply it accepts must be a 200 carrying a run for
// exactly the key sent, and that run is what it returns; and a 4xx other
// than 429 (the cell itself is bad) must never be re-dealt.
func FuzzCellReply(f *testing.F) {
	key := "mcf|n=1000|w=100|seed=1|{}"
	run := testRun(1000)
	for _, r := range []CellResponse{{Key: key, Run: &run}, {Key: "gzip|n=1000|w=100|seed=1|{}", Run: &run}, {Key: key}} {
		body, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(200, body, key)
		f.Add(500, body, key)
	}
	f.Add(200, []byte(`{"key":"`+key+`","run":null}`), key)
	f.Add(200, []byte(`{not json`), key)
	f.Add(400, []byte(`{"error":"bad cell"}`), key)
	f.Add(404, []byte(`404 page not found`), key)
	f.Add(429, []byte(`{"error":"busy"}`), key)
	f.Add(302, []byte{}, key)
	f.Fuzz(func(t *testing.T, status int, body []byte, key string) {
		got, retryable, err := decodeCellReply(status, body, key)
		if status >= 400 && status < 500 && status != 429 && (err == nil || retryable) {
			t.Fatalf("status %d: err = %v, retryable = %v; want a final error", status, err, retryable)
		}
		if err != nil {
			return
		}
		var cr CellResponse
		if status != 200 || json.Unmarshal(body, &cr) != nil || cr.Key != key || cr.Run == nil {
			t.Fatalf("accepted status %d body %q for key %q", status, body, key)
		}
		if !reflect.DeepEqual(got, *cr.Run) {
			t.Fatalf("returned %+v, reply holds %+v", got, *cr.Run)
		}
	})
}
