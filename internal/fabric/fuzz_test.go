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
// never panic. Once the file is deleted, an entry that was refused must
// read as a clean miss (the tier never admitted it) and one that was
// served must still be served, unchanged, from the tier.
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
	// deletes the file it wrote, so they can share one directory; each
	// opens its own CAS and so starts with an empty tier.
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
		got, ok, err = c.Get(key)
		if valid {
			check("Get from the tier", key, got, ok, err)
		} else if ok || err != nil {
			t.Fatalf("refused entry read back as ok=%v err=%v after its file was deleted, want a clean miss", ok, err)
		}
	})
}
