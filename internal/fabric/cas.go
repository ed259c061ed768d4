// The on-disk content-addressed result store (CAS).
//
// Every completed simulation cell is stored under the sha256 of its
// fully-qualified cache key (experiments.CacheKey): the key names the
// simulation bit-exactly — benchmark, instruction budget, warmup, seed,
// canonical config encoding — so the store needs no invalidation, ever.
// A result is immutable: two writers racing on the same key write the
// same bytes, and the atomic-rename commit makes the race harmless.
//
// Layout (git-style fan-out so directories stay small at millions of
// entries):
//
//	<dir>/ab/abcdef…0123.json      one JSON envelope {key, run} per cell
//
// The envelope records the full key alongside the run so lookups can
// verify content addressing end to end (a sha collision or a corrupted
// file reads back as a miss, never as a wrong result) and so sha-only
// protocols (GET /v1/cell?sha=…) can recover the key.
//
// In front of the disk sits a bounded in-process tier of verified
// envelopes, so a warm sweep re-serves its cells without reading or
// decoding a file. Only an envelope read from disk and verified enters
// it; every lookup still checks the key it was asked for.
package fabric

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/stats"
)

// KeySHA returns the content address of a cache key: lowercase sha256
// hex, the CAS filename stem and the wire identity of a cell.
func KeySHA(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

// envelope is the stored form of one cell result.
type envelope struct {
	// Key is the full cache key the run is addressed by.
	Key string `json:"key"`
	// Run is the simulation result.
	Run stats.Run `json:"run"`
}

// CAS is the on-disk store. All methods are safe for concurrent use by
// any number of processes sharing the directory: writes are atomic
// renames and entries are immutable. Because they are immutable, a
// process goes on serving an entry it has read from its memory tier
// after the file is removed or damaged, until the entry is evicted.
type CAS struct {
	dir string
	m   *metrics.Registry
	// mem is the in-process tier: verified envelopes by content address.
	// Concurrent reads of one address share a single disk read.
	mem *sched.Memo[envelope]
	// readFile is os.ReadFile; tests count and gate disk reads with it.
	readFile func(name string) ([]byte, error)
}

// memEntries bounds the in-process tier, the same bound as the
// experiment harness's run memo.
const memEntries = 1024

// errNotStored is a disk miss inside the tier. It is an error so the
// memo never retains a miss, and a later Put stays visible.
var errNotStored = errors.New("fabric: cas: not stored")

// OpenCAS opens (creating if needed) a store rooted at dir. The metrics
// registry is optional (nil-safe, like every registry in this repo) and
// receives "fabric.cas.hits", "fabric.cas.misses", "fabric.cas.fills"
// and "fabric.cas.errors" counters.
func OpenCAS(dir string, m *metrics.Registry) (*CAS, error) {
	if dir == "" {
		return nil, fmt.Errorf("fabric: cas directory must be set")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fabric: cas: %w", err)
	}
	return &CAS{dir: dir, m: m, mem: sched.NewMemo[envelope](memEntries), readFile: os.ReadFile}, nil
}

// Dir returns the store's root directory.
func (c *CAS) Dir() string { return c.dir }

// path maps a content address to its file.
func (c *CAS) path(sha string) string {
	return filepath.Join(c.dir, sha[:2], sha+".json")
}

// Get returns the run stored under key, reporting ok=false on a miss.
// A present-but-unreadable or key-mismatched entry is an error AND a
// miss: callers fall back to simulating, and the error explains why the
// store did not help.
func (c *CAS) Get(key string) (stats.Run, bool, error) {
	_, run, ok, err := c.load(KeySHA(key), key)
	return run, ok, err
}

// ErrBadAddress is GetSHA's answer to anything but a content address.
var ErrBadAddress = errors.New("fabric: cas: address must be 64 lowercase hex chars")

// GetSHA returns the (key, run) stored under a content address — the
// sha-only lookup the HTTP protocol uses. The address comes from the
// caller and becomes a file path, so anything but the 64 lowercase hex
// characters KeySHA writes is refused before the store is touched.
func (c *CAS) GetSHA(sha string) (string, stats.Run, bool, error) {
	if !isAddress(sha) {
		return "", stats.Run{}, false, ErrBadAddress
	}
	return c.load(sha, "")
}

// isAddress reports whether sha has the form KeySHA returns.
func isAddress(sha string) bool {
	if len(sha) != sha256.Size*2 {
		return false
	}
	for i := 0; i < len(sha); i++ {
		if c := sha[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// load answers one lookup from the in-process tier, reading the entry
// from disk on a tier miss. wantKey, when non-empty, must match the
// stored key (content-address verification), on a tier hit as on a read.
func (c *CAS) load(sha, wantKey string) (string, stats.Run, bool, error) {
	//pflint:allow ctxflow/background the lookup signatures carry no context (GetRun is the context-free experiments.RunStore), and a waiter waits only for one local file read and decode
	e, err := c.mem.Do(context.TODO(), sha, func(context.Context) (envelope, error) {
		return c.read(sha)
	})
	switch {
	case errors.Is(err, errNotStored):
		c.m.Counter("fabric.cas.misses").Inc()
		return "", stats.Run{}, false, nil
	case err != nil:
		c.m.Counter("fabric.cas.errors").Inc()
		return "", stats.Run{}, false, err
	case wantKey != "" && e.Key != wantKey:
		c.m.Counter("fabric.cas.errors").Inc()
		return "", stats.Run{}, false, fmt.Errorf("fabric: cas entry %s holds a different key", sha)
	}
	c.m.Counter("fabric.cas.hits").Inc()
	return e.Key, e.Run, true, nil
}

// read reads and verifies the envelope stored at sha. Only what it
// returns without error enters the tier: the file parsed, and its key
// hashes to its address.
func (c *CAS) read(sha string) (envelope, error) {
	data, err := c.readFile(c.path(sha))
	if err != nil {
		if os.IsNotExist(err) {
			return envelope{}, errNotStored
		}
		return envelope{}, fmt.Errorf("fabric: cas read %s: %w", sha, err)
	}
	var e envelope
	if err := json.Unmarshal(data, &e); err != nil {
		return envelope{}, fmt.Errorf("fabric: cas entry %s corrupt: %w", sha, err)
	}
	if KeySHA(e.Key) != sha {
		return envelope{}, fmt.Errorf("fabric: cas entry %s holds a different key", sha)
	}
	return e, nil
}

// Put stores run under key. The write is atomic (temp file + rename
// within the store), so readers never observe a partial entry; entries
// are immutable, so overwriting a concurrent writer's identical bytes
// is harmless. Put admits nothing to the in-process tier: an entry gets
// there only by being read back from disk and verified.
func (c *CAS) Put(key string, run stats.Run) error {
	sha := KeySHA(key)
	dst := c.path(sha)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		c.m.Counter("fabric.cas.errors").Inc()
		return fmt.Errorf("fabric: cas: %w", err)
	}
	data, err := json.Marshal(envelope{Key: key, Run: run})
	if err != nil {
		// envelope is plain data; Marshal cannot fail in practice.
		c.m.Counter("fabric.cas.errors").Inc()
		return fmt.Errorf("fabric: cas encode: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(dst), ".tmp-*")
	if err != nil {
		c.m.Counter("fabric.cas.errors").Inc()
		return fmt.Errorf("fabric: cas: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close()        // best effort: the write already failed
		_ = os.Remove(tmpName) // best effort: leave no temp litter
		c.m.Counter("fabric.cas.errors").Inc()
		return fmt.Errorf("fabric: cas write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmpName) // best effort: leave no temp litter
		c.m.Counter("fabric.cas.errors").Inc()
		return fmt.Errorf("fabric: cas write: %w", err)
	}
	if err := os.Rename(tmpName, dst); err != nil {
		_ = os.Remove(tmpName) // best effort: leave no temp litter
		c.m.Counter("fabric.cas.errors").Inc()
		return fmt.Errorf("fabric: cas commit: %w", err)
	}
	c.m.Counter("fabric.cas.fills").Inc()
	return nil
}

// Len walks the store and counts entries — an operational helper for
// tests and tooling, not a hot path.
func (c *CAS) Len() (int, error) {
	n := 0
	err := filepath.WalkDir(c.dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && filepath.Ext(path) == ".json" {
			n++
		}
		return nil
	})
	return n, err
}

// GetRun and PutRun adapt the CAS to the experiments.RunStore interface
// (structural), making the store the persistent level behind the
// in-process single-flight memo: probe on memo miss, fill after
// simulation. Store errors are counted, not fatal — a broken disk
// degrades to simulating, never to failing requests.

// GetRun implements experiments.RunStore.
func (c *CAS) GetRun(key string) (stats.Run, bool) {
	r, ok, _ := c.Get(key) // error already counted in fabric.cas.errors
	return r, ok
}

// PutRun implements experiments.RunStore.
func (c *CAS) PutRun(key string, r stats.Run) {
	_ = c.Put(key, r) // error already counted in fabric.cas.errors
}
