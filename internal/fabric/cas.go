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
// The store keeps nothing in memory: every lookup reads and verifies the
// file. The daemon's one memory cache sits in the cell loop (loop.go).
package fabric

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/metrics"
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
// renames and entries are immutable.
type CAS struct {
	dir string
	m   *metrics.Registry
	// readFile is os.ReadFile; tests count and gate disk reads with it.
	readFile func(name string) ([]byte, error)
}

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
	return &CAS{dir: dir, m: m, readFile: os.ReadFile}, nil
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
// store did not help. A nil store holds nothing.
func (c *CAS) Get(key string) (stats.Run, bool, error) {
	if c == nil {
		return stats.Run{}, false, nil
	}
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

// load reads the entry stored at sha. wantKey, when non-empty, must
// match the stored key (content-address verification).
func (c *CAS) load(sha, wantKey string) (string, stats.Run, bool, error) {
	e, ok, err := c.read(sha)
	switch {
	case err != nil:
		c.m.Counter("fabric.cas.errors").Inc()
		return "", stats.Run{}, false, err
	case !ok:
		c.m.Counter("fabric.cas.misses").Inc()
		return "", stats.Run{}, false, nil
	case wantKey != "" && e.Key != wantKey:
		c.m.Counter("fabric.cas.errors").Inc()
		return "", stats.Run{}, false, fmt.Errorf("fabric: cas entry %s holds a different key", sha)
	}
	c.m.Counter("fabric.cas.hits").Inc()
	return e.Key, e.Run, true, nil
}

// read reads and verifies the envelope stored at sha: the file parsed,
// and its key hashes to its address. A missing file is ok=false with no
// error.
func (c *CAS) read(sha string) (envelope, bool, error) {
	data, err := c.readFile(c.path(sha))
	if err != nil {
		if os.IsNotExist(err) {
			return envelope{}, false, nil
		}
		return envelope{}, false, fmt.Errorf("fabric: cas read %s: %w", sha, err)
	}
	var e envelope
	if err := json.Unmarshal(data, &e); err != nil {
		return envelope{}, false, fmt.Errorf("fabric: cas entry %s corrupt: %w", sha, err)
	}
	if KeySHA(e.Key) != sha {
		return envelope{}, false, fmt.Errorf("fabric: cas entry %s holds a different key", sha)
	}
	return e, true, nil
}

// Put stores run under key. The write is atomic (temp file + rename
// within the store), so readers never observe a partial entry; entries
// are immutable, so overwriting a concurrent writer's identical bytes
// is harmless. An entry for key that already reads back verified (one a
// worker sharing the directory stored, say) is left as it is and is not
// counted as a fill; a corrupt one is overwritten. A nil store keeps
// nothing.
func (c *CAS) Put(key string, run stats.Run) error {
	if c == nil {
		return nil
	}
	sha := KeySHA(key)
	if e, ok, _ := c.read(sha); ok && e.Key == key {
		return nil
	}
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
