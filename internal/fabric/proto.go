// The fabric wire protocol: the JSON shapes the coordinator and
// internal/server's /v1/cell endpoint share, plus the result-set
// fingerprint both sides of the determinism contract compute.

package fabric

import (
	"crypto/sha256"
	"encoding/hex"

	"repro/internal/config"
	"repro/internal/stats"
)

// CellRequest is the body of POST /v1/cell. Two modes:
//
//   - Execute (Run absent): simulate the (bench, config) cell under the
//     given budget and answer with the result. This is the dispatch the
//     coordinator sends a worker.
//   - Fill (Run present): insert a completed result into the receiver's
//     CAS without simulating — the remote-fill path (a worker pushing a
//     result upstream, or corpus tooling seeding a store).
//
// Unlike /v1/run's flattened knobs, Config is the FULL machine config:
// the fabric must express every cell a sweep can produce (generator
// axes included), and the full canonical encoding is what the cache key
// is built from.
type CellRequest struct {
	Bench  string         `json:"bench"`
	Config *config.Config `json:"config"`

	Instructions int64  `json:"instructions,omitempty"`
	Warmup       *int64 `json:"warmup,omitempty"`
	Seed         uint64 `json:"seed,omitempty"`
	// DeadlineMS is the dispatch lease: the worker must answer within it.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`

	// Run switches the request into fill mode.
	Run *stats.Run `json:"run,omitempty"`
}

// CellResponse is the body of a successful POST /v1/cell.
type CellResponse struct {
	// Key is the receiver-computed cache key; KeySHA its content
	// address. The coordinator cross-checks Key against its own to catch
	// version skew.
	Key    string `json:"key"`
	KeySHA string `json:"key_sha"`
	// Run is the cell result (absent on fill mode).
	Run *stats.Run `json:"run,omitempty"`
	// WallNS is the execution wall time on the worker; a cell it did not
	// execute reports zero.
	WallNS int64 `json:"wall_ns"`
	// Source reports where the worker got the result: "cas" (not executed
	// for this request: from its memory, shared with another request's
	// execution, or read from its store) or "sim" (executed).
	Source string `json:"source,omitempty"`
}

// Fingerprint digests a result set: sha256 over its stats.WriteRunSet
// encoding ("key\nrunJSON\n" lines in sorted key order), the same bytes
// the harness's pinned fingerprints digest. A sharded sweep and a
// single-node sweep over the same cells MUST produce equal fingerprints;
// that equality is the fabric's determinism contract and what the
// fabric-smoke CI job asserts.
func Fingerprint(runs map[string]stats.Run) string {
	h := sha256.New()
	stats.WriteRunSet(h, runs)
	return hex.EncodeToString(h.Sum(nil))
}
