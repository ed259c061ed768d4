// Package tracefile implements the PFTC chunked binary trace format —
// the on-disk contract that lets externally captured program traces
// (ChampSim conversions, synthetic-model captures, third-party tools)
// replay through the simulator as first-class benchmarks.
//
// docs/TRACES.md is the normative byte-level specification; this header
// is the summary. A PFTC file is:
//
//	file header (16 bytes):
//	  magic    [4]byte  "PFTC"
//	  version  uint16   format version (currently 1)
//	  flags    uint16   reserved, must be zero
//	  reserved uint64   must be zero
//	chunks (zero or more):
//	  chunk header (16 bytes):
//	    payload  uint32  payload length in bytes (> 0)
//	    records  uint32  records in this chunk (> 0)
//	    crc32c   uint32  CRC-32C (Castagnoli) of the payload bytes
//	    reserved uint32  must be zero
//	  payload: `records` delta/varint-encoded records (see below)
//	sentinel: an all-zero chunk header terminates the chunk stream
//	trailer (48 bytes):
//	  records     uint64   total record count across all chunks
//	  chunks      uint32   chunk count
//	  reserved    uint32   must be zero
//	  fingerprint [32]byte sha256 stream fingerprint (see below)
//
// All integers are little-endian. Each record is encoded as:
//
//	byte 0      op (low 6 bits) | dep flag (bit 6) | taken flag (bit 7)
//	varint      PC delta from the previous record's PC (zig-zag)
//	uvarint     absolute address — present only for memory ops
//	            (load/store/prefetch: the data address) and branches
//	            (the resolved target, taken or not)
//
// The PC-delta state resets to zero at every chunk boundary, so each
// chunk decodes independently of its predecessors: a reader can stream
// chunk by chunk in bounded memory, and a corrupt chunk is localized by
// its CRC. Records never straddle a chunk boundary — the writer cuts a
// chunk only between records, at the first boundary past the target
// payload size.
//
// The trailer's stream fingerprint is the sha256 of the *canonical*
// encoding: the same record codec with the PC-delta state never reset,
// as if the whole trace were one chunk. Two PFTC files holding the same
// record sequence therefore carry the same fingerprint regardless of
// chunk size — the identity the determinism guarantees (and the corpus
// manifest) pin. Per-chunk sha256 fingerprints additionally identify
// the exact bytes of each chunk of a specific file.
package tracefile

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/isa"
)

// Magic identifies a PFTC trace file.
var Magic = [4]byte{'P', 'F', 'T', 'C'}

// Version is the format version this package reads and writes.
const Version = 1

const (
	fileHeaderLen  = 16
	chunkHeaderLen = 16
	trailerLen     = 48

	takenFlag = 0x80
	depFlag   = 0x40
	opMask    = 0x3f
)

// DefaultChunkBytes is the writer's default target chunk payload size.
// 64 KiB keeps the reader's working set tiny while amortizing the
// 16-byte chunk header and the per-chunk hashing to noise.
const DefaultChunkBytes = 1 << 16

// DefaultMaxChunkBytes bounds the payload length a reader will accept
// from a chunk header before allocating — the guard that keeps a
// corrupt or hostile length field from turning into a huge allocation.
const DefaultMaxChunkBytes = 1 << 26 // 64 MiB

// Sentinel errors distinguishing the decode failure classes. Wrapped
// errors carry position detail; test with errors.Is.
var (
	// ErrBadMagic: the input does not start with the PFTC magic.
	ErrBadMagic = errors.New("tracefile: not a PFTC trace file")
	// ErrBadVersion: the file's format version is not supported.
	ErrBadVersion = errors.New("tracefile: unsupported format version")
	// ErrTruncated: the input ended mid-structure (chunk header,
	// payload, or trailer).
	ErrTruncated = errors.New("tracefile: truncated trace file")
	// ErrCorrupt: a structure decoded but its content is invalid (CRC
	// mismatch, bad record encoding, count mismatch, nonzero reserved
	// field, fingerprint mismatch).
	ErrCorrupt = errors.New("tracefile: corrupt trace file")
)

// appendRecord appends r's encoding to buf using *lastPC as the
// PC-delta state and returns the extended buffer. It is the single
// encoder both the chunk payloads and the canonical fingerprint stream
// share.
func appendRecord(buf []byte, r isa.Record, lastPC *uint64) []byte {
	head := byte(r.Op)
	if r.Taken {
		head |= takenFlag
	}
	if r.Dep {
		head |= depFlag
	}
	buf = append(buf, head)
	buf = binary.AppendVarint(buf, int64(r.PC)-int64(*lastPC))
	*lastPC = r.PC
	if recordHasAddr(r.Op) {
		buf = binary.AppendUvarint(buf, r.Addr)
	}
	return buf
}

// decodeFault names why decodeRecord rejected a record. The decode loop
// passes it around as a small integer and leaves building the error to
// the cold path (err), so decoding a well-formed record never allocates.
type decodeFault uint8

const (
	faultNone decodeFault = iota
	faultHeadPastEnd
	faultBadOp
	faultBadPC
	faultBadAddr
)

// err formats the fault as an ErrCorrupt error; head is the record's
// first byte, reported for faultBadOp.
func (f decodeFault) err(head byte) error {
	switch f {
	case faultHeadPastEnd:
		return fmt.Errorf("%w: record head past payload end", ErrCorrupt)
	case faultBadOp:
		return fmt.Errorf("%w: invalid op byte %#x", ErrCorrupt, head)
	case faultBadPC:
		return fmt.Errorf("%w: bad PC-delta varint", ErrCorrupt)
	default:
		return fmt.Errorf("%w: bad address uvarint", ErrCorrupt)
	}
}

// decodeRecord decodes the record at buf[off:] into *rec, updating the
// PC-delta state, and returns the next offset. On a fault *rec, the
// offset and the PC-delta state are meaningless.
func decodeRecord(buf []byte, off int, lastPC *uint64, rec *isa.Record) (int, decodeFault) {
	if off >= len(buf) {
		return 0, faultHeadPastEnd
	}
	head := buf[off]
	op := isa.Op(head & opMask)
	if !op.Valid() {
		return 0, faultBadOp
	}
	delta, n := binary.Varint(buf[off+1:])
	if n <= 0 {
		return 0, faultBadPC
	}
	off += 1 + n
	pc := uint64(int64(*lastPC) + delta)
	*lastPC = pc
	var addr uint64
	if recordHasAddr(op) {
		if addr, n = binary.Uvarint(buf[off:]); n <= 0 {
			return 0, faultBadAddr
		}
		off += n
	}
	*rec = isa.Record{Op: op, Taken: head&takenFlag != 0, Dep: head&depFlag != 0, PC: pc, Addr: addr}
	return off, faultNone
}

// recordHasAddr reports whether the encoding carries an address field.
// Branches always do (the resolved target, taken or not), so
// encode→decode is a lossless identity — unlike the legacy PFTRACE1
// stream, which dropped not-taken targets.
func recordHasAddr(op isa.Op) bool {
	return op.IsMem() || op == isa.OpBranch
}
