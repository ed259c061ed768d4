// The PFTC decoder: streams chunk by chunk in bounded memory (one
// chunk payload resident at a time, buffer reused across chunks),
// verifying each chunk's CRC as it loads and the trailer's counts at
// the end. It implements isa.BatchSource, so a trace file drops into
// every place a workload model fits and hands records over a chunk's
// worth at a time.

package tracefile

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"

	"repro/internal/isa"
)

// ReaderOptions tune the decoder.
type ReaderOptions struct {
	// MaxChunkBytes rejects chunk headers claiming a larger payload
	// before allocating. 0 selects DefaultMaxChunkBytes.
	MaxChunkBytes int
	// VerifyFingerprint re-computes the canonical stream fingerprint
	// while decoding and checks it against the trailer. Off by default:
	// the per-chunk CRCs already catch corruption; the sha256 re-hash is
	// for converters and corpus verification.
	VerifyFingerprint bool
}

// Reader decodes a PFTC stream. It implements isa.BatchSource.
type Reader struct {
	r        *bufio.Reader
	maxChunk int

	payload []byte // current chunk payload (reused across chunks)
	off     int    // decode offset into payload
	recs    uint32 // records remaining in the current chunk
	lastPC  uint64 // per-chunk PC-delta state
	chunkIx int

	canon   hash.Hash // non-nil when VerifyFingerprint
	canonPC uint64
	scratch []byte

	// hdr receives the file header, chunk headers and trailer. Reading
	// them into the Reader, not a local array that escapes through the
	// io.Reader call, keeps chunk loads allocation-free.
	hdr [trailerLen]byte

	count  uint64
	fp     [32]byte // trailer fingerprint, valid once done
	done   bool
	haveFP bool
	err    error
}

// NewReader validates the file header and returns a streaming decoder.
func NewReader(r io.Reader, opts ReaderOptions) (*Reader, error) {
	maxChunk := opts.MaxChunkBytes
	if maxChunk <= 0 {
		maxChunk = DefaultMaxChunkBytes
	}
	tr := &Reader{r: bufio.NewReaderSize(r, 1<<16), maxChunk: maxChunk}
	if opts.VerifyFingerprint {
		tr.canon = sha256.New()
	}
	if err := tr.readHeader(); err != nil {
		return nil, err
	}
	return tr, nil
}

// reset re-arms t to decode r from its start, as NewReader with t's
// options would, but keeps t's read buffer, chunk payload and hash
// state, so a source that replays a file pass after pass allocates
// nothing per pass. The file header is validated again.
func (t *Reader) reset(r io.Reader) error {
	t.r.Reset(r)
	*t = Reader{
		r: t.r, maxChunk: t.maxChunk,
		payload: t.payload[:0], canon: t.canon, scratch: t.scratch[:0],
	}
	if t.canon != nil {
		t.canon.Reset()
	}
	return t.readHeader()
}

// readHeader reads and validates the file header.
func (t *Reader) readHeader() error {
	hdr := t.hdr[:fileHeaderLen]
	if _, err := io.ReadFull(t.r, hdr); err != nil {
		return fmt.Errorf("%w: reading file header: %v", ErrTruncated, err)
	}
	if [4]byte(hdr[:4]) != Magic {
		return ErrBadMagic
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != Version {
		return fmt.Errorf("%w: got %d, support %d", ErrBadVersion, v, Version)
	}
	if binary.LittleEndian.Uint16(hdr[6:8]) != 0 || binary.LittleEndian.Uint64(hdr[8:16]) != 0 {
		return fmt.Errorf("%w: nonzero reserved file-header field", ErrCorrupt)
	}
	return nil
}

// Next implements isa.Source. After exhaustion or a decode error it
// keeps returning false; Err distinguishes a clean end from corruption.
// It is NextBatch with a batch of one, so both share one decode path.
func (t *Reader) Next() (isa.Record, bool) {
	var one [1]isa.Record
	if t.NextBatch(one[:]) == 0 {
		return isa.Record{}, false
	}
	return one[0], true
}

// NextBatch implements isa.BatchSource. It decodes up to len(dst)
// records in one loop, never past the end of the chunk that holds the
// first of them, and makes every check Next does. A bad record ends the
// batch: the good records before it are returned, and the next call
// returns 0 with Err reporting the fault.
//
//pflint:hotpath
func (t *Reader) NextBatch(dst []isa.Record) int {
	if t.err != nil || t.done {
		return 0
	}
	for t.recs == 0 {
		if !t.loadChunk() {
			return 0
		}
	}
	n := min(len(dst), int(t.recs))
	buf, off, lastPC := t.payload, t.off, t.lastPC
	good := n
	for i := range dst[:n] {
		next, fault := decodeRecord(buf, off, &lastPC, &dst[i])
		if fault != faultNone {
			t.failRecord(fault, off, t.count+uint64(i))
			good = i
			break
		}
		off = next
	}
	if good == n && n == int(t.recs) && off != len(buf) {
		// The chunk's last record must end its payload exactly.
		t.failTrailing(len(buf) - off)
		good--
	}
	t.off, t.lastPC = off, lastPC
	t.recs -= uint32(good)
	t.count += uint64(good)
	if t.canon != nil {
		t.scratch = t.scratch[:0]
		for _, rec := range dst[:good] {
			t.scratch = appendRecord(t.scratch, rec, &t.canonPC)
		}
		t.canon.Write(t.scratch)
	}
	return good
}

// failRecord records the decode fault of the stream's index-th record,
// found at payload offset off of the current chunk.
func (t *Reader) failRecord(f decodeFault, off int, index uint64) {
	var head byte
	if off < len(t.payload) {
		head = t.payload[off]
	}
	t.err = fmt.Errorf("chunk %d, record %d: %w", t.chunkIx-1, index, f.err(head))
}

// failTrailing records payload bytes left over after a chunk's last
// record.
func (t *Reader) failTrailing(extra int) {
	t.err = fmt.Errorf("%w: chunk %d has %d trailing payload bytes", ErrCorrupt, t.chunkIx-1, extra)
}

// loadChunk reads the next chunk header and payload, or the sentinel
// and trailer. It returns false when the stream is finished or failed.
func (t *Reader) loadChunk() bool {
	hdr := t.hdr[:chunkHeaderLen]
	if _, err := io.ReadFull(t.r, hdr); err != nil {
		t.err = fmt.Errorf("%w: reading chunk %d header: %v", ErrTruncated, t.chunkIx, err)
		return false
	}
	payloadLen := binary.LittleEndian.Uint32(hdr[0:4])
	records := binary.LittleEndian.Uint32(hdr[4:8])
	crc := binary.LittleEndian.Uint32(hdr[8:12])
	if binary.LittleEndian.Uint32(hdr[12:16]) != 0 {
		t.err = fmt.Errorf("%w: chunk %d: nonzero reserved header field", ErrCorrupt, t.chunkIx)
		return false
	}
	if payloadLen == 0 && records == 0 && crc == 0 {
		t.finish()
		return false
	}
	if payloadLen == 0 || records == 0 {
		t.err = fmt.Errorf("%w: chunk %d: empty %s in a non-sentinel header", ErrCorrupt, t.chunkIx,
			map[bool]string{true: "payload", false: "record count"}[payloadLen == 0])
		return false
	}
	if int(payloadLen) > t.maxChunk {
		t.err = fmt.Errorf("%w: chunk %d claims %d payload bytes, cap is %d", ErrCorrupt, t.chunkIx, payloadLen, t.maxChunk)
		return false
	}
	if cap(t.payload) < int(payloadLen) {
		t.payload = make([]byte, payloadLen)
	}
	t.payload = t.payload[:payloadLen]
	if _, err := io.ReadFull(t.r, t.payload); err != nil {
		t.err = fmt.Errorf("%w: reading chunk %d payload: %v", ErrTruncated, t.chunkIx, err)
		return false
	}
	if got := crc32.Checksum(t.payload, castagnoli); got != crc {
		t.err = fmt.Errorf("%w: chunk %d CRC mismatch: header %08x, payload %08x", ErrCorrupt, t.chunkIx, crc, got)
		return false
	}
	t.off = 0
	t.recs = records
	t.lastPC = 0
	t.chunkIx++
	return true
}

// finish reads and verifies the trailer after the sentinel.
func (t *Reader) finish() {
	tail := t.hdr[:trailerLen]
	if _, err := io.ReadFull(t.r, tail); err != nil {
		t.err = fmt.Errorf("%w: reading trailer: %v", ErrTruncated, err)
		return
	}
	total := binary.LittleEndian.Uint64(tail[0:8])
	chunks := binary.LittleEndian.Uint32(tail[8:12])
	if binary.LittleEndian.Uint32(tail[12:16]) != 0 {
		t.err = fmt.Errorf("%w: nonzero reserved trailer field", ErrCorrupt)
		return
	}
	if total != t.count {
		t.err = fmt.Errorf("%w: trailer claims %d records, decoded %d", ErrCorrupt, total, t.count)
		return
	}
	if int(chunks) != t.chunkIx {
		t.err = fmt.Errorf("%w: trailer claims %d chunks, decoded %d", ErrCorrupt, chunks, t.chunkIx)
		return
	}
	copy(t.fp[:], tail[16:48])
	t.haveFP = true
	if t.canon != nil {
		var got [32]byte
		copy(got[:], t.canon.Sum(nil))
		if got != t.fp {
			t.err = fmt.Errorf("%w: stream fingerprint mismatch: trailer %x, decoded %x", ErrCorrupt, t.fp, got)
			return
		}
	}
	t.done = true
}

// Err returns nil after a clean end of trace, or the decode error that
// stopped the reader.
func (t *Reader) Err() error { return t.err }

// Records returns how many records have been decoded so far.
func (t *Reader) Records() uint64 { return t.count }

// Fingerprint returns the trailer's stream fingerprint; ok is false
// until the trailer has been read (i.e. before a clean end of trace).
func (t *Reader) Fingerprint() ([32]byte, bool) { return t.fp, t.haveFP }

// Decode reads an entire PFTC stream into memory, verifying the stream
// fingerprint. Replay paths should stream through Reader instead; this
// is for tests and small fixtures.
func Decode(r io.Reader) ([]isa.Record, error) {
	tr, err := NewReader(r, ReaderOptions{VerifyFingerprint: true})
	if err != nil {
		return nil, err
	}
	var out []isa.Record
	for {
		rec, ok := tr.Next()
		if !ok {
			break
		}
		out = append(out, rec)
	}
	return out, tr.Err()
}

// Info summarizes a PFTC file: the full-scan metadata pftrace info
// prints and corpus verification checks.
type Info struct {
	Version int         `json:"version"`
	Records uint64      `json:"records"`
	Chunks  []ChunkInfo `json:"chunks"`
	// Fingerprint is the trailer's stream fingerprint, hex-encoded.
	Fingerprint string `json:"fingerprint"`
}

// Inspect scans a whole PFTC stream: CRC-checks every chunk, re-hashes
// the canonical stream, verifies the trailer, and returns the per-chunk
// descriptors. Bounded memory, like Reader.
func Inspect(r io.Reader) (Info, error) {
	tr, err := NewReader(r, ReaderOptions{VerifyFingerprint: true})
	if err != nil {
		return Info{}, err
	}
	info := Info{Version: Version}
	chunkStart := 0
	flush := func() {
		// Summarize the chunk just finished from the reader's state.
		payload := tr.payload
		sum := sha256.Sum256(payload)
		info.Chunks = append(info.Chunks, ChunkInfo{
			Records: uint32(tr.count - uint64(chunkStart)),
			Bytes:   uint32(len(payload)),
			CRC32C:  crc32.Checksum(payload, castagnoli),
			SHA256:  fmt.Sprintf("%x", sum),
		})
		chunkStart = int(tr.count)
	}
	for {
		_, ok := tr.Next()
		if !ok {
			break
		}
		if tr.recs == 0 { // finished the current chunk
			flush()
		}
	}
	if err := tr.Err(); err != nil {
		return Info{}, err
	}
	info.Records = tr.count
	fp, _ := tr.Fingerprint()
	info.Fingerprint = fmt.Sprintf("%x", fp[:])
	return info, nil
}
