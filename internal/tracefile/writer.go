// The PFTC encoder: buffers records into chunks, stamps each chunk's
// CRC and sha256, and finalizes with the sentinel + trailer carrying
// the chunk-size-independent stream fingerprint.

package tracefile

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"hash/crc32"
	"io"

	"repro/internal/isa"
)

// castagnoli is the CRC-32C table every chunk checksum uses.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ChunkInfo describes one finished chunk of a PFTC file.
type ChunkInfo struct {
	// Records is the record count of the chunk.
	Records uint32 `json:"records"`
	// Bytes is the payload length in bytes.
	Bytes uint32 `json:"bytes"`
	// CRC32C is the payload checksum from the chunk header.
	CRC32C uint32 `json:"crc32c"`
	// SHA256 is the hex sha256 of the payload bytes — the per-chunk
	// fingerprint CI pins for committed fixtures.
	SHA256 string `json:"sha256"`
}

// WriterOptions tune the encoder.
type WriterOptions struct {
	// ChunkBytes is the target payload size: the writer cuts a chunk at
	// the first record boundary at or past it. 0 selects
	// DefaultChunkBytes.
	ChunkBytes int
}

// Writer encodes records into a PFTC stream. Close finalizes the file;
// the underlying writer is not closed.
type Writer struct {
	w      *bufio.Writer
	target int

	chunk     []byte // current chunk payload
	chunkRecs uint32
	lastPC    uint64 // per-chunk PC-delta state

	canonPC uint64    // canonical (never-reset) PC-delta state
	canon   hash.Hash // sha256 over the canonical encoding
	scratch []byte    // canonical-encoding scratch buffer

	count  uint64
	chunks []ChunkInfo
	closed bool
	err    error
}

// NewWriter writes the file header and returns a streaming encoder.
func NewWriter(w io.Writer, opts WriterOptions) (*Writer, error) {
	target := opts.ChunkBytes
	if target <= 0 {
		target = DefaultChunkBytes
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	var hdr [fileHeaderLen]byte
	copy(hdr[:4], Magic[:])
	binary.LittleEndian.PutUint16(hdr[4:6], Version)
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("tracefile: writing header: %w", err)
	}
	return &Writer{w: bw, target: target, canon: sha256.New()}, nil
}

// Write encodes one record.
func (w *Writer) Write(r isa.Record) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return fmt.Errorf("tracefile: write after Close")
	}
	if err := r.Validate(); err != nil {
		w.err = err
		return err
	}
	w.chunk = appendRecord(w.chunk, r, &w.lastPC)
	w.chunkRecs++
	w.count++
	w.scratch = appendRecord(w.scratch[:0], r, &w.canonPC)
	w.canon.Write(w.scratch)
	if len(w.chunk) >= w.target {
		return w.flushChunk()
	}
	return nil
}

// flushChunk writes the buffered payload as one chunk.
func (w *Writer) flushChunk() error {
	if w.chunkRecs == 0 {
		return nil
	}
	var hdr [chunkHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(w.chunk)))
	binary.LittleEndian.PutUint32(hdr[4:8], w.chunkRecs)
	crc := crc32.Checksum(w.chunk, castagnoli)
	binary.LittleEndian.PutUint32(hdr[8:12], crc)
	if _, err := w.w.Write(hdr[:]); err != nil {
		w.err = err
		return err
	}
	if _, err := w.w.Write(w.chunk); err != nil {
		w.err = err
		return err
	}
	sum := sha256.Sum256(w.chunk)
	w.chunks = append(w.chunks, ChunkInfo{
		Records: w.chunkRecs,
		Bytes:   uint32(len(w.chunk)),
		CRC32C:  crc,
		SHA256:  hex.EncodeToString(sum[:]),
	})
	w.chunk = w.chunk[:0]
	w.chunkRecs = 0
	w.lastPC = 0
	return nil
}

// Close flushes the final partial chunk and writes the sentinel and
// trailer. The underlying writer is not closed.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return nil
	}
	if err := w.flushChunk(); err != nil {
		return err
	}
	var tail [chunkHeaderLen + trailerLen]byte // sentinel is all zeros
	binary.LittleEndian.PutUint64(tail[chunkHeaderLen:], w.count)
	binary.LittleEndian.PutUint32(tail[chunkHeaderLen+8:], uint32(len(w.chunks)))
	copy(tail[chunkHeaderLen+16:], w.canon.Sum(nil))
	if _, err := w.w.Write(tail[:]); err != nil {
		w.err = err
		return err
	}
	if err := w.w.Flush(); err != nil {
		w.err = err
		return err
	}
	w.closed = true
	return nil
}

// Count returns the number of records written so far.
func (w *Writer) Count() uint64 { return w.count }

// Chunks returns the finished chunks' descriptors. Complete only after
// Close (the final partial chunk flushes there).
func (w *Writer) Chunks() []ChunkInfo { return w.chunks }

// Fingerprint returns the chunk-size-independent stream fingerprint of
// everything written so far (equal to the trailer's after Close).
func (w *Writer) Fingerprint() [32]byte {
	var sum [32]byte
	copy(sum[:], w.canon.Sum(nil))
	return sum
}

// Encode writes all of recs to w as one PFTC stream.
func Encode(w io.Writer, recs []isa.Record, opts WriterOptions) error {
	tw, err := NewWriter(w, opts)
	if err != nil {
		return err
	}
	for _, r := range recs {
		if err := tw.Write(r); err != nil {
			return err
		}
	}
	return tw.Close()
}
