package tracefile

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/isa"
)

// genRecords builds a deterministic, varied record stream: strided and
// pointer-chasing loads, stores, branches with large PC jumps (negative
// deltas), software prefetches, and ALU padding.
func genRecords(n int) []isa.Record {
	recs := make([]isa.Record, 0, n)
	pc := uint64(0x0040_0000)
	addr := uint64(0x1000_0000)
	state := uint64(0x9e3779b97f4a7c15)
	for len(recs) < n {
		state = state*6364136223846793005 + 1442695040888963407
		pc += isa.InstrBytes * (1 + state%7)
		switch state % 6 {
		case 0:
			recs = append(recs, isa.Load(pc, addr))
			addr += 32
		case 1:
			recs = append(recs, isa.Store(pc, addr^(state>>32)&^31))
		case 2:
			recs = append(recs, isa.DepLoad(pc, 0x2000_0000+(state>>17)%(1<<20)))
		case 3:
			// Taken branch jumping backwards: exercises negative PC deltas
			// and the branch-target address field.
			target := pc - isa.InstrBytes*(state%64)
			recs = append(recs, isa.Branch(pc, target, true))
			pc = target
		case 4:
			recs = append(recs, isa.Branch(pc, pc+8*isa.InstrBytes, false))
		default:
			recs = append(recs, isa.ALU(pc))
		}
	}
	return recs
}

func encodeAll(t *testing.T, recs []isa.Record, chunkBytes int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, recs, WriterOptions{ChunkBytes: chunkBytes}); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return buf.Bytes()
}

func TestRoundTripIdentity(t *testing.T) {
	recs := genRecords(5000)
	for _, chunkBytes := range []int{1, 64, 1024, 1 << 20} {
		data := encodeAll(t, recs, chunkBytes)
		got, err := Decode(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("chunkBytes=%d: Decode: %v", chunkBytes, err)
		}
		if len(got) != len(recs) {
			t.Fatalf("chunkBytes=%d: decoded %d records, want %d", chunkBytes, len(got), len(recs))
		}
		for i := range recs {
			if got[i] != recs[i] {
				t.Fatalf("chunkBytes=%d: record %d = %+v, want %+v", chunkBytes, i, got[i], recs[i])
			}
		}
	}
}

func TestFingerprintStableAcrossChunkSizes(t *testing.T) {
	recs := genRecords(3000)
	var want [32]byte
	for i, chunkBytes := range []int{1, 128, 4096, 1 << 22} {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, WriterOptions{ChunkBytes: chunkBytes})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if err := w.Write(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		fp := w.Fingerprint()
		if i == 0 {
			want = fp
		} else if fp != want {
			t.Fatalf("chunkBytes=%d: fingerprint %x, want %x", chunkBytes, fp, want)
		}
		// The trailer agrees, and a verifying reader reproduces it.
		r, err := NewReader(bytes.NewReader(buf.Bytes()), ReaderOptions{VerifyFingerprint: true})
		if err != nil {
			t.Fatal(err)
		}
		for {
			if _, ok := r.Next(); !ok {
				break
			}
		}
		if err := r.Err(); err != nil {
			t.Fatalf("chunkBytes=%d: verify decode: %v", chunkBytes, err)
		}
		got, ok := r.Fingerprint()
		if !ok || got != want {
			t.Fatalf("chunkBytes=%d: trailer fingerprint %x (ok=%v), want %x", chunkBytes, got, ok, want)
		}
	}
	if sha := sha256.Sum256(nil); want == sha {
		t.Fatal("fingerprint of a non-empty trace equals sha256 of nothing")
	}
}

// TestFingerprintMidStream: Fingerprint between writes covers every
// record written so far, whether or not its canonical bytes were already
// hashed, and later writes carry on from it: at every probe it equals the
// fingerprint of a trace holding just those records.
func TestFingerprintMidStream(t *testing.T) {
	recs := genRecords(12_000) // several canonical hashing blocks
	var buf bytes.Buffer
	w, err := NewWriter(&buf, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if i%2999 == 0 {
			var prefix bytes.Buffer
			pw, err := NewWriter(&prefix, WriterOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, pr := range recs[:i] {
				if err := pw.Write(pr); err != nil {
					t.Fatal(err)
				}
			}
			if err := pw.Close(); err != nil {
				t.Fatal(err)
			}
			if got, want := w.Fingerprint(), pw.Fingerprint(); got != want {
				t.Fatalf("after %d records: fingerprint %x, want %x", i, got, want)
			}
		}
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRecordsSpanChunkBoundaries(t *testing.T) {
	// A 1-byte chunk target forces a cut after every record: the stream
	// decodes across many chunk boundaries, and every chunk decodes
	// independently (PC-delta state reset per chunk).
	recs := genRecords(200)
	data := encodeAll(t, recs, 1)
	info, err := Inspect(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Inspect: %v", err)
	}
	if len(info.Chunks) != len(recs) {
		t.Fatalf("got %d chunks, want one per record (%d)", len(info.Chunks), len(recs))
	}
	for i, c := range info.Chunks {
		if c.Records != 1 {
			t.Fatalf("chunk %d holds %d records, want 1", i, c.Records)
		}
	}
	got, err := Decode(bytes.NewReader(data))
	if err != nil || len(got) != len(recs) {
		t.Fatalf("Decode: %d records, err=%v", len(got), err)
	}
}

// TestFarBranchRecordsSpanChunkBoundaries is the chunk-boundary
// regression test for large PC deltas: far taken branches, whose
// successors carry multi-byte PC deltas, land last in a chunk, and
// every encoding must decode to the same records as the one-chunk
// encoding.
func TestFarBranchRecordsSpanChunkBoundaries(t *testing.T) {
	far := farBranchRecords()
	ref, err := Decode(bytes.NewReader(encodeAll(t, far, 1<<20)))
	if err != nil || len(ref) != len(far) {
		t.Fatalf("one-chunk Decode: %d records, err=%v", len(ref), err)
	}
	for _, chunkBytes := range []int{1, 3, 7, 16, 64} {
		data := encodeAll(t, far, chunkBytes)
		info, err := Inspect(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("ChunkBytes=%d: Inspect: %v", chunkBytes, err)
		}
		if len(info.Chunks) < 2 {
			t.Fatalf("ChunkBytes=%d produced a single chunk; want a multi-chunk encoding", chunkBytes)
		}
		if chunkBytes == 1 {
			// ChunkBytes=1 cuts after every record, so the scenario
			// must hold: some chunk's last record is a taken branch.
			branchEndsChunk := false
			cum := 0
			for _, c := range info.Chunks {
				cum += int(c.Records)
				if last := far[cum-1]; last.Op == isa.OpBranch && last.Taken {
					branchEndsChunk = true
				}
			}
			if !branchEndsChunk {
				t.Fatal("no chunk ends on a taken-branch record; the regression scenario is not exercised")
			}
		}
		got, err := Decode(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("ChunkBytes=%d: Decode: %v", chunkBytes, err)
		}
		if len(got) != len(ref) {
			t.Fatalf("ChunkBytes=%d: %d records, want %d", chunkBytes, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("ChunkBytes=%d: record %d = %+v, want %+v", chunkBytes, i, got[i], ref[i])
			}
		}
	}
}

// farBranchRecords builds an executed-path record stream that walks
// several instruction blocks sequentially, takes a far branch, runs at
// the target, and branches back, so the PC deltas around the branches
// are large (multi-byte varints whose decoding depends on the per-chunk
// PC-delta reset).
func farBranchRecords() []isa.Record {
	var recs []isa.Record
	pc := uint64(0x40_0000)
	run := func(n int) {
		for i := 0; i < n; i++ {
			recs = append(recs, isa.ALU(pc))
			pc += isa.InstrBytes
		}
	}
	jump := func(target uint64) {
		recs = append(recs, isa.Branch(pc, target, true))
		pc = target
	}
	run(20)         // ~2.5 blocks of straight-line code
	jump(0x7f_0000) // far taken branch: big positive PC delta
	run(10)         // land in a new region
	jump(0x40_0040) // far branch back: big negative PC delta
	run(12)
	jump(0x7f_0100) // and once more, so a branch also ends the stream region
	run(6)
	return recs
}

func TestWriterCutsOnlyAtRecordBoundaries(t *testing.T) {
	// Odd mid-record chunk targets: total decoded payload must still
	// partition exactly into whole records (no trailing bytes → no
	// ErrCorrupt) and chunk record counts must sum to the total.
	recs := genRecords(1000)
	for _, chunkBytes := range []int{3, 7, 13, 61} {
		data := encodeAll(t, recs, chunkBytes)
		info, err := Inspect(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("chunkBytes=%d: Inspect: %v", chunkBytes, err)
		}
		var sum uint64
		for i, c := range info.Chunks {
			if i < len(info.Chunks)-1 && int(c.Bytes) < chunkBytes {
				t.Fatalf("chunkBytes=%d: non-final chunk %d is %d bytes, cut before the target", chunkBytes, i, c.Bytes)
			}
			sum += uint64(c.Records)
		}
		if sum != uint64(len(recs)) {
			t.Fatalf("chunkBytes=%d: chunk record counts sum to %d, want %d", chunkBytes, sum, len(recs))
		}
	}
}

func TestEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, nil, WriterOptions{}); err != nil {
		t.Fatalf("Encode(empty): %v", err)
	}
	wantLen := fileHeaderLen + chunkHeaderLen + trailerLen // header + sentinel + trailer
	if buf.Len() != wantLen {
		t.Fatalf("empty trace is %d bytes, want %d", buf.Len(), wantLen)
	}
	recs, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Decode(empty): %v", err)
	}
	if len(recs) != 0 {
		t.Fatalf("decoded %d records from an empty trace", len(recs))
	}
	info, err := Inspect(bytes.NewReader(buf.Bytes()))
	if err != nil || info.Records != 0 || len(info.Chunks) != 0 {
		t.Fatalf("Inspect(empty) = %+v, err=%v", info, err)
	}
}

func TestTruncatedFinalChunk(t *testing.T) {
	recs := genRecords(500)
	data := encodeAll(t, recs, 256)
	// Cut the stream at several depths: inside the trailer, inside the
	// sentinel, inside the final chunk's payload, inside a chunk header,
	// and inside the file header.
	for _, cut := range []int{len(data) - 10, len(data) - trailerLen - 4, len(data) - trailerLen - chunkHeaderLen - 5, fileHeaderLen + 3, 7} {
		_, err := Decode(bytes.NewReader(data[:cut]))
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut=%d: err = %v, want ErrTruncated", cut, err)
		}
	}
}

func TestCRCMismatch(t *testing.T) {
	recs := genRecords(500)
	data := encodeAll(t, recs, 256)
	corrupt := bytes.Clone(data)
	corrupt[fileHeaderLen+chunkHeaderLen+5] ^= 0x41 // flip a byte inside chunk 0's payload
	_, err := Decode(bytes.NewReader(corrupt))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestHeaderValidation(t *testing.T) {
	data := encodeAll(t, genRecords(10), 0)

	bad := bytes.Clone(data)
	bad[0] = 'X'
	if _, err := NewReader(bytes.NewReader(bad), ReaderOptions{}); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("magic: err = %v, want ErrBadMagic", err)
	}

	bad = bytes.Clone(data)
	binary.LittleEndian.PutUint16(bad[4:6], 99)
	if _, err := NewReader(bytes.NewReader(bad), ReaderOptions{}); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("version: err = %v, want ErrBadVersion", err)
	}

	bad = bytes.Clone(data)
	bad[6] = 1 // reserved flags
	if _, err := NewReader(bytes.NewReader(bad), ReaderOptions{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flags: err = %v, want ErrCorrupt", err)
	}
}

func TestTrailerCountMismatch(t *testing.T) {
	data := encodeAll(t, genRecords(100), 0)
	bad := bytes.Clone(data)
	// The trailer's record count is the first u64 of the final 48 bytes.
	binary.LittleEndian.PutUint64(bad[len(bad)-trailerLen:], 12345)
	if _, err := Decode(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestFingerprintMismatchDetected(t *testing.T) {
	data := encodeAll(t, genRecords(100), 0)
	bad := bytes.Clone(data)
	bad[len(bad)-1] ^= 0xff // last fingerprint byte
	_, err := Decode(bytes.NewReader(bad))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	// A non-verifying reader accepts the file (CRCs are intact) — the
	// fingerprint is an end-to-end identity, not a per-read gate.
	r, err := NewReader(bytes.NewReader(bad), ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := r.Next(); !ok {
			break
		}
	}
	if err := r.Err(); err != nil {
		t.Fatalf("non-verifying read: %v", err)
	}
}

func TestOversizeChunkRejected(t *testing.T) {
	data := encodeAll(t, genRecords(2000), 1<<12)
	_, err := Decode(bytes.NewReader(data)) // sanity: valid as written
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(data), ReaderOptions{MaxChunkBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Next(); ok {
		t.Fatal("reader produced a record from a chunk above its size cap")
	}
	if err := r.Err(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestWriterRejectsInvalidRecord(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(isa.Record{Op: isa.OpLoad, PC: 2}); err == nil { // misaligned PC
		t.Fatal("Write accepted a misaligned PC")
	}
	// The writer is poisoned after an error.
	if err := w.Write(isa.ALU(4)); err == nil {
		t.Fatal("writes after an error should keep failing")
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close after an error should fail")
	}
}

// TestCompressionDensity: sequential ALU records (PC delta +4, no
// address) cost about 2 payload bytes each, and Count tracks every
// record written.
func TestCompressionDensity(t *testing.T) {
	recs := make([]isa.Record, 10000)
	for i := range recs {
		recs[i] = isa.ALU(uint64(0x400000 + i*isa.InstrBytes))
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != uint64(len(recs)) {
		t.Fatalf("Count = %d, want %d", w.Count(), len(recs))
	}
	payload := 0
	for _, c := range w.Chunks() {
		payload += int(c.Bytes)
	}
	if per := float64(payload) / float64(len(recs)); per > 3 {
		t.Fatalf("sequential ALU records cost %.1f bytes each, want <= 3", per)
	}
}
