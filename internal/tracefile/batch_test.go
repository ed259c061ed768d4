package tracefile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/isa"
)

// drain reads r to its end, through Next when batch is 0 and through
// NextBatch with batches of that size otherwise.
func drain(r *Reader, batch int) []isa.Record {
	var out []isa.Record
	if batch == 0 {
		for {
			rec, ok := r.Next()
			if !ok {
				return out
			}
			out = append(out, rec)
		}
	}
	buf := make([]isa.Record, batch)
	for {
		n := r.NextBatch(buf)
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
	}
}

// rawTrace frames one chunk holding payload, which claims records
// records, as a whole PFTC stream with a correct CRC and trailer counts,
// so the decoder's record checks, not its CRC, are what reject it.
func rawTrace(payload []byte, records uint32) []byte {
	out := append([]byte(nil), Magic[:]...)
	out = binary.LittleEndian.AppendUint16(out, Version)
	out = append(out, make([]byte, 10)...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, records)
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, castagnoli))
	out = binary.LittleEndian.AppendUint32(out, 0)
	out = append(out, payload...)
	out = append(out, make([]byte, chunkHeaderLen)...) // sentinel
	out = binary.LittleEndian.AppendUint64(out, uint64(records))
	out = binary.LittleEndian.AppendUint32(out, 1)
	return append(out, make([]byte, 4+32)...)
}

func TestNextBatchNeverCrossesAChunk(t *testing.T) {
	recs := genRecords(3000)
	data := encodeAll(t, recs, 512)
	info, err := Inspect(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Chunks) < 3 {
		t.Fatalf("%d chunks; the test needs several", len(info.Chunks))
	}
	r, err := NewReader(bytes.NewReader(data), ReaderOptions{VerifyFingerprint: true})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]isa.Record, 1<<12) // larger than any chunk
	var got []isa.Record
	for i, c := range info.Chunks {
		n := r.NextBatch(buf)
		if n != int(c.Records) {
			t.Fatalf("batch %d: %d records, chunk holds %d", i, n, c.Records)
		}
		got = append(got, buf[:n]...)
	}
	if n := r.NextBatch(buf); n != 0 || r.Err() != nil {
		t.Fatalf("after the last chunk: %d records, err %v", n, r.Err())
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d: %+v, want %+v", i, got[i], recs[i])
		}
	}
}

func TestNextBatchReturnsGoodRecordsBeforeAFault(t *testing.T) {
	var good []byte
	var lastPC uint64
	recs := genRecords(5)
	for _, rec := range recs {
		good = appendRecord(good, rec, &lastPC)
	}
	cases := []struct {
		name    string
		payload []byte
		records uint32
		want    int // records delivered before the fault
	}{
		// A sixth record with an invalid op byte.
		{"bad-op", append(bytes.Clone(good), opMask), 7, 5},
		// A sixth record whose PC-delta varint never terminates.
		{"bad-varint", append(bytes.Clone(good), byte(isa.OpALU), 0x80), 6, 5},
		// The chunk claims more records than its payload holds.
		{"short-payload", bytes.Clone(good), 6, 5},
		// A stray byte after the chunk's last record: the last record is
		// withheld, as Next withholds it.
		{"trailing-byte", append(bytes.Clone(good), 0), 5, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := rawTrace(tc.payload, tc.records)
			for _, batch := range []int{0, 1, 2, 64} {
				r, err := NewReader(bytes.NewReader(data), ReaderOptions{})
				if err != nil {
					t.Fatal(err)
				}
				got := drain(r, batch)
				if len(got) != tc.want || !errors.Is(r.Err(), ErrCorrupt) {
					t.Fatalf("batch %d: %d records, err %v; want %d records and ErrCorrupt", batch, len(got), r.Err(), tc.want)
				}
				if r.Records() != uint64(tc.want) {
					t.Fatalf("batch %d: Records() = %d, want %d", batch, r.Records(), tc.want)
				}
				for i := range got {
					if got[i] != recs[i] {
						t.Fatalf("batch %d: record %d = %+v, want %+v", batch, i, got[i], recs[i])
					}
				}
			}
		})
	}
}

// TestFileSourceLoopBackDoesNotAllocate pins that replaying a trace
// re-arms one Reader instead of building a new one per pass: the
// allocations of a replay do not grow with the number of passes.
func TestFileSourceLoopBackDoesNotAllocate(t *testing.T) {
	recs := genRecords(500)
	path := filepath.Join(t.TempDir(), "loop.pftc")
	if err := os.WriteFile(path, encodeAll(t, recs, 1024), 0o644); err != nil {
		t.Fatal(err)
	}
	replay := func(passes int) func() {
		return func() {
			s := newFileSource(path, 0)
			var buf [64]isa.Record
			for left := passes * len(recs); left > 0; {
				n := s.NextBatch(buf[:min(len(buf), left)])
				if n == 0 {
					t.Fatal("source ended")
				}
				left -= n
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	one := testing.AllocsPerRun(5, replay(1))
	many := testing.AllocsPerRun(5, replay(20))
	if many > one {
		t.Fatalf("20 passes allocate %.0f times, 1 pass %.0f: loop-back allocates", many, one)
	}
}

// FuzzReaderBatch is a differential fuzz target for the PFTC decoder: on
// any input, Next alone and NextBatch at several batch sizes must yield
// the same records, the same Records() count, and the same class of
// error, with and without the fingerprint re-hash.
func FuzzReaderBatch(f *testing.F) {
	for _, chunkBytes := range []int{0, 4096} {
		_, raw := convertSample(f, chunkBytes)
		f.Add(raw)
		f.Add(raw[:len(raw)/2])
		f.Add(raw[:len(raw)-trailerLen/2])
		flipped := bytes.Clone(raw)
		flipped[fileHeaderLen+8] ^= 0x01 // chunk 0's CRC
		f.Add(flipped)
	}
	f.Add(rawTrace(append([]byte{byte(isa.OpALU), 2}, opMask), 2))
	classes := []error{ErrBadMagic, ErrBadVersion, ErrTruncated, ErrCorrupt}
	class := func(err error) int {
		if err == nil {
			return -1
		}
		for i, c := range classes {
			if errors.Is(err, c) {
				return i
			}
		}
		return len(classes)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, verify := range []bool{false, true} {
			opts := ReaderOptions{MaxChunkBytes: 1 << 20, VerifyFingerprint: verify}
			var (
				want      []isa.Record
				wantCount uint64
				wantClass int
			)
			for _, batch := range []int{0, 1, 3, 256} {
				r, err := NewReader(bytes.NewReader(data), opts)
				if err != nil {
					return // the header is shared; nothing to compare
				}
				got := drain(r, batch)
				if batch == 0 {
					want, wantCount, wantClass = got, r.Records(), class(r.Err())
					continue
				}
				if len(got) != len(want) {
					t.Fatalf("verify=%v batch %d: %d records, Next gave %d", verify, batch, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("verify=%v batch %d: record %d = %+v, Next gave %+v", verify, batch, i, got[i], want[i])
					}
				}
				if r.Records() != wantCount {
					t.Fatalf("verify=%v batch %d: Records() = %d, Next gave %d", verify, batch, r.Records(), wantCount)
				}
				if c := class(r.Err()); c != wantClass {
					t.Fatalf("verify=%v batch %d: error %v (class %d), Next's class %d", verify, batch, r.Err(), c, wantClass)
				}
			}
		}
	})
}
