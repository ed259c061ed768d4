// Records on disk: isa.Record's one serialized form is the PFTC format of
// internal/tracefile. These tests hold that format to the record model —
// every record the isa package can build survives a round trip exactly,
// and every malformed input is rejected rather than misread. They live
// in an external test package because tracefile imports isa.
package isa_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/tracefile"
	"repro/internal/xrand"
)

func randomTrace(seed uint64, n int) []isa.Record {
	r := xrand.New(seed)
	recs := make([]isa.Record, 0, n)
	pc := uint64(0x400000)
	for i := 0; i < n; i++ {
		pc += 4
		switch r.Intn(5) {
		case 0:
			recs = append(recs, isa.ALU(pc))
		case 1:
			recs = append(recs, isa.Load(pc, r.Uint64n(1<<40)))
		case 2:
			recs = append(recs, isa.Store(pc, r.Uint64n(1<<40)))
		case 3:
			recs = append(recs, isa.Branch(pc, (r.Uint64n(1<<30))<<2, r.Bool(0.5)))
		default:
			rec := isa.Prefetch(pc, r.Uint64n(1<<40))
			rec.Dep = r.Bool(0.3)
			recs = append(recs, rec)
		}
	}
	return recs
}

func encode(t testing.TB, recs []isa.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tracefile.Encode(&buf, recs, tracefile.WriterOptions{}); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return buf.Bytes()
}

// oneChunk frames payload, claiming records records, as a whole PFTC
// stream with a correct CRC and trailer counts, so only the record
// decoder can reject it.
func oneChunk(payload []byte, records uint32) []byte {
	out := append([]byte(nil), tracefile.Magic[:]...)
	out = binary.LittleEndian.AppendUint16(out, tracefile.Version)
	out = append(out, make([]byte, 10)...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, records)
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	out = binary.LittleEndian.AppendUint32(out, 0)
	out = append(out, payload...)
	out = append(out, make([]byte, 16)...) // sentinel chunk header
	out = binary.LittleEndian.AppendUint64(out, uint64(records))
	out = binary.LittleEndian.AppendUint32(out, 1)
	return append(out, make([]byte, 4+32)...)
}

func TestTraceRoundTrip(t *testing.T) {
	recs := randomTrace(1, 5000)
	got, err := tracefile.Decode(bytes.NewReader(encode(t, recs)))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		// Lossless: not-taken branches keep their target too.
		if got[i] != recs[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, got[i], recs[i])
		}
	}
}

func TestTraceRoundTripProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%200 + 1
		recs := randomTrace(seed, n)
		var buf bytes.Buffer
		if err := tracefile.Encode(&buf, recs, tracefile.WriterOptions{ChunkBytes: 64}); err != nil {
			return false
		}
		got, err := tracefile.Decode(&buf)
		if err != nil || len(got) != len(recs) {
			return false
		}
		for i := range recs {
			if got[i] != recs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyTrace(t *testing.T) {
	got, err := tracefile.Decode(bytes.NewReader(encode(t, nil)))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("expected empty, got %d", len(got))
	}
}

func TestBadMagic(t *testing.T) {
	_, err := tracefile.Decode(bytes.NewReader([]byte("NOTATRACE_______")))
	if !errors.Is(err, tracefile.ErrBadMagic) {
		t.Fatalf("want ErrBadMagic, got %v", err)
	}
}

func TestShortHeader(t *testing.T) {
	if _, err := tracefile.Decode(bytes.NewReader([]byte("PFT"))); err == nil {
		t.Fatal("short header should fail")
	}
}

func TestTruncatedBody(t *testing.T) {
	data := encode(t, randomTrace(2, 100))
	r, err := tracefile.NewReader(bytes.NewReader(data[:len(data)-3]), tracefile.ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := r.Next(); !ok {
			break
		}
	}
	if !errors.Is(r.Err(), tracefile.ErrTruncated) {
		t.Fatalf("truncated trace should surface ErrTruncated, got %v", r.Err())
	}
}

func TestInvalidOpByte(t *testing.T) {
	// A valid ALU record, then op bits = 63: invalid.
	data := oneChunk([]byte{byte(isa.OpALU), 8, 0x3f, 0x00}, 2)
	r, err := tracefile.NewReader(bytes.NewReader(data), tracefile.ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rec, ok := r.Next(); !ok || rec != isa.ALU(4) {
		t.Fatalf("first record: %+v, %v; want the ALU before the bad op", rec, ok)
	}
	if _, ok := r.Next(); ok {
		t.Fatal("invalid op should stop the reader")
	}
	if !errors.Is(r.Err(), tracefile.ErrCorrupt) {
		t.Fatalf("invalid op should be ErrCorrupt, got %v", r.Err())
	}
}

func TestWriterRejectsInvalidRecord(t *testing.T) {
	w, err := tracefile.NewWriter(&bytes.Buffer{}, tracefile.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(isa.Record{Op: isa.Op(77), PC: 4}); err == nil {
		t.Fatal("invalid record should fail")
	}
	// Writer is poisoned after an error.
	if err := w.Write(isa.ALU(4)); err == nil {
		t.Fatal("writes after an error should keep failing")
	}
}

func TestWriterCount(t *testing.T) {
	w, err := tracefile.NewWriter(&bytes.Buffer{}, tracefile.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 7; i++ {
		if err := w.Write(isa.ALU(uint64(i) * 4)); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != 7 {
		t.Fatalf("Count = %d", w.Count())
	}
}

func TestCompressionDensity(t *testing.T) {
	// Sequential ALU records should encode to ~2 bytes each.
	recs := make([]isa.Record, 10000)
	for i := range recs {
		recs[i] = isa.ALU(uint64(0x400000 + i*4))
	}
	info, err := tracefile.Inspect(bytes.NewReader(encode(t, recs)))
	if err != nil {
		t.Fatal(err)
	}
	var payload int
	for _, c := range info.Chunks {
		payload += int(c.Bytes)
	}
	if perRecord := float64(payload) / float64(len(recs)); perRecord > 3 {
		t.Fatalf("sequential ALU records cost %.1f bytes each, want <= 3", perRecord)
	}
}

func TestReaderAsSource(t *testing.T) {
	r, err := tracefile.NewReader(bytes.NewReader(encode(t, randomTrace(3, 50))), tracefile.ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var src isa.Source = r // Reader must satisfy Source
	if got := len(isa.Collect(src, 0)); got != 50 {
		t.Fatalf("collected %d", got)
	}
}

// FuzzTraceDecode throws arbitrary bytes at the trace reader: it must
// never panic and must either decode valid records cleanly or surface an
// error through Err(); re-encoding whatever decoded must round-trip
// exactly.
func FuzzTraceDecode(f *testing.F) {
	// Seed corpus: a valid trace, a truncated one, a bad op, and nothing.
	valid := encode(f, []isa.Record{
		isa.ALU(0x400000),
		isa.Load(0x400004, 0x1000),
		isa.Branch(0x400008, 0x400020, true),
		isa.Prefetch(0x40000c, 0x2000),
	})
	f.Add(valid)
	f.Add(valid[:len(valid)-2])
	f.Add(oneChunk([]byte{byte(isa.OpALU), 2, 0x3f, 0x00}, 2))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := tracefile.NewReader(bytes.NewReader(data), tracefile.ReaderOptions{MaxChunkBytes: 1 << 20})
		if err != nil {
			return // bad magic/header: fine
		}
		var recs []isa.Record
		for {
			rec, ok := r.Next()
			if !ok {
				break
			}
			if !rec.Op.Valid() {
				t.Fatalf("reader surfaced invalid op %d", rec.Op)
			}
			recs = append(recs, rec)
		}
		if r.Err() != nil {
			return // corrupt tail: fine, as long as it surfaced
		}
		var buf bytes.Buffer
		if err := tracefile.Encode(&buf, recs, tracefile.WriterOptions{}); err != nil {
			// The writer validates records the reader does not (PC
			// alignment, among others); a decoded record it refuses
			// must be one isa itself calls invalid.
			for _, rec := range recs {
				if rec.Validate() != nil {
					return
				}
			}
			t.Fatalf("re-encode of cleanly decoded trace failed: %v", err)
		}
		got, err := tracefile.Decode(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(got) != len(recs) {
			t.Fatalf("round trip count %d != %d", len(got), len(recs))
		}
		for i := range recs {
			if got[i] != recs[i] {
				t.Fatalf("record %d: got %+v, want %+v", i, got[i], recs[i])
			}
		}
	})
}

// FuzzRecordEncode fuzzes single-record encoding parameters: every record
// round-trips exactly, except that an ALU record carries no address.
func FuzzRecordEncode(f *testing.F) {
	f.Add(uint8(1), true, false, uint64(0x400000), uint64(0x1234))
	f.Fuzz(func(t *testing.T, op uint8, taken, dep bool, pc, addr uint64) {
		rec := isa.Record{Op: isa.Op(op % 5), Taken: taken, Dep: dep, PC: pc &^ 3, Addr: addr}
		var buf bytes.Buffer
		if err := tracefile.Encode(&buf, []isa.Record{rec}, tracefile.WriterOptions{}); err != nil {
			t.Fatalf("encode: %v", err)
		}
		got, err := tracefile.Decode(&buf)
		if err != nil || len(got) != 1 {
			t.Fatalf("decode: %v (%d records)", err, len(got))
		}
		want := rec
		if want.Op == isa.OpALU {
			want.Addr = 0
		}
		if got[0] != want {
			t.Fatalf("got %+v, want %+v", got[0], want)
		}
	})
}
