package tracefile

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/isa"
)

// champSimBytes encodes instructions in ChampSim's 64-byte layout.
func champSimBytes(t *testing.T, instrs []champSimInstr) []byte {
	t.Helper()
	var buf bytes.Buffer
	var rec [champSimRecLen]byte
	for _, in := range instrs {
		for i := range rec {
			rec[i] = 0
		}
		binary.LittleEndian.PutUint64(rec[0:8], in.ip)
		if in.isBranch {
			rec[8] = 1
		}
		if in.taken {
			rec[9] = 1
		}
		for i, a := range in.destMem {
			binary.LittleEndian.PutUint64(rec[16+8*i:], a)
		}
		for i, a := range in.srcMem {
			binary.LittleEndian.PutUint64(rec[32+8*i:], a)
		}
		buf.Write(rec[:])
	}
	return buf.Bytes()
}

func TestConvertChampSim(t *testing.T) {
	instrs := []champSimInstr{
		{ip: 0x401003, srcMem: [champSimSrcMem]uint64{0x10000040, 0x10000080}}, // two loads, unaligned ip
		{ip: 0x401008, destMem: [champSimDestMem]uint64{0x20000000}},           // one store
		{ip: 0x40100c, isBranch: true, taken: true},                            // taken: target = next ip
		{ip: 0x401055}, // pure ALU
		{ip: 0x401060, isBranch: true, taken: false}, // not-taken branch
		{ip: 0x401064, srcMem: [champSimSrcMem]uint64{0x10000100},
			destMem: [champSimDestMem]uint64{0x20000040}}, // load + store, no ALU record
	}
	var out bytes.Buffer
	st, err := ConvertChampSim(bytes.NewReader(champSimBytes(t, instrs)), &out, WriterOptions{})
	if err != nil {
		t.Fatalf("ConvertChampSim: %v", err)
	}
	if st.Instructions != 6 || st.Loads != 3 || st.Stores != 2 || st.Branches != 2 || st.Taken != 1 {
		t.Fatalf("stats = %+v", st)
	}
	recs, err := Decode(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	want := []isa.Record{
		isa.Load(0x401000, 0x10000040), // ip 0x401003 aligned down
		isa.Load(0x401000, 0x10000080),
		isa.Store(0x401008, 0x20000000),
		isa.Branch(0x40100c, 0x401054, true), // target: next ip 0x401055 aligned down
		isa.ALU(0x401054),
		isa.Branch(0x401060, 0x401064, false),
		isa.Load(0x401064, 0x10000100),
		isa.Store(0x401064, 0x20000040),
	}
	if len(recs) != len(want) {
		t.Fatalf("decoded %d records, want %d: %+v", len(recs), len(want), recs)
	}
	for i := range want {
		if recs[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, recs[i], want[i])
		}
	}
	if st.Records != uint64(len(want)) {
		t.Fatalf("stats.Records = %d, want %d", st.Records, len(want))
	}
}

func TestConvertChampSimFinalTakenBranch(t *testing.T) {
	instrs := []champSimInstr{
		{ip: 0x401000, isBranch: true, taken: true}, // no successor
	}
	var out bytes.Buffer
	if _, err := ConvertChampSim(bytes.NewReader(champSimBytes(t, instrs)), &out, WriterOptions{}); err != nil {
		t.Fatal(err)
	}
	recs, err := Decode(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want := isa.Branch(0x401000, 0x401000+isa.InstrBytes, true)
	if len(recs) != 1 || recs[0] != want {
		t.Fatalf("recs = %+v, want [%+v]", recs, want)
	}
}

func TestConvertChampSimTruncated(t *testing.T) {
	data := champSimBytes(t, []champSimInstr{{ip: 0x401000}, {ip: 0x401004}})
	var out bytes.Buffer
	if _, err := ConvertChampSim(bytes.NewReader(data[:len(data)-7]), &out, WriterOptions{}); err == nil {
		t.Fatal("converter accepted input truncated mid-record")
	}
}

func TestMaybeGzip(t *testing.T) {
	plain := champSimBytes(t, []champSimInstr{{ip: 0x401000}})
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(plain); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	for name, in := range map[string][]byte{"plain": plain, "gzip": gz.Bytes()} {
		r, err := MaybeGzip(bytes.NewReader(in))
		if err != nil {
			t.Fatalf("%s: MaybeGzip: %v", name, err)
		}
		var out bytes.Buffer
		st, err := ConvertChampSim(r, &out, WriterOptions{})
		if err != nil {
			t.Fatalf("%s: convert: %v", name, err)
		}
		if st.Instructions != 1 {
			t.Fatalf("%s: %d instructions, want 1", name, st.Instructions)
		}
	}
}

// FuzzConvertChampSim: on any input the converter either errors, or
// writes a PFTC stream that decodes to exactly the records it counted
// and fingerprints to the value it reported.
func FuzzConvertChampSim(f *testing.F) {
	fx, err := os.Open(filepath.Join("testdata", "sample.champsim.gz"))
	if err != nil {
		f.Fatal(err)
	}
	defer func() { _ = fx.Close() }() // read-only
	src, err := MaybeGzip(fx)
	if err != nil {
		f.Fatal(err)
	}
	raw, err := io.ReadAll(src)
	if err != nil {
		f.Fatal(err)
	}
	// A 128-instruction prefix keeps each execution fast; 256-byte chunks
	// still split its output across several chunks.
	head := raw[:128*champSimRecLen]
	f.Add(head)
	f.Add(head[:len(head)-champSimRecLen/2]) // truncated mid-record
	f.Fuzz(func(t *testing.T, data []byte) {
		var out bytes.Buffer
		st, err := ConvertChampSim(bytes.NewReader(data), &out, WriterOptions{ChunkBytes: 256})
		if err != nil {
			return
		}
		if st.Instructions != uint64(len(data)/champSimRecLen) {
			t.Fatalf("converted %d instructions from %d bytes", st.Instructions, len(data))
		}
		recs, err := Decode(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("Decode of converted trace: %v", err)
		}
		if uint64(len(recs)) != st.Records {
			t.Fatalf("decoded %d records, converter counted %d", len(recs), st.Records)
		}
		info, err := Inspect(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("Inspect of converted trace: %v", err)
		}
		if info.Fingerprint != st.Fingerprint {
			t.Fatalf("Inspect fingerprint %s, converter reported %s", info.Fingerprint, st.Fingerprint)
		}
	})
}
