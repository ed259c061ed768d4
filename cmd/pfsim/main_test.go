package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/tracefile"
	"repro/internal/workload"
)

// TestSimulateFailsOnCorruptTrace: a trace that stops on a decode error
// halfway through must fail the run, not report the records before the
// fault as a complete simulation.
func TestSimulateFailsOnCorruptTrace(t *testing.T) {
	spec, _ := workload.ByName("mcf")
	recs := isa.Collect(spec.New(1), 20_000)
	var buf bytes.Buffer
	w, err := tracefile.NewWriter(&buf, tracefile.WriterOptions{ChunkBytes: 4096})
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
	data := buf.Bytes()

	// The CRC field of the middle chunk's header: a 16-byte file header,
	// then per chunk a 16-byte header (length, records, CRC, reserved)
	// and its payload.
	chunks := w.Chunks()
	off := 16
	for _, c := range chunks[:len(chunks)/2] {
		off += 16 + int(c.Bytes)
	}
	flipped := bytes.Clone(data)
	flipped[off+8] ^= 0x01

	dir := t.TempDir()
	path := func(name string, b []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	opts := sim.Options{MaxInstructions: int64(len(recs)), Warmup: -1}

	run, err := simulate(opts, path("clean.pftc", data))
	if err != nil {
		t.Fatalf("clean trace: %v", err)
	}
	if run.Instructions == 0 {
		t.Fatal("clean trace simulated no instructions")
	}
	for name, bad := range map[string][]byte{
		"flipped-crc": flipped,
		"truncated":   data[:len(data)/2],
	} {
		_, err := simulate(opts, path(name+".pftc", bad))
		if !errors.Is(err, tracefile.ErrCorrupt) && !errors.Is(err, tracefile.ErrTruncated) {
			t.Errorf("%s: err = %v, want a corrupt or truncated trace error", name, err)
		}
	}
}
