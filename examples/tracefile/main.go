// Tracefile: decouple workload generation from simulation. Generate a
// trace from a benchmark model, write it to disk in the PFTC binary
// format (docs/TRACES.md), read it back, and simulate from the file —
// the workflow for feeding the simulator externally captured traces.
//
//	go run ./examples/tracefile
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro"
)

func main() {
	dir, err := os.MkdirTemp("", "pftrace")
	if err != nil {
		log.Fatal(err)
	}
	defer func() { _ = os.RemoveAll(dir) }() // best-effort temp cleanup
	path := filepath.Join(dir, "strided.pftc")

	// 1. Generate a trace by simulating nothing: pull records straight
	//    from the workload model via a capture run, or simply collect from
	//    the public Record constructors. Here we synthesize a strided
	//    kernel with pointer-chase phases by hand.
	var recs []repro.Record
	pc := func(site int) uint64 { return 0x400000 + uint64(site)*4 }
	for i := 0; i < 300_000; i++ {
		// A 3KB inner loop (L1-resident across both regions) advancing
		// through a larger buffer every pass, so the trace shows hits,
		// misses, and prefetchable streams.
		base := uint64((i%96)*32) + uint64(i/4096)*4096
		recs = append(recs,
			repro.Record{Op: 1 /* load */, PC: pc(0), Addr: 0x100_0000 + base},
			repro.Record{Op: 0 /* alu */, PC: pc(1)},
			repro.Record{Op: 2 /* store */, PC: pc(2), Addr: 0x200_0c00 + base}, // offset 96 lines: disjoint L1 sets from the load region

			repro.Record{Op: 3 /* branch */, PC: pc(3), Addr: pc(0), Taken: true},
		)
	}

	// 2. Write it to disk.
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := repro.WriteTrace(f, recs); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	info, _ := os.Stat(path)
	fmt.Printf("wrote %d records to %s (%d bytes, %.1f bits/record)\n",
		len(recs), path, info.Size(), float64(info.Size()*8)/float64(len(recs)))

	// 3. Read it back and simulate from the decoded records.
	g, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	decoded, err := repro.ReadTrace(g)
	_ = g.Close() // read-only; a close error cannot lose data
	if err != nil {
		log.Fatal(err)
	}

	run, err := repro.Simulate(repro.Options{
		Benchmark:       "strided-kernel",
		Source:          repro.SliceSource(decoded),
		Config:          repro.DefaultConfig().WithFilter(repro.FilterPA),
		MaxInstructions: int64(len(decoded)),
		Warmup:          100_000,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated from file: IPC %.3f, L1 miss %.4f, prefetches good=%d bad=%d filtered=%d\n",
		run.IPC(), run.L1MissRate(),
		run.Prefetches.Good, run.Prefetches.Bad, run.Prefetches.Filtered)
}
