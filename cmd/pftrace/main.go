// Command pftrace generates, converts, inspects, and verifies binary
// trace files in the chunked, checksummed PFTC format (docs/TRACES.md),
// decoupling workload generation from simulation.
//
// Usage:
//
//	pftrace gen -bench em3d -n 1000000 -o em3d.pftc
//	pftrace convert -o mcf.pftc mcf.champsim.gz
//	pftrace convert -o mcf.pftc -manifest corpus.json -name mcf mcf.champsim.gz
//	pftrace info em3d.pftc
//	pftrace info -chunks mcf.pftc      # per-chunk sizes, CRCs, sha256s
//	pftrace info -json mcf.pftc        # machine-readable (CI fingerprint pinning)
//	pftrace dump -n 20 em3d.pftc
//	pftrace analyze em3d.pftc          # reuse-distance / working-set profile
//	pftrace analyze -bench mcf -n 500000
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
	"repro/internal/isa"
	"repro/internal/tracefile"
	"repro/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "gen":
		cmdGen(os.Args[2:])
	case "convert":
		cmdConvert(os.Args[2:])
	case "info":
		cmdInfo(os.Args[2:])
	case "dump":
		cmdDump(os.Args[2:])
	case "analyze":
		cmdAnalyze(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  pftrace gen     -bench <name> -n <count> [-seed S] [-chunk-bytes N] -o <file>
  pftrace convert -o <out.pftc> [-chunk-bytes N] [-name NAME -manifest FILE] <in.champsim[.gz]>
  pftrace info    [-chunks] [-json] <file>
  pftrace dump    [-n count] <file>
  pftrace analyze [<file> | -bench <name> -n <count>]`)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pftrace:", err)
	os.Exit(1)
}

func cmdGen(args []string) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	bench := fs.String("bench", "mcf", "benchmark model")
	n := fs.Int64("n", 1_000_000, "records to generate")
	seed := fs.Uint64("seed", 1, "generation seed")
	chunkBytes := fs.Int("chunk-bytes", 0, "target chunk payload bytes (0 = default 64 KiB)")
	out := fs.String("o", "", "output file (required)")
	_ = fs.Parse(args)
	if *out == "" {
		usage()
	}
	spec, ok := workload.ByName(*bench)
	if !ok {
		fatal(fmt.Errorf("unknown benchmark %q", *bench))
	}
	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	src := spec.New(*seed)
	w, err := tracefile.NewWriter(f, tracefile.WriterOptions{ChunkBytes: *chunkBytes})
	if err != nil {
		fatal(err)
	}
	for i := int64(0); i < *n; i++ {
		rec, ok := src.Next()
		if !ok {
			break
		}
		if err := w.Write(rec); err != nil {
			fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		fatal(err)
	}
	// Close errors on a written file can lose buffered data; check them.
	// (Early fatal paths exit the process, releasing the fd.)
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %d records (%d chunks) to %s\nfingerprint %x\n",
		w.Count(), len(w.Chunks()), *out, w.Fingerprint())
}

func cmdConvert(args []string) {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	out := fs.String("o", "", "output PFTC file (required)")
	chunkBytes := fs.Int("chunk-bytes", 0, "target chunk payload bytes (0 = default 64 KiB)")
	name := fs.String("name", "", "benchmark name for -manifest (default: output basename without extension)")
	manifest := fs.String("manifest", "", "corpus manifest to create or update with the converted trace")
	_ = fs.Parse(args)
	if *out == "" || fs.NArg() != 1 {
		usage()
	}
	in, err := os.Open(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer func() { _ = in.Close() }() // read-only input
	src, err := tracefile.MaybeGzip(in)
	if err != nil {
		fatal(err)
	}
	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	st, err := tracefile.ConvertChampSim(src, f, tracefile.WriterOptions{ChunkBytes: *chunkBytes})
	if err != nil {
		_ = f.Close() // the convert error takes precedence
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("converted %d instructions -> %d records (%d chunks) in %s\n",
		st.Instructions, st.Records, len(st.Chunks), *out)
	fmt.Printf("loads %d  stores %d  branches %d (%d taken)\n", st.Loads, st.Stores, st.Branches, st.Taken)
	fmt.Printf("fingerprint %s\n", st.Fingerprint)

	if *manifest == "" {
		return
	}
	bench := *name
	if bench == "" {
		base := filepath.Base(*out)
		bench = strings.TrimSuffix(base, filepath.Ext(base))
	}
	m := tracefile.Manifest{Version: tracefile.ManifestVersion}
	if _, err := os.Stat(*manifest); err == nil {
		if m, err = tracefile.LoadManifest(*manifest); err != nil {
			fatal(err)
		}
	}
	// Store the trace path relative to the manifest when possible, so the
	// corpus directory relocates as a unit.
	file := *out
	if rel, err := filepath.Rel(filepath.Dir(*manifest), *out); err == nil && !strings.HasPrefix(rel, "..") {
		file = rel
	}
	m.Upsert(tracefile.ManifestEntry{
		Name:          bench,
		File:          file,
		SHA256:        st.Fingerprint,
		Records:       st.Records,
		FormatVersion: tracefile.Version,
	})
	if err := tracefile.SaveManifest(*manifest, m); err != nil {
		fatal(err)
	}
	fmt.Printf("manifest %s: %s%s -> %s\n", *manifest, tracefile.BenchPrefix, bench, file)
}

// openTrace opens a PFTC trace for streaming. The returned cleanup
// closes the file.
func openTrace(path string) (*tracefile.Reader, func()) {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	r, err := tracefile.NewReader(f, tracefile.ReaderOptions{})
	if err != nil {
		fatal(err)
	}
	return r, func() { _ = f.Close() } // read-only
}

func cmdInfo(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	chunks := fs.Bool("chunks", false, "print the per-chunk table")
	jsonOut := fs.Bool("json", false, "emit the full-scan summary as JSON")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	r, cleanup := openTrace(fs.Arg(0))
	defer cleanup()
	var counts [5]uint64
	var total, deps uint64
	for {
		rec, ok := r.Next()
		if !ok {
			break
		}
		counts[rec.Op]++
		total++
		if rec.Dep {
			deps++
		}
	}
	if err := r.Err(); err != nil {
		fatal(err)
	}
	// Second pass: per-chunk descriptors plus full verification (CRCs
	// and the canonical stream fingerprint against the trailer).
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer func() { _ = f.Close() }() // read-only
	info, err := tracefile.Inspect(f)
	if err != nil {
		fatal(err)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(info); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Printf("format    PFTC v%d (verified)\n", info.Version)
	fmt.Printf("records   %d\n", total)
	fmt.Printf("alu       %d\n", counts[isa.OpALU])
	fmt.Printf("load      %d (%d dependent)\n", counts[isa.OpLoad], deps)
	fmt.Printf("store     %d\n", counts[isa.OpStore])
	fmt.Printf("branch    %d\n", counts[isa.OpBranch])
	fmt.Printf("prefetch  %d\n", counts[isa.OpPrefetch])
	fmt.Printf("chunks    %d\n", len(info.Chunks))
	fmt.Printf("sha256    %s\n", info.Fingerprint)
	if *chunks {
		fmt.Println()
		fmt.Printf("%5s  %8s  %8s  %-8s  %s\n", "chunk", "records", "bytes", "crc32c", "sha256")
		for i, c := range info.Chunks {
			fmt.Printf("%5d  %8d  %8d  %08x  %s\n", i, c.Records, c.Bytes, c.CRC32C, c.SHA256)
		}
	}
}

func cmdDump(args []string) {
	fs := flag.NewFlagSet("dump", flag.ExitOnError)
	n := fs.Int("n", 20, "records to print")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	r, cleanup := openTrace(fs.Arg(0))
	defer cleanup()
	for i := 0; i < *n; i++ {
		rec, ok := r.Next()
		if !ok {
			break
		}
		dep := ""
		if rec.Dep {
			dep = " dep"
		}
		switch rec.Op {
		case isa.OpBranch:
			fmt.Printf("%08x %-8s taken=%-5v target=%08x\n", rec.PC, rec.Op, rec.Taken, rec.Addr)
		case isa.OpALU:
			fmt.Printf("%08x %-8s\n", rec.PC, rec.Op)
		default:
			fmt.Printf("%08x %-8s addr=%08x%s\n", rec.PC, rec.Op, rec.Addr, dep)
		}
	}
	if err := r.Err(); err != nil {
		fatal(err)
	}
}

func cmdAnalyze(args []string) {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	bench := fs.String("bench", "", "analyze a benchmark model instead of a file")
	n := fs.Int64("n", 1_000_000, "records to analyze when using -bench")
	seed := fs.Uint64("seed", 1, "generation seed for -bench")
	line := fs.Int("line", 32, "line size in bytes")
	_ = fs.Parse(args)

	var src isa.Source
	var limit int64 // 0: the whole trace file
	switch {
	case *bench != "":
		spec, ok := workload.ByName(*bench)
		if !ok {
			fatal(fmt.Errorf("unknown benchmark %q", *bench))
		}
		if *n <= 0 {
			fatal(fmt.Errorf("-n must be positive with -bench, got %d", *n))
		}
		src, limit = spec.New(*seed), *n
	case fs.NArg() == 1:
		r, cleanup := openTrace(fs.Arg(0))
		defer cleanup()
		src = r
	default:
		usage()
	}

	p, err := analysis.AnalyzeSource(src, *line, limit)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("memory references  %d\n", p.Accesses)
	fmt.Printf("distinct lines     %d (%.1f KB footprint)\n", p.Footprint, float64(p.Footprint*uint64(*line))/1024)
	fmt.Printf("cold misses        %d (%.2f%%)\n", p.ColdMisses, 100*float64(p.ColdMisses)/float64(max(p.Accesses, 1)))
	fmt.Println()
	fmt.Println("reuse-distance histogram (lines):")
	for b, count := range p.Histogram {
		if count == 0 {
			continue
		}
		lo, hi := analysis.BucketRange(b)
		frac := float64(count) / float64(p.Accesses)
		bar := ""
		for i := 0; i < int(frac*60); i++ {
			bar += "#"
		}
		fmt.Printf("  [%7d,%7d)  %9d  %5.1f%%  %s\n", lo, hi, count, 100*frac, bar)
	}
	fmt.Println()
	fmt.Println("predicted fully-associative LRU miss rates:")
	for _, kb := range []int{8, 16, 32, 64, 256, 512} {
		lines := kb * 1024 / *line
		fmt.Printf("  %4d KB: %.4f\n", kb, p.MissRate(lines))
	}
	if ws := p.WorkingSet(0.01); ws > 0 {
		fmt.Printf("\nworking set (1%% miss target): %d lines = %d KB\n", ws, ws**line/1024)
	}
}
