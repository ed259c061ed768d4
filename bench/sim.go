package bench

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tracefile"
	"repro/internal/workload"
)

// cell is one simulation of a workload.
type cell struct {
	name  string // "<benchmark>/<column>/<filter>", the fingerprint key
	bench string // workload registry name
	cfg   config.Config
}

// The dside-zoo matrix: the paper's machine (NSP+SDP+software prefetch)
// and each generator alone, against no filter, the paper's PA table and
// the perceptron.
var (
	dsideColumns = []string{"paper", "berti", "corr", "ghb", "nsp", "sdp", "stride"}
	dsideFilters = []config.FilterKind{config.FilterNone, config.FilterPA, config.FilterPerceptron}
)

// The iside-trace matrix: large-code (gcc, gap) and small-code (mcf,
// perimeter, the ChampSim fixture) traces against each instruction
// prefetcher and four filters.
var (
	isideModels       = []string{"gcc", "gap", "mcf", "perimeter"}
	isideIPrefetchers = []config.IPrefetchKind{config.IPrefetchNone, config.IPrefetchNextLine, config.IPrefetchMANA}
	isideFilters      = []config.FilterKind{config.FilterNone, config.FilterPA, config.FilterPerceptron, config.FilterTournament}
)

// fixturePath is the checked-in ChampSim trace, relative to the root.
var fixturePath = filepath.Join("internal", "tracefile", "testdata", "sample.champsim.gz")

func dsideCells(seed uint64) []cell {
	var cells []cell
	for _, b := range workload.PaperNames() {
		for _, col := range dsideColumns {
			base := config.Default()
			if col != "paper" {
				base = base.WithGenerator(config.PrefetchKind(col))
			}
			for _, f := range dsideFilters {
				cfg := base.WithFilter(f)
				cfg.Seed = seed
				cells = append(cells, cell{name: b + "/" + col + "/" + string(f), bench: b, cfg: cfg})
			}
		}
	}
	return cells
}

// traceBench is one registered trace: its short name and its workload
// registry name.
type traceBench struct{ short, bench string }

func isideCells(traces []traceBench, seed uint64) []cell {
	var cells []cell
	for _, tr := range traces {
		for _, ip := range isideIPrefetchers {
			base := config.Default().WithIPrefetch(ip)
			for _, f := range isideFilters {
				cfg := base.WithFilter(f)
				cfg.Seed = seed
				cells = append(cells, cell{name: tr.short + "/i:" + string(ip) + "/" + string(f), bench: tr.bench, cfg: cfg})
			}
		}
	}
	return cells
}

// traceSets numbers each run's trace registrations. The workload registry
// is process-wide and a name may register only one file, so every run
// registers its own names.
var traceSets atomic.Int64

// writeTraces encodes the synthetic models to PFTC files in dir, converts
// the ChampSim fixture beside them, and registers the corpus. Rewriting
// the same files and registering them again is a no-op, so set-up can
// repeat.
func writeTraces(dir, root string, seed uint64, records int, tag string) ([]traceBench, error) {
	m := tracefile.Manifest{Version: tracefile.ManifestVersion}
	var traces []traceBench
	add := func(short string, e tracefile.ManifestEntry) {
		e.Name = short + tag
		m.Traces = append(m.Traces, e)
		traces = append(traces, traceBench{short: short, bench: tracefile.BenchPrefix + e.Name})
	}
	for _, model := range isideModels {
		spec, ok := workload.ByName(model)
		if !ok {
			return nil, fmt.Errorf("bench: unknown benchmark %q", model)
		}
		e, err := encodeTrace(filepath.Join(dir, model+".pftc"), spec.New(seed), records)
		if err != nil {
			return nil, err
		}
		add(model, e)
	}
	e, err := convertFixture(filepath.Join(root, fixturePath), filepath.Join(dir, "champsim.pftc"))
	if err != nil {
		return nil, err
	}
	add("champsim", e)

	manifest := filepath.Join(dir, "corpus.json")
	if err := tracefile.SaveManifest(manifest, m); err != nil {
		return nil, err
	}
	if _, err := tracefile.RegisterCorpus(config.TraceConfig{Manifest: manifest}); err != nil {
		return nil, err
	}
	return traces, nil
}

// encodeTrace writes the first records of src as a PFTC file.
func encodeTrace(path string, src isa.Source, records int) (tracefile.ManifestEntry, error) {
	f, err := os.Create(path)
	if err != nil {
		return tracefile.ManifestEntry{}, err
	}
	defer func() { _ = f.Close() }() // closed and checked below on success
	w, err := tracefile.NewWriter(f, tracefile.WriterOptions{})
	if err != nil {
		return tracefile.ManifestEntry{}, err
	}
	for i := 0; i < records; i++ {
		rec, ok := src.Next()
		if !ok {
			break
		}
		if err := w.Write(rec); err != nil {
			return tracefile.ManifestEntry{}, err
		}
	}
	if err := w.Close(); err != nil {
		return tracefile.ManifestEntry{}, err
	}
	if err := f.Close(); err != nil {
		return tracefile.ManifestEntry{}, err
	}
	fp := w.Fingerprint()
	return tracefile.ManifestEntry{
		File: filepath.Base(path), SHA256: hex.EncodeToString(fp[:]),
		Records: w.Count(), FormatVersion: tracefile.Version,
	}, nil
}

// convertFixture converts the gzipped ChampSim fixture to a PFTC file.
func convertFixture(src, dst string) (tracefile.ManifestEntry, error) {
	in, err := os.Open(src)
	if err != nil {
		return tracefile.ManifestEntry{}, err
	}
	defer func() { _ = in.Close() }() // read-only
	r, err := tracefile.MaybeGzip(in)
	if err != nil {
		return tracefile.ManifestEntry{}, err
	}
	out, err := os.Create(dst)
	if err != nil {
		return tracefile.ManifestEntry{}, err
	}
	defer func() { _ = out.Close() }() // closed and checked below on success
	st, err := tracefile.ConvertChampSim(r, out, tracefile.WriterOptions{})
	if err != nil {
		return tracefile.ManifestEntry{}, err
	}
	if err := out.Close(); err != nil {
		return tracefile.ManifestEntry{}, err
	}
	return tracefile.ManifestEntry{
		File: filepath.Base(dst), SHA256: st.Fingerprint,
		Records: st.Records, FormatVersion: tracefile.Version,
	}, nil
}

func dryBuildAll(cells []cell) error {
	for _, c := range cells {
		if err := dryBuild(c.cfg); err != nil {
			return fmt.Errorf("bench: %s: %w", c.name, err)
		}
	}
	return nil
}

// dside sets up and measures dside-zoo. Set-up builds every cell's
// machine once without running it.
func (r *run) dside() error {
	var cells []cell
	err := r.setup(func(bool) error {
		cells = dsideCells(r.opts.Seed)
		return dryBuildAll(cells)
	})
	if err != nil {
		return err
	}
	return r.simWorkload(cells)
}

// iside sets up and measures iside-trace. Set-up encodes the traces,
// registers them, and builds every cell's machine once.
func (r *run) iside(dir string) error {
	tag := fmt.Sprintf(".%d", traceSets.Add(1))
	var cells []cell
	err := r.setup(func(bool) error {
		traces, err := writeTraces(dir, r.opts.Root, r.opts.Seed, r.sc.traceRecords, tag)
		if err != nil {
			return err
		}
		cells = isideCells(traces, r.opts.Seed)
		return dryBuildAll(cells)
	})
	if err != nil {
		return err
	}
	return r.simWorkload(cells)
}

// summary is one cell's line in a fingerprint: its name, instructions,
// cycles, and D-side then I-side good/bad/filtered prefetch counts.
func summary(name string, run stats.Run) string {
	var fe stats.Prefetches
	if run.Frontend != nil {
		fe = run.Frontend.Prefetches
	}
	p := run.Prefetches
	return fmt.Sprintf("%s %d %d %d %d %d %d %d %d", name, run.Instructions, run.Cycles,
		p.Good, p.Bad, p.Filtered, fe.Good, fe.Bad, fe.Filtered)
}

// fingerprint is the sha256 of the sorted summary lines.
func fingerprint(lines []string) string {
	s := append([]string(nil), lines...)
	sort.Strings(s)
	sum := sha256.Sum256([]byte(strings.Join(s, "\n")))
	return hex.EncodeToString(sum[:])
}

// checkRound verifies one round of a simulated workload. Every cell must
// have measured n instructions and, after the first round, repeat the
// first round's output; at seed 1 the round's fingerprint must equal the
// pin. firsts carries the first round's lines between calls.
func (r *run) checkRound(runs map[string]stats.Run, n int64, firsts map[string]string) error {
	lines := make([]string, 0, len(runs))
	bad := 0
	first := len(firsts) == 0
	for name, run := range runs {
		line := summary(name, run)
		lines = append(lines, line)
		switch {
		case run.Instructions != uint64(n):
			bad++
			r.fail(1, "%s: measured %d instructions, want %d", name, run.Instructions, n)
		case !first && firsts[name] != line:
			bad++
			r.fail(1, "%s: output %q differs from the first round's %q", name, line, firsts[name])
		}
		if first {
			firsts[name] = line
		}
	}
	fp := fingerprint(lines)
	if first {
		r.fingerprint = fp
	}
	ok, err := r.checkPin(fp)
	if err != nil {
		return err
	}
	if !ok {
		r.fail(len(runs)-bad, "fingerprint %s differs from the pin", fp)
	}
	return nil
}

// simWorkload measures dside-zoo or iside-trace: untraced rounds on
// r.jobs workers, or traced rounds one cell at a time.
func (r *run) simWorkload(cells []cell) error {
	if r.opts.Smoke {
		cells = []cell{cells[0], cells[len(cells)-1]}
	}
	n, w := r.sc.simInstr, r.sc.simWarmup
	firsts := map[string]string{}
	if r.opts.Trace {
		var layers []map[string]float64
		var probed map[string]stats.Run
		buf := make([]isa.Record, 0, readAhead)
		err := r.repeat(func(int) error {
			runs, lt := r.traceRound(cells, n, w, buf)
			layers = append(layers, lt.metrics())
			if probed == nil {
				probed = runs
			}
			return r.checkRound(runs, n, firsts)
		})
		if err != nil {
			return err
		}
		r.setMedians(layers)
		return r.probes(probed)
	}

	best := newParts()
	var peaks []float64
	err := r.repeat(func(int) error {
		var outs map[string]sched.Result
		mb, err := peakRound(func() error {
			outs = runCells(cells, n, w, r.jobs, best.wall)
			return nil
		})
		if err != nil {
			return err
		}
		peaks = append(peaks, mb)
		runs := map[string]stats.Run{}
		for _, c := range cells {
			o := outs[c.name]
			r.attempted++
			if o.Err != nil {
				r.fail(1, "%s: %v", c.name, o.Err)
				continue
			}
			out := o.Value.(cellOut)
			runs[c.name] = out.run
			best.keep(c.name, o.Wall, out.cpu)
		}
		return r.checkRound(runs, n, firsts)
	})
	if err != nil {
		return err
	}
	r.setEndToEnd(best, r.jobs, best.wall, peaks, n+w)
	return nil
}

// cellOut is one simulated cell and the CPU time its thread spent on it.
type cellOut struct {
	run stats.Run
	cpu time.Duration
}

// runCells simulates cells through sim.Run on the work-stealing pool,
// longest first by the cells' best times so far. The simulator runs on
// the calling goroutine, so a cell's CPU time is its thread's.
func runCells(cells []cell, n, w int64, workers int, best map[string]time.Duration) map[string]sched.Result {
	jobs := make([]sched.Job, 0, len(cells))
	for _, c := range cells {
		c := c
		jobs = append(jobs, sched.Job{Key: c.name, Cost: uint64(best[c.name]), Run: func(context.Context) (any, error) {
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			c0 := threadCPU()
			run, err := sim.Run(sim.Options{Benchmark: c.bench, Config: c.cfg, MaxInstructions: n, Warmup: w})
			return cellOut{run: run, cpu: threadCPU() - c0}, err
		}})
	}
	// Background never cancels, so sched.Run's error is always nil.
	res, _ := sched.Run(context.Background(), jobs, sched.Options{Workers: workers})
	return res
}

// overheadEvery samples one traced cell in this many to also run through
// sim.Run: the traced result must equal it field for field, and the two
// wall times give the tracing overhead.
const overheadEvery = 10

// traceRound runs cells one at a time through the traced assembly and
// returns their results and the round's layer totals.
func (r *run) traceRound(cells []cell, n, w int64, buf []isa.Record) (map[string]stats.Run, *layerTotals) {
	runs := map[string]stats.Run{}
	lt := &layerTotals{}
	for k, c := range cells {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		run, tr, err := traceCell(c, n, w, r.null, buf)
		runtime.ReadMemStats(&m1)
		r.attempted++
		if err != nil {
			r.fail(1, "%s: %v", c.name, err)
			continue
		}
		runs[c.name] = run
		lt.add(run, &tr, m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs, n+w)
		if k%overheadEvery != 0 {
			continue
		}
		r.attempted++
		t := time.Now()
		want, err := sim.Run(sim.Options{Benchmark: c.bench, Config: c.cfg, MaxInstructions: n, Warmup: w})
		lt.untracedNS += float64(time.Since(t))
		lt.sampledNS += tr.wall
		if err != nil || !reflect.DeepEqual(run, want) {
			r.fail(1, "%s: traced result differs from sim.Run (err %v)", c.name, err)
		}
	}
	return runs, lt
}

// layerTotals sums one traced round's seam accounting and simulated
// counts; metrics turns them into the per-layer metrics.
type layerTotals struct {
	cells                                    int
	wall, source, prefetch, frontend, filter float64
	hierWindow                               float64
	records, pfCalls, feCalls, allow, train  uint64
	hostInstr, allocBytes, mallocs           uint64
	cycles, instr                            uint64
	dIssued, dGood, iIssued, iGood, fq, fRej uint64
	sampledNS, untracedNS                    float64
}

func (t *layerTotals) add(run stats.Run, tr *cellTrace, allocBytes, mallocs uint64, hostInstr int64) {
	t.cells++
	t.wall += tr.wall
	t.source += tr.source
	t.prefetch += tr.prefetch.self()
	t.frontend += tr.frontend.self()
	t.filter += tr.allow.self() + tr.train.self()
	t.hierWindow += tr.hierWindow
	t.records += tr.records
	t.pfCalls += tr.prefetch.calls
	t.feCalls += tr.frontend.calls
	t.allow += tr.allow.calls
	t.train += tr.train.calls
	t.hostInstr += uint64(hostInstr)
	t.allocBytes += allocBytes
	t.mallocs += mallocs
	t.cycles += run.Cycles
	t.instr += run.Instructions
	t.dIssued += run.Prefetches.Issued
	t.dGood += run.Prefetches.Good
	if run.Frontend != nil {
		t.iIssued += run.Frontend.Prefetches.Issued
		t.iGood += run.Frontend.Prefetches.Good
	}
	t.fq += run.FilterQueries
	t.fRej += run.FilterRejected
}

func (t *layerTotals) metrics() map[string]float64 {
	f := func(v uint64) float64 { return float64(v) }
	m := map[string]float64{
		"source.ns_per_record":    ratio(t.source, f(t.records)),
		"source.share":            ratio(t.source, t.wall),
		"prefetch.observe_calls":  f(t.pfCalls),
		"prefetch.ns_per_observe": ratio(t.prefetch, f(t.pfCalls)),
		"prefetch.share":          ratio(t.prefetch, t.wall),
		"prefetch.accuracy":       ratio(f(t.dGood), f(t.dIssued)),
		"filter.allow_calls":      f(t.allow),
		"filter.train_calls":      f(t.train),
		"filter.ns_per_call":      ratio(t.filter, f(t.allow+t.train)),
		"filter.share":            ratio(t.filter, t.wall),
		"filter.reject_ratio":     ratio(f(t.fRej), f(t.fq)),
		"frontend.observe_calls":  f(t.feCalls),
		"frontend.share":          ratio(t.frontend, t.wall),
		"frontend.accuracy":       ratio(f(t.iGood), f(t.iIssued)),
		// cpu.New takes a concrete *hier.Hierarchy, so the core and the
		// hierarchy cannot be wrapped: their time is what the seams leave.
		"cpu_hier.share":            ratio(t.wall-t.source-t.prefetch-t.frontend-t.filter, t.wall),
		"cpu_hier.ns_per_cycle":     ratio(t.hierWindow, f(t.cycles)),
		"cpu_hier.cycles_per_instr": ratio(f(t.cycles), f(t.instr)),
		"sim.alloc_bytes_per_instr": ratio(f(t.allocBytes), f(t.hostInstr)),
		"sim.allocs_per_cell":       ratio(f(t.mallocs), float64(t.cells)),
	}
	if t.untracedNS > 0 {
		m["trace.overhead_frac"] = t.sampledNS/t.untracedNS - 1
	}
	if t.feCalls > 0 {
		// Report-only: the front end's per-call cost has no metric of its
		// own because dside-zoo and fabric-sweep never call it, and a time
		// that reads 0 on every run is no measurement.
		m["detail.frontend.ns_per_observe"] = ratio(t.frontend, f(t.feCalls))
	}
	return m
}
