// Package bench is the repository's benchmark. It drives the simulator
// and its serving harness end to end on three workloads, checks every
// simulated output, and reports host-time metrics: an untraced run gives
// what a user sees, and a traced run splits the same work into per-layer
// numbers by timing calls into each layer's public functions from
// outside. cmd/pfbench is the command; README.md describes the workloads,
// metrics and how to compare two sets of runs.
package bench

import (
	"embed"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Workloads are the benchmark's workload names.
var Workloads = []string{"dside-zoo", "iside-trace", "fabric-sweep"}

// Options select one run.
type Options struct {
	Workload string
	// Seed makes the inputs: the same seed gives the same cells, traces
	// and sweeps.
	Seed uint64
	// Seconds is the measuring budget: rounds repeat until it is spent,
	// at least once.
	Seconds float64
	// Trace runs the traced pass and reports per-layer metrics instead of
	// end-to-end ones.
	Trace bool
	// Root is the repository root, where the ChampSim fixture lives.
	Root string
	// Smoke shrinks every workload to a few tiny cells, for tests: the
	// first and last cell of dside-zoo and iside-trace, and a fabric sweep
	// of 2 benchmarks x 1 generator x 2 filters.
	Smoke bool
}

// scale sizes the workloads.
type scale struct {
	simInstr, simWarmup       int64 // per dside-zoo and iside-trace cell
	traceRecords              int   // per encoded iside-trace trace
	fabricInstr, fabricWarmup int64
	warmRepeats               int // warm sweeps after each cold one
	setupReps                 int
}

var (
	// Cells are small enough that a dside-zoo or iside-trace round takes
	// under 2 s, so a run holds about twenty rounds and every cell's best
	// time is a best of about twenty.
	fullScale = scale{
		simInstr: 80_000, simWarmup: 40_000, traceRecords: 120_000,
		fabricInstr: 20_000, fabricWarmup: 5_000, warmRepeats: 20, setupReps: 15,
	}
	smokeScale = scale{
		simInstr: 20_000, simWarmup: 5_000, traceRecords: 20_000,
		fabricInstr: 20_000, fabricWarmup: 5_000, warmRepeats: 1, setupReps: 1,
	}
)

// Host describes the machine a run measured.
type Host struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Jobs       int    `json:"jobs"`
	CPUModel   string `json:"cpu_model"`
}

// Report is the line a run prints before its Result: the host, how many
// rounds fit the budget, the first round's output fingerprint and whether
// the pin was checked, workload-specific detail, and the first failures.
type Report struct {
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Trace       bool               `json:"trace"`
	Host        Host               `json:"host"`
	Rounds      int                `json:"rounds"`
	Fingerprint string             `json:"fingerprint"`
	PinChecked  bool               `json:"pin_checked"`
	Detail      map[string]float64 `json:"detail,omitempty"`
	Failures    []string           `json:"failures,omitempty"`
}

//go:embed testdata/*.fingerprint
var pins embed.FS

// pin returns the workload's pinned seed-1 fingerprint.
func pin(workload string) (string, error) {
	b, err := pins.ReadFile("testdata/" + workload + ".fingerprint")
	if err != nil {
		return "", fmt.Errorf("bench: no pinned fingerprint for %s: %w", workload, err)
	}
	return strings.TrimSpace(string(b)), nil
}

// run is one invocation's state.
type run struct {
	opts Options
	sc   scale
	jobs int // workers for untraced rounds
	null float64

	attempted, failed int
	failures          []string
	rounds            int
	fingerprint       string
	pinChecked        bool
	metrics           map[string]float64
	detail            map[string]float64
}

// maxFailures bounds the failure messages a report carries.
const maxFailures = 20

// fail records ops failed operations.
func (r *run) fail(ops int, format string, args ...any) {
	r.failed += ops
	if len(r.failures) < maxFailures {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// Run executes one workload. An error means the run could not be set up
// or measured; a wrong output is not an error but a failed operation in
// the Result.
func Run(opts Options) (Report, Result, error) {
	sc := fullScale
	if opts.Smoke {
		sc = smokeScale
	}
	r := &run{
		opts:    opts,
		sc:      sc,
		jobs:    min(runtime.NumCPU(), 2),
		metrics: map[string]float64{},
		detail:  map[string]float64{},
	}
	if opts.Trace {
		r.null = calibrateNull()
		r.metrics["trace.null_span_ns"] = r.null
	}
	dir, err := os.MkdirTemp("", "pfbench-")
	if err != nil {
		return Report{}, Result{}, err
	}
	defer func() { _ = os.RemoveAll(dir) }() // scratch space only

	switch opts.Workload {
	case "dside-zoo":
		err = r.dside()
	case "iside-trace":
		err = r.iside(dir)
	case "fabric-sweep":
		err = r.fabric(dir)
	default:
		err = fmt.Errorf("bench: unknown workload %q (have %s)", opts.Workload, strings.Join(Workloads, ", "))
	}
	if err != nil {
		return Report{}, Result{}, err
	}
	if r.attempted == 0 {
		return Report{}, Result{}, errors.New("bench: the run attempted nothing")
	}

	specs := endToEnd
	if opts.Trace {
		specs = perLayer
	}
	res := Result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]Metric{}}
	for _, s := range specs {
		v, ok := r.metrics[s.name]
		if !ok && !opts.Trace {
			return Report{}, Result{}, fmt.Errorf("bench: %s measured no %s", opts.Workload, s.name)
		}
		res.Metrics[s.name] = Metric{Value: v, Unit: s.unit}
	}
	rep := Report{
		Workload: opts.Workload, Seed: opts.Seed, Trace: opts.Trace,
		Host: Host{
			GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			Jobs: r.jobs, CPUModel: cpuModel(),
		},
		Rounds: r.rounds, Fingerprint: r.fingerprint, PinChecked: r.pinChecked,
		Detail: r.detail, Failures: r.failures,
	}
	return rep, res, nil
}

// setup runs the workload's set-up sc.setupReps times and reports the
// median as setup_s; the last repetition's state is what gets measured.
// Each repetition starts from a collected heap, so none pays for an
// earlier one's garbage.
func (r *run) setup(fn func(last bool) error) error {
	var secs []float64
	for i := 0; i < r.sc.setupReps; i++ {
		runtime.GC()
		t := time.Now()
		if err := fn(i == r.sc.setupReps-1); err != nil {
			return err
		}
		secs = append(secs, time.Since(t).Seconds())
	}
	r.metrics["setup_s"] = median(secs)
	return nil
}

// repeat runs rounds until the measuring budget is spent, at least once:
// another round starts only while the run would end within half a round
// of the budget.
func (r *run) repeat(round func(i int) error) error {
	budget := time.Duration(r.opts.Seconds * float64(time.Second))
	start := time.Now()
	for i := 0; ; i++ {
		if err := round(i); err != nil {
			return err
		}
		r.rounds = i + 1
		elapsed := time.Since(start)
		if elapsed+elapsed/time.Duration(2*r.rounds) >= budget {
			return nil
		}
	}
}

// checkPin compares a seed-1 fingerprint on the full scale with the pin,
// reporting whether it matched (or did not apply).
func (r *run) checkPin(fp string) (bool, error) {
	if r.opts.Smoke || r.opts.Seed != 1 {
		return true, nil
	}
	want, err := pin(r.opts.Workload)
	if err != nil {
		return false, err
	}
	r.pinChecked = true
	return fp == want, nil
}

// setMedians sets each metric to its median over the per-round values;
// names prefixed "detail." go to the report instead.
func (r *run) setMedians(rounds []map[string]float64) {
	vals := map[string][]float64{}
	for _, m := range rounds {
		for k, v := range m {
			vals[k] = append(vals[k], v)
		}
	}
	for k, vs := range vals {
		if name, ok := strings.CutPrefix(k, "detail."); ok {
			r.detail[name] = median(vs)
			continue
		}
		r.metrics[k] = median(vs)
	}
}

// keepBest records d as the cell's time if it is the cell's best so far.
func keepBest(best map[string]time.Duration, cell string, d time.Duration) {
	if cur, ok := best[cell]; !ok || d < cur {
		best[cell] = d
	}
}

// parts keeps each part of a round at its best wall and CPU time over the
// rounds. A part is a cell on dside-zoo and iside-trace, and a sweep on
// fabric-sweep.
type parts struct{ wall, cpu map[string]time.Duration }

func newParts() parts {
	return parts{wall: map[string]time.Duration{}, cpu: map[string]time.Duration{}}
}

// keep records one run of a part.
func (p parts) keep(part string, wall, cpu time.Duration) {
	keepBest(p.wall, part, wall)
	keepBest(p.cpu, part, cpu)
}

// peakRound runs fn as one round and returns the process's peak resident
// set in MB while fn ran. The round starts with the heap collected and
// returned to the system and with the peak reset, so the peak is the
// round's own and not an earlier round's or the set-up's.
func peakRound(fn func() error) (float64, error) {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return 0, fmt.Errorf("bench: reset the peak resident set: %w", err)
	}
	if err := fn(); err != nil {
		return 0, err
	}
	return peakRSS()
}

// setEndToEnd sets the end-to-end metrics. wall_s and cpu_s are a round
// with every part at its best: the sum of the parts' best times, the wall
// time divided by the number of parts that run at once. The cell metrics
// use each cell's best wall time; instr is the instructions one cell
// simulates, warmup included. peak_rss_mb is the median round's peak.
//
// Other tenants' cache and memory traffic only ever slows work down, in
// bursts from milliseconds to minutes, so the best of many short samples
// is the steadiest estimate of the program's own cost. A whole round is
// too long to fall in a quiet stretch: in runs on a busy host, the best
// round's wall time spread about 1.7 times as far as the sum of the
// cells' best times.
func (r *run) setEndToEnd(p parts, parallel int, cells map[string]time.Duration, peaks []float64, instr int64) {
	var wall, cpu time.Duration
	for part, d := range p.wall {
		wall += d
		cpu += p.cpu[part]
	}
	ms := make([]float64, 0, len(cells))
	mips := make([]float64, 0, len(cells))
	for _, d := range cells {
		ms = append(ms, float64(d)/1e6)
		mips = append(mips, float64(instr)*1e3/float64(d))
	}
	r.metrics["wall_s"] = wall.Seconds() / float64(parallel)
	r.metrics["cpu_s"] = cpu.Seconds()
	r.metrics["peak_rss_mb"] = median(peaks)
	r.metrics["mips_p50"] = median(mips)
	r.metrics["cell_ms_p50"] = median(ms)
	r.metrics["cell_ms_p90"] = percentile(ms, 90)
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	return rusageCPU(syscall.RUSAGE_SELF)
}

// threadCPU returns the calling thread's user+system CPU time; the caller
// must be locked to its thread.
func threadCPU() time.Duration {
	const rusageThread = 1 // RUSAGE_THREAD, which package syscall lacks
	return rusageCPU(rusageThread)
}

func rusageCPU(who int) time.Duration {
	var ru syscall.Rusage
	// Getrusage fails only on a bad who or pointer.
	_ = syscall.Getrusage(who, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS returns the process's peak resident set in MB since it was last
// reset.
func peakRSS() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("bench: parse VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("bench: /proc/self/status has no VmHWM")
}

// cpuModel reads the host CPU's model name, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
