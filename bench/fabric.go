package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/fabric"
	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/prefetch"
	"repro/internal/server"
	"repro/internal/workload"
)

// fabricFilters is the fabric-sweep filter axis.
var fabricFilters = []string{"none", "pa", "pc", "perceptron", "bloom", "tournament"}

// fabricRig is the fabric-sweep system under test in one process: a
// coordinator (server, fabric.Coordinator and an on-disk CAS) and its
// workers, all on loopback.
type fabricRig struct {
	url       string
	client    *http.Client // the load: one connection to the coordinator
	dispatch  *http.Client // the coordinator's connections to its workers
	coordReg  *metrics.Registry
	workerReg *metrics.Registry
	servers   []*http.Server
	serving   sync.WaitGroup
}

// startRig starts the workers, then the coordinator over a CAS in dir,
// and checks each answers /healthz.
func startRig(dir string, workers int) (*fabricRig, error) {
	rig := &fabricRig{
		client:    &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}},
		dispatch:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		coordReg:  metrics.New(),
		workerReg: metrics.New(),
	}
	urls := make([]string, 0, workers)
	for i := 0; i < workers; i++ {
		u, err := rig.serve(server.New(server.Config{Workers: 1, MaxConcurrent: 1, Metrics: rig.workerReg}).Handler())
		if err != nil {
			rig.close()
			return nil, err
		}
		urls = append(urls, u)
	}
	cas, err := fabric.OpenCAS(filepath.Join(dir, "cas"), rig.coordReg)
	if err != nil {
		rig.close()
		return nil, err
	}
	coord, err := fabric.New(fabric.Options{Workers: urls, CAS: cas, PerWorker: 1, Client: rig.dispatch, Metrics: rig.coordReg})
	if err != nil {
		rig.close()
		return nil, err
	}
	rig.url, err = rig.serve(server.New(server.Config{Coordinator: coord, CAS: cas, Metrics: rig.coordReg}).Handler())
	if err == nil {
		err = healthy(rig.client, rig.url)
	}
	for _, u := range urls {
		if err == nil {
			err = healthy(rig.dispatch, u)
		}
	}
	if err != nil {
		rig.close()
		return nil, err
	}
	return rig, nil
}

// serve starts an HTTP server for h on a loopback port.
func (rig *fabricRig) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	rig.servers = append(rig.servers, srv)
	rig.serving.Add(1)
	go func() {
		defer rig.serving.Done()
		_ = srv.Serve(ln) // returns once close calls Shutdown
	}()
	return "http://" + ln.Addr().String(), nil
}

// close shuts every server down and waits for them.
func (rig *fabricRig) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, s := range rig.servers {
		_ = s.Shutdown(ctx) // an expired drain still closes the listener
	}
	rig.serving.Wait()
	rig.client.CloseIdleConnections()
	rig.dispatch.CloseIdleConnections()
}

func healthy(c *http.Client, url string) error {
	resp, err := c.Get(url + "/healthz")
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
	_ = resp.Body.Close()                 // read side only
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("bench: %s/healthz: status %d", url, resp.StatusCode)
	}
	return nil
}

// sweep posts one sweep and returns the response, its size in bytes, and
// the request's wall time.
func (rig *fabricRig) sweep(req server.SweepRequest) (server.SweepResponse, int, time.Duration, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return server.SweepResponse{}, 0, 0, err
	}
	t := time.Now()
	resp, err := rig.client.Post(rig.url+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		return server.SweepResponse{}, 0, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // read side only
	wall := time.Since(t)
	if err != nil {
		return server.SweepResponse{}, 0, wall, err
	}
	if resp.StatusCode != http.StatusOK {
		return server.SweepResponse{}, len(data), wall, fmt.Errorf("status %d: %.200s", resp.StatusCode, data)
	}
	var sr server.SweepResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		return server.SweepResponse{}, len(data), wall, err
	}
	return sr, len(data), wall, nil
}

// checkSweep verifies a sweep answered all want cells without error, each
// with n measured instructions, and returns its fingerprint.
func checkSweep(sr server.SweepResponse, want int, n int64) (string, error) {
	if sr.Errors != 0 || sr.Unique != want || len(sr.Results) != want {
		return "", fmt.Errorf("%d errors, %d unique cells, %d results; want %d cells", sr.Errors, sr.Unique, len(sr.Results), want)
	}
	lines := make([]string, 0, want)
	for _, res := range sr.Results {
		if res.Run == nil || res.Run.Instructions != uint64(n) {
			return "", fmt.Errorf("%s: no run or wrong instruction count", res.Name)
		}
		lines = append(lines, summary(res.Name, *res.Run))
	}
	return fingerprint(lines), nil
}

// histSum adds the sums of every histogram whose name has prefix.
func histSum(s metrics.Snapshot, prefix string) (sum, count float64) {
	for name, h := range s.Histograms {
		if strings.HasPrefix(name, prefix) {
			sum += float64(h.Sum)
			count += float64(h.Count)
		}
	}
	return sum, count
}

// fabricCells are the cells a fabric-sweep sweep expands to, built the
// way the server builds them, for the traced pass.
func fabricCells(benches, gens, filters []string, seed uint64) []cell {
	var cells []cell
	for _, f := range filters {
		for _, g := range gens {
			cfg := config.Default().WithFilter(config.FilterKind(f)).WithGenerator(config.PrefetchKind(g))
			cfg.Seed = seed
			for _, b := range benches {
				cells = append(cells, cell{name: b + "/" + g + "/" + f, bench: b, cfg: cfg})
			}
		}
	}
	return cells
}

// fabric sets up and measures fabric-sweep. Set-up builds every cell's
// machine once and starts the rig. Each round posts one cold sweep with a
// new seed, so every cell simulates and fills the CAS, then repeats it
// warm, answered from the CAS.
func (r *run) fabric(dir string) error {
	benches, gens, filters := workload.PaperNames(), prefetch.Sweepable(), fabricFilters
	if r.opts.Smoke {
		benches, gens, filters = benches[:2], []string{"nsp"}, filters[:2]
	}
	want := len(benches) * len(gens) * len(filters)
	n, w := r.sc.fabricInstr, r.sc.fabricWarmup

	cells := fabricCells(benches, gens, filters, r.opts.Seed)
	var rig *fabricRig
	err := r.setup(func(last bool) error {
		if err := dryBuildAll(cells); err != nil {
			return err
		}
		rdir, err := os.MkdirTemp(dir, "rig-")
		if err != nil {
			return err
		}
		g, err := startRig(rdir, r.jobs)
		if err != nil {
			return err
		}
		if last {
			rig = g
		} else {
			g.close()
		}
		return nil
	})
	if err != nil {
		return err
	}
	defer rig.close()

	sweeps := newParts()
	var peaks, warmMS []float64
	best := map[string]time.Duration{}
	var layers []map[string]float64
	var first server.SweepResponse
	err = r.repeat(func(i int) error {
		req := server.SweepRequest{
			Benchmarks: benches, Generators: gens, Filters: filters,
			Instructions: n, Warmup: &w, Seed: r.opts.Seed + uint64(i),
		}
		var coordD, workD metrics.Snapshot
		var coldBytes, warmBytes int
		var coldWall, warmTotal, round time.Duration
		mb, err := peakRound(func() error {
			t0 := time.Now()
			defer func() { round = time.Since(t0) }()
			coord0, work0 := rig.coordReg.Snapshot(), rig.workerReg.Snapshot()
			c0 := cpuTime()
			cold, size, wall, err := rig.sweep(req)
			coldCPU := cpuTime() - c0
			coldBytes, coldWall = size, wall
			coordD, workD = rig.coordReg.Snapshot().Diff(coord0), rig.workerReg.Snapshot().Diff(work0)
			r.attempted++
			var coldFP string
			if err == nil {
				coldFP, err = checkSweep(cold, want, n)
			}
			if err == nil && (cold.CASHits != 0 || coordD.Counters["fabric.cas.hits"] != 0) {
				err = fmt.Errorf("a cold sweep was answered from the CAS (%d hits)", coordD.Counters["fabric.cas.hits"])
			}
			if err == nil && i == 0 {
				r.fingerprint, first = coldFP, cold
				ok, perr := r.checkPin(coldFP)
				if perr != nil {
					return perr
				}
				if !ok {
					err = fmt.Errorf("fingerprint %s differs from the pin", coldFP)
				}
			}
			if err != nil {
				r.fail(1, "cold sweep %d: %v", i, err)
			} else {
				sweeps.keep("cold", coldWall, coldCPU)
				for _, res := range cold.Results {
					keepBest(best, res.Name, time.Duration(res.WallNS))
				}
			}

			for k := 0; k < r.sc.warmRepeats; k++ {
				c0 := cpuTime()
				warm, size, wall, err := rig.sweep(req)
				warmCPU := cpuTime() - c0
				r.attempted++
				warmTotal += wall
				warmBytes = size
				warmMS = append(warmMS, float64(wall)/1e6)
				var fp string
				if err == nil {
					fp, err = checkSweep(warm, want, n)
				}
				if err == nil && warm.CASHits != warm.Unique {
					err = fmt.Errorf("%d of %d cells answered from the CAS", warm.CASHits, warm.Unique)
				}
				if err == nil && (fp != coldFP || warm.Fingerprint != cold.Fingerprint) {
					err = fmt.Errorf("fingerprint %s differs from the cold sweep's %s", fp, coldFP)
				}
				if err != nil {
					r.fail(1, "warm sweep %d.%d: %v", i, k, err)
				} else {
					sweeps.keep(fmt.Sprintf("warm.%d", k), wall, warmCPU)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		peaks = append(peaks, mb)

		simSum, simN := histSum(workD, "experiments.sim.wall_ns.")
		disp := coordD.Histograms["fabric.dispatch.wall_ns"]
		layers = append(layers, map[string]float64{
			"fabric.sim_share":        ratio(simSum, float64(disp.Sum)),
			"fabric.warm_share":       ratio(float64(warmTotal), float64(round)),
			"server.response_kb_cold": float64(coldBytes) / 1024,
			"server.response_kb_warm": float64(warmBytes) / 1024,
			"fabric.cells_redealt":    float64(coordD.Counters["fabric.cells.redealt"]),
			"fabric.cells_failed":     float64(coordD.Counters["fabric.cells.failed"]),
			"fabric.cas_errors":       float64(coordD.Counters["fabric.cas.errors"]),

			"detail.cold_sweep_s":                coldWall.Seconds(),
			"detail.experiments.sim_ms_mean":     ratio(simSum, simN) / 1e6,
			"detail.fabric.dispatch_ms_mean":     disp.Mean() / 1e6,
			"detail.fabric.overhead_ms_per_cell": (disp.Mean() - ratio(simSum, simN)) / 1e6,
		})
		return nil
	})
	if err != nil {
		return err
	}
	r.setMedians(layers)
	r.detail["warm_sweep_ms_p50"] = median(warmMS)
	r.detail["warm_sweep_ms_p90"] = percentile(warmMS, 90)
	if !r.opts.Trace {
		// The sweeps run one at a time.
		r.setEndToEnd(sweeps, 1, best, peaks, n+w)
		return nil
	}

	// The traced pass re-runs the first cold sweep's cells in-process:
	// it splits their simulation into layers, and each result must equal
	// what the workers computed (sharded equals standalone).
	runs, lt := r.traceRound(cells, n, w, make([]isa.Record, 0, readAhead))
	for _, res := range first.Results {
		got, ok := runs[res.Name]
		if !ok {
			continue // the traced cell already failed
		}
		r.attempted++
		if summary(res.Name, got) != summary(res.Name, *res.Run) {
			r.fail(1, "%s: traced %q, fabric %q", res.Name, summary(res.Name, got), summary(res.Name, *res.Run))
		}
	}
	r.setMedians([]map[string]float64{lt.metrics()})
	return r.probes(runs)
}
