// The variance experiment: statistical robustness of the headline result.
//
// The paper reports single-run numbers (one binary, one input). Our
// synthetic workloads let us re-draw the "input" cheaply: every seed is a
// different instance of the same program model. This experiment repeats
// the Figure 6 headline (mean IPC speedup of the PA and PC filters at
// 8KB) across several seeds and reports mean ± standard deviation, so a
// reader can tell the reproduced effect from run-to-run noise.
package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/internal/config"
	"repro/internal/report"
	"repro/internal/stats"
)

// varianceSeeds are the input-instance draws.
var varianceSeeds = []uint64{1, 2, 3, 5, 8}

func runVariance(ctx context.Context, p *Params) (*Table, error) {
	t := report.New("Headline speedup across seeds (8KB D-cache)",
		"seed", "mean IPC none", "mean IPC PA", "mean IPC PC", "PA speedup", "PC speedup")

	var spPA, spPC []float64
	for _, seed := range varianceSeeds {
		q := p.sharingCache()
		q.Seed = seed
		runs, err := q.grid(ctx, filterTriple(config.Default()))
		if err != nil {
			return nil, err
		}
		// Figure 6's metric: per-benchmark speedups, then the mean.
		var perBenchPA, perBenchPC []float64
		for _, row := range runs {
			perBenchPA = append(perBenchPA, stats.Speedup(row[0].IPC(), row[1].IPC()))
			perBenchPC = append(perBenchPC, stats.Speedup(row[0].IPC(), row[2].IPC()))
		}
		sa := stats.Mean(perBenchPA)
		sc := stats.Mean(perBenchPC)
		spPA = append(spPA, sa)
		spPC = append(spPC, sc)
		t.AddRow(fmt.Sprintf("%d", seed),
			report.F2(columnMean(runs, 0, stats.Run.IPC)), report.F2(columnMean(runs, 1, stats.Run.IPC)),
			report.F2(columnMean(runs, 2, stats.Run.IPC)),
			report.Pct(sa), report.Pct(sc))
	}
	mPA, sdPA := meanStdev(spPA)
	mPC, sdPC := meanStdev(spPC)
	t.AddRow("mean±sd", "", "", "",
		fmt.Sprintf("%s ± %s", report.Pct(mPA), report.Pct(sdPA)),
		fmt.Sprintf("%s ± %s", report.Pct(mPC), report.Pct(sdPC)))
	t.AddNote("paper single-run values: PA +8.2%%, PC +9.1%%; the reproduced effect must exceed the seed noise to count")
	return t, nil
}

// meanStdev returns the sample mean and standard deviation.
func meanStdev(xs []float64) (mean, sd float64) {
	mean = stats.Mean(xs)
	if len(xs) < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / float64(len(xs)-1))
}
