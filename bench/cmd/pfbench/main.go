// Command pfbench runs one benchmark workload and prints two JSON lines:
// a report (host, rounds, fingerprint, detail, failures), then the result
// (correct, attempted, failed, metrics). With -compare it compares two
// sets of saved outputs instead.
//
//	pfbench -workload dside-zoo -seed 1 -seconds 36 -trace 0
//	pfbench -compare base1.json base2.json -- change1.json change2.json
//
// Run it from the repository root (bench/run.sh builds it and does so).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/bench"
)

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(bench.Workloads, ", "))
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 36, "measuring budget in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	compare := flag.Bool("compare", false, "compare saved outputs: base files -- change files")
	spec := flag.String("spec", "BENCHMARK.json", "benchmark definition read by -compare")
	flag.Parse()

	if *compare {
		a, b, err := bench.SplitSides(flag.Args())
		if err == nil {
			err = bench.Compare(os.Stdout, *spec, a, b)
		}
		if err != nil {
			fatal(err)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
	}
	rep, res, err := bench.Run(bench.Options{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Root: ".",
	})
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(os.Stdout)
	for _, v := range []any{rep, res} {
		if err := enc.Encode(v); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pfbench:", err)
	os.Exit(1)
}
