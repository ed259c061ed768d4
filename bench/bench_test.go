package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke runs every workload untraced and traced at smoke scale. No
// operation may fail, and each run must print exactly the metrics
// BENCHMARK.json names for its kind, each with its declared unit.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	if fmt.Sprint(declared) != fmt.Sprint(Workloads) {
		t.Fatalf("BENCHMARK.json workloads %v, pfbench has %v", declared, Workloads)
	}
	for _, w := range Workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w, traced), func(t *testing.T) {
				rep, res, err := Run(Options{Workload: w, Seed: 1, Trace: traced, Root: "..", Smoke: true})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("result %+v, failures %v", res, rep.Failures)
				}
				want := map[string]string{}
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
				if traced {
					want = map[string]string{}
					for _, m := range spec.PerLayer {
						want[m.Name] = m.Unit
					}
				}
				for name, unit := range want {
					if got, ok := res.Metrics[name]; !ok || got.Unit != unit {
						t.Errorf("metric %s: printed %+v, BENCHMARK.json says unit %s", name, got, unit)
					}
				}
				for name := range res.Metrics {
					if _, ok := want[name]; !ok {
						t.Errorf("metric %s is printed but not named in BENCHMARK.json", name)
					}
				}
			})
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(data, n=4), which the benchmark's spread rule uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
	} {
		if got := quartiles(tc.in); got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestCompare feeds the comparator two sets of saved outputs in which
// wall_s got 50% worse and mips_p50 did not move.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	save := func(name string, wall, mips float64) string {
		p := filepath.Join(dir, name)
		out := fmt.Sprintf("go: building\n{\"workload\":\"dside-zoo\"}\n"+
			"{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{\"wall_s\":{\"value\":%g,\"unit\":\"s\"},\"mips_p50\":{\"value\":%g,\"unit\":\"Minstr/s\"}}}\n", wall, mips)
		if err := os.WriteFile(p, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	var a, b []string
	for i := 0; i < 5; i++ {
		a = append(a, save(fmt.Sprintf("a%d", i), 10+0.01*float64(i), 8))
		b = append(b, save(fmt.Sprintf("b%d", i), 15+0.01*float64(i), 8))
	}
	var out strings.Builder
	if err := Compare(&out, filepath.Join("..", "BENCHMARK.json"), a, b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"wall_s", "regression", "0/5", "mips_p50", "ok"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("comparison lacks %q:\n%s", want, out.String())
		}
	}
}
