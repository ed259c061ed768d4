package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchmarkSpec is the part of BENCHMARK.json the comparator and the
// tests read.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadSpec(path string) (benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return benchmarkSpec{}, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return benchmarkSpec{}, fmt.Errorf("bench: %s: %w", path, err)
	}
	return spec, nil
}

// metricRule is how one metric is judged: its direction, and its bound
// (NaN for per-layer metrics, which have none).
type metricRule struct {
	better string
	bound  float64
}

func loadRules(path string) (map[string]metricRule, error) {
	spec, err := loadSpec(path)
	if err != nil {
		return nil, err
	}
	rules := map[string]metricRule{}
	for _, m := range spec.EndToEnd {
		rules[m.Name] = metricRule{better: m.Better, bound: m.Bound}
	}
	for _, m := range spec.PerLayer {
		rules[m.Name] = metricRule{better: m.Better, bound: math.NaN()}
	}
	return rules, nil
}

// savedRun is one saved pfbench output: the workload from its report line
// and the metrics from its last line.
type savedRun struct {
	workload string
	metrics  map[string]Metric
}

func readSaved(path string) (savedRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return savedRun{}, err
	}
	defer func() { _ = f.Close() }() // read-only
	var out savedRun
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		var line struct {
			Workload string            `json:"workload"`
			Metrics  map[string]Metric `json:"metrics"`
		}
		if json.Unmarshal(sc.Bytes(), &line) != nil {
			continue // build or log output
		}
		if line.Workload != "" {
			out.workload = line.Workload
		}
		if line.Metrics != nil {
			out.metrics = line.Metrics
		}
	}
	if err := sc.Err(); err != nil {
		return savedRun{}, err
	}
	if out.workload == "" || out.metrics == nil {
		return savedRun{}, fmt.Errorf("bench: %s holds no pfbench report and result", path)
	}
	return out, nil
}

// Compare reads two sets of saved pfbench outputs (a, the base, and b,
// the change) and prints, per workload and metric, each side's median
// and quartiles, the change of medians, the fraction of pairs (a[i],
// b[i]) that b wins, and a verdict against the metric's bound from the
// BENCHMARK.json at specPath. A metric whose own spread on either side
// exceeds its bound is unresolved unless every b run beats every a run.
func Compare(w io.Writer, specPath string, a, b []string) error {
	rules, err := loadRules(specPath)
	if err != nil {
		return err
	}
	type key struct{ workload, metric string }
	vals := [2]map[key][]float64{{}, {}}
	units := map[key]string{}
	for side, paths := range [][]string{a, b} {
		for _, p := range paths {
			s, err := readSaved(p)
			if err != nil {
				return err
			}
			for name, m := range s.metrics {
				k := key{s.workload, name}
				vals[side][k] = append(vals[side][k], m.Value)
				units[k] = m.Unit
			}
		}
	}
	var keys []key
	for k := range vals[0] {
		if len(vals[1][k]) > 0 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase median [q1, q3]\tchange median [q1, q3]\tdelta\tpairs won\tverdict")
	for _, k := range keys {
		rule, ok := rules[k.metric]
		if !ok {
			return fmt.Errorf("bench: metric %s is not in %s", k.metric, specPath)
		}
		av, bv := vals[0][k], vals[1][k]
		qa, qb := quartiles(av), quartiles(bv)
		sign := 1.0 // +1 when higher is better
		if rule.better == "lower" {
			sign = -1
		}
		wins, pairs := 0, min(len(av), len(bv))
		for i := 0; i < pairs; i++ {
			if sign*(bv[i]-av[i]) > 0 {
				wins++
			}
		}
		delta := ratio(qb[1]-qa[1], math.Abs(qa[1]))
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%+.1f%%\t%d/%d\t%s\n",
			k.workload, k.metric, units[k], qa[1], qa[0], qa[2], qb[1], qb[0], qb[2],
			100*delta, wins, pairs, verdict(rule, sign, av, bv, qa, qb))
	}
	return tw.Flush()
}

// verdict judges one metric: "-" without a bound; "unresolved" when a
// side's spread (quartile distance over median) exceeds the bound, unless
// every change run beats every base run or the reverse; "regression" when
// the change's median is worse by more than the bound; "ok" otherwise.
func verdict(rule metricRule, sign float64, av, bv []float64, qa, qb [3]float64) string {
	if math.IsNaN(rule.bound) {
		return "-"
	}
	spread := func(q [3]float64) float64 { return ratio(q[2]-q[0], math.Abs(q[1])) }
	if spread(qa) > rule.bound || spread(qb) > rule.bound {
		bestA, worstA := extremes(av, sign)
		bestB, worstB := extremes(bv, sign)
		switch {
		case sign*(worstB-bestA) > 0:
			return "better (every run)"
		case sign*(worstA-bestB) > 0:
			return "worse (every run)"
		}
		return "unresolved"
	}
	if worse := -sign * ratio(qb[1]-qa[1], math.Abs(qa[1])); worse > rule.bound {
		return "regression"
	}
	return "ok"
}

// extremes returns the best and worst of xs under the direction sign.
func extremes(xs []float64, sign float64) (best, worst float64) {
	best, worst = xs[0], xs[0]
	for _, x := range xs[1:] {
		if sign*(x-best) > 0 {
			best = x
		}
		if sign*(x-worst) < 0 {
			worst = x
		}
	}
	return best, worst
}

// SplitSides splits compare arguments at "--" into the base and change
// file lists.
func SplitSides(args []string) (a, b []string, err error) {
	for i, s := range args {
		if s == "--" {
			a, b = args[:i], args[i+1:]
			break
		}
	}
	if len(a) == 0 || len(b) == 0 {
		return nil, nil, fmt.Errorf("bench: want base files, then --, then change files; got %s", strings.Join(args, " "))
	}
	return a, b, nil
}
