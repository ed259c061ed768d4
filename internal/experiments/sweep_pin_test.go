package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/workload"
)

// sweepPins pins each comparison sweep twice, independently of the row
// shape: tableSHA256 over the rendered text of its comparison table, and
// runsSHA256 over one sorted line per cell holding its coordinates and
// the raw counters beneath every row (instructions, cycles, the D-side
// and I-side prefetch classifications, fetch blocks and misses). A row
// or table change moves only the table pin; a change to a simulation
// moves the run pin. Update a constant ONLY for an intentional change,
// and say which of the two moved and why in the commit message.
var sweepPins = []struct {
	name                    string
	axis                    *Axis
	filters                 []string
	traces, paper           bool
	tableSHA256, runsSHA256 string
}{
	{"plain", nil, nil, false, true,
		"a93659247c2aa2d21667bc65b98207ab9c2ed6de1f1e902117ec2a4a104bf692",
		"7bc73ad9e1f3bfeaabb7987bb9753e7175bbbb1c4be7f81ade1afbeddd9e239b"},
	{"trace", nil, nil, true, false,
		"b9e9b72522a516d274b947f1d8967199f09fd5cfef35a08fe968066c9670b69c",
		"43951ba71bb720737dbb123f8f729fd475088e49e3ba1324d07cff3de716b98a"},
	{"generator", GeneratorAxis, []string{string(config.FilterPA)}, false, true,
		"d16fcd40a642fd8b218157e810e3eec25833129ca4399648cef664a12b5e195a",
		"71fc3232ac7f825c0059e96d19e838edd8fec653ca62b8535ee84a7180e9f79d"},
	{"iprefetch", IPrefetchAxis, []string{string(config.FilterPA)}, true, true,
		"0fd81a32e3b476a752b114542edd80c12fe28cff81c0a63fdb106e456f67da0f",
		"a4ace8d02b2827e1d42809f281f34cd813ad684c645076fce4c3d716ffe75a6c"},
}

// runsLine is a cell's shape-independent record.
func runsLine(c Cell) string {
	r := c.Run
	line := fmt.Sprintf("%s|%s%s|%s|%d|%d|%d|%d|%d", c.Bench, c.Generator, c.IPrefetcher, c.Filter,
		r.Instructions, r.Cycles, r.Prefetches.Good, r.Prefetches.Bad, r.Prefetches.Filtered)
	if fe := r.Frontend; fe != nil {
		line += fmt.Sprintf("|%d|%d|%d|%d|%d", fe.Prefetches.Good, fe.Prefetches.Bad,
			fe.Prefetches.Filtered, fe.FetchBlocks, fe.FetchMisses)
	}
	return line
}

func sha256Hex(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// TestSweepCellsPinned runs the plain, trace, generator and I-side
// comparison sweeps at Params{Instructions: 10_000, Warmup: 2_000,
// Seed: 1} and checks both pins of each.
func TestSweepCellsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("four comparison sweeps are not short")
	}
	for _, tc := range sweepPins {
		t.Run(tc.name, func(t *testing.T) {
			var benches []string
			if tc.paper {
				benches = workload.PaperNames()
			}
			if tc.traces {
				benches = append(benches, registerSampleCorpus(t))
			}
			p := &Params{Instructions: 10_000, Warmup: 2_000, Seed: 1, Benchmarks: benches}
			cells, err := p.Sweep(context.Background(), tc.axis, nil, tc.filters)
			if err != nil {
				t.Fatal(err)
			}
			lines := make([]string, len(cells))
			for i, c := range cells {
				lines[i] = runsLine(c)
			}
			sort.Strings(lines)
			if got := sha256Hex(strings.Join(lines, "\n")); got != tc.runsSHA256 {
				t.Errorf("runs fingerprint = %s, want %s", got, tc.runsSHA256)
			}
			var text strings.Builder
			if err := ComparisonTable(tc.axis.TableTitle(), cells).WriteText(&text); err != nil {
				t.Fatal(err)
			}
			if got := sha256Hex(text.String()); got != tc.tableSHA256 {
				t.Errorf("table fingerprint = %s, want %s", got, tc.tableSHA256)
			}
		})
	}
}
