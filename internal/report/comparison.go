package report

import "sort"

// ComparisonRow is one cell of a comparison sweep: the axis value it
// ran (at most one of Generator and IPrefetcher; neither on a plain
// filter comparison), its benchmark and filter, the prefetch
// classification of the swept cache with the quality metrics the paper
// reports, and the IPC delta against the unfiltered cell of the same
// (benchmark, axis value).
type ComparisonRow struct {
	Generator   string  `json:"generator,omitempty"`
	IPrefetcher string  `json:"iprefetcher,omitempty"`
	Benchmark   string  `json:"benchmark"`
	Filter      string  `json:"filter"`
	Good        uint64  `json:"good"`
	Bad         uint64  `json:"bad"`
	Filtered    uint64  `json:"filtered"`
	Accuracy    float64 `json:"accuracy"` // good / (good + bad)
	Coverage    float64 `json:"coverage"` // good / (good + the swept cache's demand misses)
	// FetchMissRate is the L1I's fetch misses per fetch block, set on
	// I-side rows only.
	FetchMissRate float64 `json:"fetch_miss_rate,omitempty"`
	IPC           float64 `json:"ipc"`
	IPCDelta      float64 `json:"ipc_delta"`
}

// axis returns the row's axis column and value; both are empty on a
// plain filter row.
func (r *ComparisonRow) axis() (column, value string) {
	switch {
	case r.Generator != "":
		return "generator", r.Generator
	case r.IPrefetcher != "":
		return "iprefetcher", r.IPrefetcher
	}
	return "", ""
}

// SortComparison orders rows benchmark-major, then by axis value, then
// by filter: the stable order every renderer (CLI table, JSON response)
// presents.
func SortComparison(rows []ComparisonRow) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := &rows[i], &rows[j]
		if a.Benchmark != b.Benchmark {
			return a.Benchmark < b.Benchmark
		}
		if a.Generator != b.Generator {
			return a.Generator < b.Generator
		}
		if a.IPrefetcher != b.IPrefetcher {
			return a.IPrefetcher < b.IPrefetcher
		}
		return a.Filter < b.Filter
	})
}

// Comparison renders the rows of one sweep. The rows' axis, if any,
// adds its column after the benchmark, and I-side rows add the fetch-miss
// rate.
func Comparison(title string, rows []ComparisonRow) *Table {
	var axis string
	if len(rows) > 0 {
		axis, _ = rows[0].axis()
	}
	iside := axis == "iprefetcher"
	head := []string{"benchmark"}
	if axis != "" {
		head = append(head, axis)
	}
	head = append(head, "filter", "good", "bad", "filtered", "accuracy", "coverage")
	if iside {
		head = append(head, "fetch-miss")
	}
	t := New(title, append(head, "IPC", "dIPC")...)
	for i := range rows {
		r := &rows[i]
		row := []string{r.Benchmark}
		if _, v := r.axis(); axis != "" {
			row = append(row, v)
		}
		row = append(row, r.Filter, I(r.Good), I(r.Bad), I(r.Filtered), Pct(r.Accuracy), Pct(r.Coverage))
		if iside {
			row = append(row, Pct(r.FetchMissRate))
		}
		t.AddRow(append(row, F(r.IPC), F(r.IPCDelta))...)
	}
	note := "accuracy = good/(good+bad); coverage = good/(good + L1 demand misses)"
	if iside {
		note = "accuracy = good/(good+bad); coverage = good/(good + L1I fetch misses); fetch-miss = L1I fetch misses / fetch blocks"
	}
	note += "; dIPC vs the unfiltered (none) run"
	if axis != "" {
		note += " of the same (benchmark, " + axis + ")"
	}
	t.AddNote("%s", note)
	return t
}
