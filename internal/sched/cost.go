// The cost model: turning recorded wall-time histograms into the
// longest-runs-first order of the scheduler's queue.

package sched

import "repro/internal/metrics"

// CostModel estimates a job's relative wall time from a grouping label
// (the experiment harness groups by benchmark name). Estimates only need
// to be ordinally right — the scheduler sorts by them, nothing else.
type CostModel func(label string) uint64

// ConstCost estimates every job at the same cost c. The queue then
// runs in deterministic Key order — still correct, just not
// load-balanced.
func ConstCost(c uint64) CostModel {
	return func(string) uint64 { return c }
}

// CostFromSnapshot builds a cost model from a metrics snapshot: the
// estimate for label is the mean of the histogram named prefix+label
// (the per-benchmark "experiments.sim.wall_ns.<bench>" histograms the
// harness already records), falling back to `fallback` for labels with
// no recorded history. Taking a Snapshot decouples the model from live
// registry updates, so a sweep's ordering is fixed when it starts.
func CostFromSnapshot(snap metrics.Snapshot, prefix string, fallback uint64) CostModel {
	means := make(map[string]uint64, len(snap.Histograms))
	for name, hv := range snap.Histograms {
		if len(name) > len(prefix) && name[:len(prefix)] == prefix && hv.Count > 0 {
			means[name[len(prefix):]] = uint64(hv.Mean())
		}
	}
	return func(label string) uint64 {
		if m, ok := means[label]; ok && m > 0 {
			return m
		}
		return fallback
	}
}
