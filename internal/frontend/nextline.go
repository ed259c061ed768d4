package frontend

import "repro/internal/core"

// NextLine is the next-line/fetch-directed baseline: on every block the
// front end crosses into, it runs degree sequential blocks ahead of the
// fetch stream. Because the fetch unit already follows taken-branch
// redirects, the candidates track the *actual* fetch path, not the
// static fall-through — the classic fetch-directed-prefetching shape
// without a separate branch-predictor-driven engine.
type NextLine struct {
	degree    int
	lineBytes uint64
}

// NewNextLine returns the baseline with the given sequential depth.
func NewNextLine(degree, lineBytes int) (*NextLine, error) {
	return &NextLine{degree: degree, lineBytes: uint64(lineBytes)}, nil
}

// Name implements Prefetcher.
func (n *NextLine) Name() string { return "nextline" }

// Observe emits the degree blocks sequentially following the fetched
// block.
//
//pflint:hotpath
func (n *NextLine) Observe(ev Event, emit func(Candidate)) {
	for i := 1; i <= n.degree; i++ {
		emit(Candidate{
			Block:     ev.Block + uint64(i)*n.lineBytes,
			TriggerPC: ev.PC,
			Source:    core.SrcINextLine,
		})
	}
}
