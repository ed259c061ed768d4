// HTTP handlers: decode, validate, admit, execute, respond. Every
// response body is JSON except /healthz and /metrics (Prometheus text).

package server

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/experiments"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/stats"
)

// maxBodyBytes bounds request bodies; sweeps are small JSON documents.
const maxBodyBytes = 1 << 20

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("POST /v1/cell", s.handleCellPost)
	s.mux.HandleFunc("GET /v1/cell", s.handleCellGet)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encode errors past the header are unrecoverable; nothing to do.
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	s.cfg.Metrics.Counter("server.errors." + strconv.Itoa(status)).Inc()
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// decodeJSON strictly decodes one JSON document from the request body.
// It returns the HTTP status to answer with on failure.
func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) (int, error) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			return http.StatusRequestEntityTooLarge, errors.New("request body too large")
		}
		return http.StatusBadRequest, fmt.Errorf("bad request body: %v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return http.StatusBadRequest, errors.New("bad request body: trailing data after JSON document")
	}
	return 0, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = fmt.Fprintln(w, "ok") // client gone is not a server error
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	m := s.cfg.Metrics
	// Queue-occupancy gauges, refreshed at scrape time.
	m.Counter("server.queue.used").Set(uint64(len(s.slots)))
	m.Counter("server.queue.depth").Set(uint64(cap(s.slots)))
	m.Counter("server.exec.active").Set(uint64(len(s.exec)))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if _, err := m.Snapshot().WritePrometheus(w); err != nil {
		// Mid-stream write error: the connection is gone.
		return
	}
}

// admitAndExecute is the shared buffered serving path: take an admission
// slot (or 429), apply the deadline, run the cells, and translate
// context expiry into 504. On failure it has already written the
// response and returns ok=false.
func (s *Server) admitAndExecute(w http.ResponseWriter, r *http.Request, deadlineMS int64, p *experiments.Params, cells []sweepCell) (outcomes map[string]fabric.Result, wallNS int64, ok bool) {
	if !s.admit(w) {
		return nil, 0, false
	}
	defer s.releaseSlot()

	ctx, cancel := context.WithTimeout(r.Context(), s.deadlineFor(deadlineMS))
	defer cancel()

	start := time.Now()
	outcomes, err := s.executeCells(ctx, p, cells, nil)
	wall := time.Since(start)
	s.cfg.Metrics.Histogram("server.request.wall_ns").Observe(uint64(wall))
	if err != nil {
		s.cfg.Metrics.Counter("server.rejected.deadline").Inc()
		s.writeError(w, http.StatusGatewayTimeout, "request expired: %v", err)
		return nil, 0, false
	}
	return outcomes, wall.Nanoseconds(), true
}

// outcomeStatus maps a cell failure to its HTTP status.
func outcomeStatus(err error) int {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return http.StatusGatewayTimeout
	}
	return http.StatusInternalServerError
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	s.inflight.Add(1)
	defer s.inflight.Done()
	s.cfg.Metrics.Counter("server.run.requests").Inc()
	if s.rejectDraining(w) {
		return
	}

	var req RunRequest
	if status, err := decodeJSON(w, r, &req); err != nil {
		s.writeError(w, status, "%v", err)
		return
	}
	p, run, err := s.expandRun(req)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	cells := cellsFor(&p, run)
	outcomes, _, ok := s.admitAndExecute(w, r, req.DeadlineMS, &p, cells)
	if !ok {
		return
	}

	c := cells[0]
	o := outcomes[c.key]
	if o.Err != nil {
		s.writeError(w, outcomeStatus(o.Err), "simulation failed: %v", o.Err)
		return
	}
	s.cfg.Metrics.Counter("server.run.completed").Inc()
	writeJSON(w, http.StatusOK, RunResponse{
		Seed:         p.Seed,
		Instructions: p.Instructions,
		Warmup:       p.Warmup,
		Result:       resultForCell(c, o),
	})
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	s.inflight.Add(1)
	defer s.inflight.Done()
	s.cfg.Metrics.Counter("server.sweep.requests").Inc()
	if s.rejectDraining(w) {
		return
	}

	var req SweepRequest
	if status, err := decodeJSON(w, r, &req); err != nil {
		s.writeError(w, status, "%v", err)
		return
	}

	p := s.paramsFor(req.Instructions, req.Warmup, req.Seed)
	expanded, jobs, err := expandSweep(req, &p)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// Deduplicate identical cells (first occurrence wins) and enforce
	// the sweep-size bound on the deduplicated matrix.
	cells := cellsFor(&p, expanded)
	if len(cells) > s.cfg.MaxSweepJobs {
		s.writeError(w, http.StatusRequestEntityTooLarge, "sweep expands to %d jobs, cap is %d", len(cells), s.cfg.MaxSweepJobs)
		return
	}
	if err := checkBudget(&p, s.cfg.MaxInstructions); err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	if req.Stream {
		s.streamSweep(w, r, req.DeadlineMS, &p, cells, jobs)
		return
	}

	outcomes, wallNS, ok := s.admitAndExecute(w, r, req.DeadlineMS, &p, cells)
	if !ok {
		return
	}
	resp := buildSweepResponse(&p, cells, outcomes, jobs, wallNS, true)
	s.cfg.Metrics.Counter("server.sweep.completed").Inc()
	writeJSON(w, http.StatusOK, resp)
}

// streamSweep is the NDJSON serving path: one "result" line per cell in
// completion order (CAS hits land first), then one "summary" line.
// Admission failure (429) is an ordinary HTTP error; past admission the
// 200 status commits immediately — clients must not wait for headers
// while cells execute — so later failures (deadline, cancellation) ride
// the summary line's "error" field instead of the status code.
func (s *Server) streamSweep(w http.ResponseWriter, r *http.Request, deadlineMS int64, p *experiments.Params, cells []sweepCell, jobs int) {
	if !s.admit(w) {
		return
	}
	defer s.releaseSlot()

	ctx, cancel := context.WithTimeout(r.Context(), s.deadlineFor(deadlineMS))
	defer cancel()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush()
	}
	enc := json.NewEncoder(w)
	emit := func(c sweepCell, o fabric.Result) {
		res := resultForCell(c, o)
		if err := enc.Encode(StreamLine{Type: "result", Result: &res}); err != nil {
			return // client gone; the request context cancels the rest
		}
		if flusher != nil {
			flusher.Flush()
		}
	}

	start := time.Now()
	outcomes, err := s.executeCells(ctx, p, cells, emit)
	wall := time.Since(start)
	s.cfg.Metrics.Histogram("server.request.wall_ns").Observe(uint64(wall))
	if err != nil {
		s.cfg.Metrics.Counter("server.rejected.deadline").Inc()
	}
	summary := buildSweepResponse(p, cells, outcomes, jobs, wall.Nanoseconds(), false)
	line := StreamLine{Type: "summary", Summary: &summary}
	if err != nil {
		line.Error = err.Error()
	}
	_ = enc.Encode(line) // client gone mid-stream: nothing left to tell it
	if flusher != nil {
		flusher.Flush()
	}
	s.cfg.Metrics.Counter("server.sweep.completed").Inc()
}

// buildSweepResponse assembles the sweep summary (and, when
// includeResults is set, the per-cell results) from the outcome map. The
// comparison covers the successful cells; a cell without an outcome
// counts as an error.
func buildSweepResponse(p *experiments.Params, cells []sweepCell, outcomes map[string]fabric.Result, jobs int, wallNS int64, includeResults bool) SweepResponse {
	resp := SweepResponse{
		Seed:         p.Seed,
		Instructions: p.Instructions,
		Warmup:       p.Warmup,
		Jobs:         jobs,
		Unique:       len(cells),
		WallNS:       wallNS,
	}
	results := make([]RunResult, 0, len(cells))
	runs := make(map[string]stats.Run, len(cells))
	var ran []experiments.Cell
	for _, c := range cells {
		o, ok := outcomes[c.key] // absent: the batch never started
		if ok && o.Err == nil {
			runs[c.key] = o.Run
			c.Run = o.Run
			ran = append(ran, c.Cell)
		} else {
			resp.Errors++
		}
		if o.Source == "cas" {
			resp.CASHits++
		}
		results = append(results, resultForCell(c, o))
	}
	resp.Fingerprint = fabric.Fingerprint(runs)
	resp.Comparison = experiments.Rows(ran)
	if includeResults {
		resp.Results = results
	}
	return resp
}

// handleCellPost is the fabric's worker-side endpoint: execute one cell
// (Run absent) or fill the local CAS with a completed result (Run
// present). The coordinator cross-checks the returned key against its
// own, so key computation happens here with the same experiments code
// path every node runs.
func (s *Server) handleCellPost(w http.ResponseWriter, r *http.Request) {
	s.inflight.Add(1)
	defer s.inflight.Done()
	s.cfg.Metrics.Counter("server.cell.requests").Inc()
	if s.rejectDraining(w) {
		return
	}

	var req fabric.CellRequest
	if status, err := decodeJSON(w, r, &req); err != nil {
		s.writeError(w, status, "%v", err)
		return
	}
	p := s.paramsFor(req.Instructions, req.Warmup, req.Seed)
	if err := validateCell(req, &p, s.cfg.MaxInstructions); err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	key := p.CacheKey(req.Bench, *req.Config)

	if req.Run != nil { // fill mode: the disk only, never the daemon's memory
		if s.cfg.CAS == nil {
			s.writeError(w, http.StatusNotImplemented, "no content-addressed store configured (-cas-dir)")
			return
		}
		if err := s.cfg.CAS.Put(key, *req.Run); err != nil {
			s.writeError(w, http.StatusInternalServerError, "cas fill: %v", err)
			return
		}
		s.cfg.Metrics.Counter("server.cell.fills").Inc()
		writeJSON(w, http.StatusOK, fabric.CellResponse{Key: key, KeySHA: fabric.KeySHA(key)})
		return
	}

	cells := []sweepCell{{Cell: experiments.Cell{Bench: req.Bench, Config: *req.Config}, key: key}}
	outcomes, _, ok := s.admitAndExecute(w, r, req.DeadlineMS, &p, cells)
	if !ok {
		return
	}
	o := outcomes[key]
	if o.Err != nil {
		s.writeError(w, outcomeStatus(o.Err), "simulation failed: %v", o.Err)
		return
	}
	s.cfg.Metrics.Counter("server.cell.completed").Inc()
	writeJSON(w, http.StatusOK, fabric.CellResponse{Key: key, KeySHA: fabric.KeySHA(key), Run: &o.Run, WallNS: o.Wall.Nanoseconds(), Source: cmp.Or(o.Source, "sim")})
}

// validateCell is the gate a /v1/cell body passes before it runs or
// fills the store. Fill mode stores a result the server never computed
// under the key of the request's config, so the config must be one the
// simulator would accept: sim.Validate checks its numbers, its bounds
// and its kind names, and the filter must be one a single pass can run
// (not static, which needs a profiling run). p is the request's budget,
// which must pass checkBudget.
func validateCell(req fabric.CellRequest, p *experiments.Params, maxInstructions int64) error {
	if req.Config == nil {
		return errors.New("config is required")
	}
	if err := validateBenchmarks([]string{req.Bench}); err != nil {
		return err
	}
	if err := sim.Validate(*req.Config); err != nil {
		return fmt.Errorf("invalid config: %w", err)
	}
	if _, err := experiments.FilterAxis.Resolve(string(req.Config.Filter.Kind)); err != nil {
		return fmt.Errorf("invalid config: filter: %w", err)
	}
	return checkBudget(p, maxInstructions)
}

// handleCellGet is the sha-addressed CAS lookup: GET /v1/cell?sha=<64
// hex chars> answers the stored envelope or 404. Read-only, so it stays
// available while draining.
func (s *Server) handleCellGet(w http.ResponseWriter, r *http.Request) {
	s.inflight.Add(1)
	defer s.inflight.Done()
	if s.cfg.CAS == nil {
		s.writeError(w, http.StatusNotImplemented, "no content-addressed store configured (-cas-dir)")
		return
	}
	sha := r.URL.Query().Get("sha")
	key, run, ok, err := s.cfg.CAS.GetSHA(sha)
	if errors.Is(err, fabric.ErrBadAddress) {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err != nil {
		// A corrupt or mismatched entry reads as a miss; say why.
		s.writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	if !ok {
		s.writeError(w, http.StatusNotFound, "no entry for %s", sha)
		return
	}
	writeJSON(w, http.StatusOK, fabric.CellResponse{Key: key, KeySHA: sha, Run: &run, Source: "cas"})
}
