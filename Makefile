# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# commands; keeping them here makes the gates reproducible locally.

GO ?= go

.PHONY: build test bench-test bench-pins race lint fuzz-smoke trace-smoke fabric-smoke iprefetch-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The benchmark (bench/) is a module of its own compiled against this
# tree, so the root `go test ./...` skips it: vet and test it here, which
# catches a simulator change that breaks its build or its seam-fidelity
# test (TestSeamsMatchSimRun).
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# The benchmark's seed-1 pins at full cell budget: one short run of each
# workload (bench/README.md). The report line must say the output
# fingerprint was checked against its pin, and the result line that every
# output was correct.
bench-pins:
	@for w in dside-zoo iside-trace fabric-sweep; do \
		out=$$(bash bench/run.sh --workload $$w --seed 1 --seconds 1) || exit 1; \
		echo "$$out"; \
		echo "$$out" | jq -s -e '.[0].pin_checked == true and .[1].correct == true' >/dev/null || \
			{ echo "bench-pins: $$w: pin unchecked or output incorrect" >&2; exit 1; }; \
	done

# The race detector where goroutines actually meet (the concurrency
# harnesses, the packages whose tests drive them, and the array pools
# every sweep worker shares); the remaining simulation packages are
# single-goroutine by design.
race:
	$(GO) test -race ./internal/sched/ ./internal/server/ ./internal/metrics/ ./internal/experiments/ ./internal/fabric/ ./internal/frontend/ ./internal/tracefile/ ./internal/slab/

# Static analysis: go vet, gofmt over the tracked Go files (not ".",
# which would take in the benchmark's .bench_build/), and pflint, the
# project linter (docs/LINTING.md). A finding anywhere fails the target.
lint:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
		if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./cmd/pflint ./...

# FuzzReaderBatch is seeded with whole traces and FuzzConvertChampSim
# with 8 KiB of the ChampSim fixture; minimizing such an input would take
# the whole budget, so -fuzzminimizetime keeps them fuzzing. An input of
# FuzzSweepRequest can expand to hundreds of cells and one of FuzzCASEntry
# writes and reads back a file, so minimizing either is slow too: they get
# the same cap. So do FuzzRunRequest (without it, minimizing its new
# inputs stalled it at 0 execs/s for half of its 30 s) and FuzzCellReply,
# whose reply bodies can be as large as the fuzzer makes them.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzConfigString -fuzztime=30s ./internal/config/
	$(GO) test -run=NONE -fuzz=FuzzCellRequest -fuzztime=30s ./internal/server/
	$(GO) test -run=NONE -fuzz=FuzzRunRequest -fuzztime=30s -fuzzminimizetime=5s ./internal/server/
	$(GO) test -run=NONE -fuzz=FuzzSweepRequest -fuzztime=30s -fuzzminimizetime=5s ./internal/server/
	$(GO) test -run=NONE -fuzz=FuzzCASEntry -fuzztime=30s -fuzzminimizetime=5s ./internal/fabric/
	$(GO) test -run=NONE -fuzz=FuzzCellReply -fuzztime=30s -fuzzminimizetime=5s ./internal/fabric/
	$(GO) test -run=NONE -fuzz=FuzzHistoryTableIndex -fuzztime=30s ./internal/core/
	$(GO) test -run=NONE -fuzz=FuzzReaderBatch -fuzztime=30s -fuzzminimizetime=5s ./internal/tracefile/
	$(GO) test -run=NONE -fuzz=FuzzConvertChampSim -fuzztime=30s -fuzzminimizetime=5s ./internal/tracefile/

# Real-trace pipeline smoke (docs/TRACES.md): convert the checked-in
# ChampSim fixture, assert the pinned stream fingerprint, replay the
# corpus through pfexperiments (the table must name the trace and carry
# its fingerprint), run the pinned fixture and replay-determinism tests,
# then serve one trace sweep cell from pfserved. Each output goes to a
# file first, so a failing run fails the target.
trace-smoke:
	$(GO) build -o pftrace ./cmd/pftrace
	./pftrace convert -o sample.pftc -manifest corpus.json -name sample \
		internal/tracefile/testdata/sample.champsim.gz
	./pftrace info -chunks sample.pftc
	./pftrace info -json sample.pftc > sample_info.json
	cat sample_info.json
	grep -q "$$(cat internal/tracefile/testdata/sample.fingerprint)" sample_info.json
	$(GO) run ./cmd/pfexperiments -traces corpus.json -n 20000 -warmup 5000 > traces.txt
	cat traces.txt
	grep -q 'trace:sample' traces.txt
	grep -q "$$(cat internal/tracefile/testdata/sample.fingerprint)" traces.txt
	$(GO) test -run 'TestSampleFixture|TestTraceComparisonDeterministicAcrossWorkers' -v \
		./internal/tracefile/ ./internal/experiments/
	$(GO) build -o pfserved ./cmd/pfserved
	./pfserved -addr 127.0.0.1:8078 -workers 2 -trace-manifest corpus.json -trace-verify & \
	pid=$$!; \
	for i in $$(seq 1 50); do curl -sf http://127.0.0.1:8078/healthz && break; sleep 0.2; done; \
	curl -sf http://127.0.0.1:8078/v1/sweep \
		-d '{"traces":["all"],"filters":["pa"],"instructions":20000,"warmup":5000}' > sweep.json; \
	status=$$?; kill -TERM $$pid; wait $$pid || status=1; \
	cat sweep.json; echo; \
	[ $$status -eq 0 ] && grep -q '"name":"trace:sample/pa"' sweep.json

# Distributed-sweep smoke (docs/FABRIC.md): coordinator plus two
# workers over a shared CAS, one worker killed mid-sweep, determinism
# and CAS-hit assertions. Fully self-contained; see the script.
fabric-smoke:
	./scripts/fabric_smoke.sh

# I-side (iprefetcher x filter) matrix smoke (docs/FRONTEND.md): every
# registered instruction prefetcher crossed with none/pa, on one
# benchmark and on the converted ChampSim fixture trace, with a row per
# backend asserted in each table, then the pinned per-backend
# fingerprints. Each table goes to a file first, so a failing run fails
# the target.
iprefetch-smoke:
	$(GO) run ./cmd/pfexperiments -iprefetch all -filters none,pa -bench mcf \
		-n 100000 -warmup 20000 > iprefetch.txt
	cat iprefetch.txt
	for backend in mana nextline; do \
		grep -q "mcf *$$backend" iprefetch.txt || exit 1; \
	done
	$(GO) build -o pftrace ./cmd/pftrace
	./pftrace convert -o sample.pftc -manifest corpus.json -name sample \
		internal/tracefile/testdata/sample.champsim.gz
	$(GO) run ./cmd/pfexperiments -iprefetch all -filters none,pa -traces corpus.json \
		-n 20000 -warmup 5000 > iprefetch_trace.txt
	cat iprefetch_trace.txt
	for backend in mana nextline; do \
		grep -q "trace:sample *$$backend" iprefetch_trace.txt || exit 1; \
	done
	$(GO) test -run 'TestIPrefetchFingerprintPinned|TestIPrefetchAliasRunsIdentical' \
		./internal/experiments/
