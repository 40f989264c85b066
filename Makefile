GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test vet lockvet race race-locks check explore fuzz-smoke obs-smoke deadlock-smoke

all: vet build lockvet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lockvet runs the project's own static lock checker end to end:
# scripts/lockvet_smoke.sh builds bin/lockvet, runs the go/analysis
# suite (lockword, pairedunlock, hookalloc) over the whole repo via
# `go vet -vettool`, checks every bytecode corpus program against the
# structured-locking verifier and its expected static lock-order
# verdict, and diffs the abba static graph against a live runtime
# lockdep export.
lockvet: build
	GO="$(GO)" scripts/lockvet_smoke.sh results/lockvet

# race runs the full suite under the race detector; -short trims the
# slowest stress rounds so the job stays CI-sized.
race:
	$(GO) test -race -short ./internal/... .

# race-locks runs the two lock-word protocol packages (biased
# reservation and thin locks) under the race detector at full strength
# (no -short): the revocation handshake's store/load ordering is exactly
# what the detector is for. The lockscope package rides along: its
# lock-free sample ring (concurrent sampler vs. readers) and its
# disabled/enabled overhead contract are race-sensitive by design.
race-locks:
	$(GO) test -race -count=1 ./internal/biased/... ./internal/core/... ./internal/lockscope/...

# check runs the concurrent differential checker CLI over every lock
# implementation, and the exhaustive small-scope explorer.
check: build
	$(GO) run ./cmd/lockcheck -rounds 10
	$(GO) run ./cmd/lockcheck -explore

# obs-smoke exercises the observability layer end to end: run the
# contended workload under cmd/lockmon with telemetry and the contention
# profiler enabled, emit the JSON snapshot, the Prometheus snapshot, the
# Perfetto trace and the pprof contention profile (lockmon self-validates
# the JSON artifacts), run the trace-format and overhead tests, and then
# smoke the live HTTP server: scripts/obs_smoke_serve.sh starts
# `lockmon -serve -scope`, curls /metrics, /debug/vars,
# /debug/lockprof/top (>= 2 contended sites), /debug/pprof/lockcontention
# (validated with `go tool pprof -raw`), /debug/lockscope/series (>= 2
# windows with activity, JSON and CSV), the /debug/lockscope/stream SSE
# feed and the dashboard, and finally runs macrobench -timeseries over
# bankmt and sessiond and validates the written phase timelines.
obs-smoke: build
	mkdir -p results/obs
	$(GO) run ./cmd/lockmon -workload bankmt \
		-json results/obs/snapshot.json \
		-prom results/obs/snapshot.prom \
		-trace results/obs/trace.json \
		-pprof results/obs/lockmon.pb.gz
	$(GO) test -run 'TestChromeTrace|TestDisabledHooks|TestEnabledSlowPath|TestDisabledProfiler|TestPprofProfile|TestDisabledScope|TestEnabledScope' \
		./internal/locktrace/ ./internal/telemetry/ ./internal/lockprof/ ./internal/lockscope/
	GO="$(GO)" scripts/obs_smoke_serve.sh results/obs

# deadlock-smoke exercises the lock-order watchdog end to end:
# scripts/deadlock_smoke.sh runs the abba workload (latent ABBA must be
# flagged without a hang), the safe dining workload (must stay silent),
# the dining-deadlock hazard under -watchdog (stall dump must name all
# five philosophers and exit 3), and the disabled-path overhead tests.
deadlock-smoke: build
	GO="$(GO)" scripts/deadlock_smoke.sh results/deadlock

# fuzz-smoke gives each fuzzer a short budget on top of its seed
# corpus (testdata/fuzz); any new crasher is written back to testdata.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzCompile -fuzztime $(FUZZTIME) ./internal/minijava
	$(GO) test -run '^$$' -fuzz FuzzVerify -fuzztime $(FUZZTIME) ./internal/vm
