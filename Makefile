# Pre-merge gate: `make check` must pass before any merge. It checks that
# gofmt would change nothing, builds everything, vets, runs the full test
# suite under the race detector, smoke-runs every benchmark once so the
# bench harness can never rot, self-tests the perfbench module, and gives
# each fuzz target a short live-fuzz burst beyond its seed corpus.
.PHONY: check fmt-check build vet test test-nofma bench-smoke perfbench-selftest fuzz-smoke bench netbench storagebench schedbench simbench simbench-gate scalebench scalebench-smoke validate serve wiresmoke

check: fmt-check build vet test bench-smoke perfbench-selftest fuzz-smoke scalebench-smoke wiresmoke

# Fails when gofmt would reformat any file; `gofmt -l .` lists them.
fmt-check:
	test -z "$$(gofmt -l .)"

build:
	go build ./...

vet:
	go vet ./...

test:
	go test -race ./...

# Floating-point guard: amd64 math.Exp takes an FMA path when the CPU has
# one. With FMA switched off every result must still pass, goldens included,
# so a trace cannot come to depend on the host's FMA support. -count=1 so
# no cached result of a run with FMA on can stand in for this one.
test-nofma:
	GODEBUG=cpu.fma=off go test -count=1 ./internal/...

# One iteration of every benchmark — correctness of the harness, not timing.
bench-smoke:
	go test -run '^$$' -bench . -benchtime 1x ./...

# The repository benchmark (perfbench/, see BENCHMARK.json) is a module of
# its own, so `go test ./...` never builds it. Its self-test runs every
# workload briefly, untraced and traced, and checks the result lines
# (about 30 s).
perfbench-selftest:
	cd perfbench && go test .

# 30 seconds of live fuzzing per target. The checked-in seed corpora under
# testdata/fuzz/ always run as part of `make test`; this adds fresh inputs.
fuzz-smoke:
	go test -run '^$$' -fuzz '^FuzzFaultConfig$$' -fuzztime 30s ./internal/storage/reqpath
	go test -run '^$$' -fuzz '^FuzzRetryClassify$$' -fuzztime 30s ./internal/azure
	go test -run '^$$' -fuzz '^FuzzGeoRoute$$' -fuzztime 30s ./internal/geo
	go test -run '^$$' -fuzz '^FuzzFabricChurn$$' -fuzztime 30s ./internal/netsim
	go test -run '^$$' -fuzz '^FuzzParseOp$$' -fuzztime 30s ./internal/wire
	go test -run '^$$' -fuzz '^FuzzParseArrivals$$' -fuzztime 30s ./internal/wire

# Full timed microbenchmarks (internal/netsim flow churn + sweeps).
bench:
	go test -run '^$$' -bench . -benchmem ./internal/netsim

# Refresh the checked-in performance baselines.
netbench:
	go run ./cmd/azbench -run netbench

storagebench:
	go run ./cmd/azbench -run storagebench

schedbench:
	go run ./cmd/azbench -run schedbench

simbench:
	go run ./cmd/azbench -run simbench

# Benchstat-style regression step: rerun the kernel churn suites (min of
# five) and fail on >10% slowdown against the checked-in BENCH_sim.json.
simbench-gate:
	go run ./cmd/azbench -run simbench -gate BENCH_sim.json

# Full client-scale ladder (1k/10k/100k/1M clients) refreshing the checked-in
# BENCH_scale.json; asserts flat/goroutine trace equivalence, the 10x
# per-client footprint gap, and an allocation-free flat event path.
scalebench:
	go run ./cmd/azbench -run scalebench

# Reduced ladder (1k/10k) with the same assertions at smoke thresholds: flat
# vs goroutine traces must match exactly, flat steady state must not
# allocate, and the 10k rung must respect the RSS budget. Writes its
# artifact to /tmp so the checked-in full-scale capture stays untouched.
scalebench-smoke:
	go run ./cmd/azbench -run scalebench -quick -benchout /tmp/BENCH_scale_smoke.json

# Serve the simulated cloud over the 2009 Azure REST surface on
# localhost:10000 (freerun clock; see cmd/azserve for paced mode and
# arrival recording).
serve:
	go run ./cmd/azserve

# Boot the real azserve binary and drive a curl smoke session: blob round
# trip, fault-injected error envelope, management LRO, arrival recording.
wiresmoke:
	sh scripts/wiresmoke.sh

# Anchor self-check at validation scale; -workers 4 exercises the parallel
# scheduler path against the same tolerances.
validate:
	go run ./cmd/azvalidate
	go run ./cmd/azvalidate -workers 4
