# Pre-merge gate: `make check` must pass before any merge. It checks that
# gofmt would change nothing, builds everything, vets, runs the full test
# suite under the race detector, smoke-runs every benchmark once so the
# bench harness can never rot, self-tests the perfbench module, gives each
# fuzz target a short live-fuzz burst beyond its seed corpus, and holds the
# client scale ladder to its memory bounds outside the race detector.
.PHONY: check fmt-check build vet test test-nofma bench-smoke perfbench-selftest fuzz-smoke scale-smoke bench validate serve wiresmoke

check: fmt-check build vet test bench-smoke perfbench-selftest fuzz-smoke scale-smoke wiresmoke

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

# The client scale ladder (1k/10k clients, internal/azure/scale_test.go)
# without the race detector, so its memory bounds run: flat and goroutine
# traces must match exactly, a goroutine client must cost at least 5x a flat
# one at 10k, the flat steady state must not allocate, and peak RSS must
# stay within budget. `make test` runs it too, under -race, where only the
# trace and accounting checks hold.
scale-smoke:
	go test -count=1 -run '^TestScaleLadder$$' ./internal/azure

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
