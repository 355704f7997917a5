# Pre-merge gate: `make check` must pass before any merge. It builds
# everything, vets, runs the full test suite under the race detector,
# smoke-runs every benchmark once so the bench harness can never rot,
# self-tests the perfbench module, and gives each fuzz target a short
# live-fuzz burst beyond its seed corpus.
.PHONY: check build vet test bench-smoke perfbench-selftest fuzz-smoke bench netbench storagebench schedbench simbench simbench-gate scalebench scalebench-smoke domainbench domainbench-smoke domainbench-gate geobench geobench-smoke geobench-gate campaignbench campaignbench-smoke campaignbench-gate validate serve wiresmoke

check: build vet test bench-smoke perfbench-selftest fuzz-smoke scalebench-smoke domainbench-smoke geobench-smoke campaignbench-smoke wiresmoke

build:
	go build ./...

vet:
	go vet ./...

test:
	go test -race ./...

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
	go test -race -run '^$$' -fuzz '^FuzzDomainMailOrder$$' -fuzztime 30s ./internal/sim
	go test -run '^$$' -fuzz '^FuzzFabricChurn$$' -fuzztime 30s ./internal/netsim
	go test -run '^$$' -fuzz '^FuzzParseOp$$' -fuzztime 30s ./internal/wire

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

# Domain-sharded kernel ladder (domains 1/2/4/8 over the fig1 cell, fig2
# sweep, and a 100k-client scale cell) refreshing the checked-in
# BENCH_domains.json; every rung — including the legacy single-engine rows
# and the windowed coordinator row — must produce the identical trace hash.
domainbench:
	go run ./cmd/azbench -run domainbench

# Reduced ladder (domains 1/2, 10k scale cell) with the same cross-domain
# trace-equality assertions. Writes its artifact to /tmp so the checked-in
# full-scale capture stays untouched.
domainbench-smoke:
	go run ./cmd/azbench -run domainbench -quick -benchout /tmp/BENCH_domains_smoke.json

# Regression step in the simbench-gate convention: rerun the fig1 cell at
# domains=1 (min of five) and fail on >10% slowdown — or any trace drift —
# against the checked-in BENCH_domains.json.
domainbench-gate:
	go run ./cmd/azbench -run domainbench -gate BENCH_domains.json

# Multi-region geo ladder (domains 1/2/4 over the four-region fig8geo cell
# and a 1k-client geo-pop world) refreshing the checked-in BENCH_geo.json;
# every rung must produce the identical trace hash.
geobench:
	go run ./cmd/azbench -run geobench

# Reduced ladder (domains 1/2) with the same cross-domain trace-equality
# assertions. Writes its artifact to /tmp so the checked-in full-scale
# capture stays untouched.
geobench-smoke:
	go run ./cmd/azbench -run geobench -quick -benchout /tmp/BENCH_geo_smoke.json

# Regression step in the domainbench-gate convention: rerun the fig8geo cell
# at domains=1 (min of five) and fail on >10% slowdown — or any trace drift —
# against the checked-in BENCH_geo.json.
geobench-gate:
	go run ./cmd/azbench -run geobench -gate BENCH_geo.json

# Domain-sharded ModisAzure campaign ladder (domains 1/2/4/8 over a 21-day
# quick campaign on eight workload shards) refreshing the checked-in
# BENCH_campaign.json; every rung must produce the identical campaign
# fingerprint.
campaignbench:
	go run ./cmd/azbench -run campaignbench

# Reduced ladder (domains 1/2, 7-day campaign) with the same cross-domain
# fingerprint-equality assertions. Writes its artifact to /tmp so the
# checked-in full-scale capture stays untouched.
campaignbench-smoke:
	go run ./cmd/azbench -run campaignbench -quick -benchout /tmp/BENCH_campaign_smoke.json

# Regression step in the domainbench-gate convention: rerun the campaign at
# domains=1 (min of five) and fail on >10% slowdown — or any fingerprint
# drift — against the checked-in BENCH_campaign.json.
campaignbench-gate:
	go run ./cmd/azbench -run campaignbench -gate BENCH_campaign.json

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
