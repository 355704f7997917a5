package core

import (
	"bytes"
	"fmt"
	"testing"

	"azureobs/internal/sim"
)

// domainRuns executes the domain-capable golden configs at the given
// (workers, domains) point. The three runs cover the three sharding shapes:
// fig1 proc clients, fig1 flat clients (seed7 exercises actors under the
// windowed coordinator), and fig2's driver-process phase sequencing.
func domainRuns(workers, domains int) map[string]Result {
	w := func(p Proto) Proto {
		p.Workers = workers
		p.Domains = domains
		return p
	}
	return map[string]Result{
		"fig1/seed42": RunFig1(Fig1Config{
			Proto: w(Proto{Seed: 42, Clients: []int{1, 8, 32, 64, 128, 192}, Runs: 1}), BlobMB: 32}),
		"fig1/seed7": RunFig1(Fig1Config{
			Proto: w(Proto{Seed: 7, Clients: []int{1, 64, 192}, Runs: 2}), BlobMB: 16}),
		"fig2/seed42": RunFig2(Fig2Config{
			Proto: w(Proto{Seed: 42, Clients: []int{1, 8, 64}}), EntitySize: 4096,
			Inserts: 40, Queries: 40, Updates: 20}),
	}
}

func domainEncodings(workers, domains int) map[string][]byte {
	out := map[string][]byte{}
	for k, r := range domainRuns(workers, domains) {
		g := newGoldenHasher()
		encodeResult(g, r)
		out[k] = append([]byte(nil), g.bytes()...)
	}
	return out
}

// TestDomainEquivalence is the tentpole acceptance test: fig1 and fig2
// cells sharded over domains ∈ {1, 2, 4}, across scheduler widths ∈ {1, 4},
// produce byte-identical result encodings — and identical anchors — to the
// legacy single-engine path, and the non-flat runs still reproduce the
// recorded golden trace hashes exactly.
func TestDomainEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("domain equivalence sweeps are slow")
	}
	baseline := domainEncodings(1, 0) // legacy path, serial pool
	baseAnchors := map[string][]Anchor{}
	for k, r := range domainRuns(1, 0) {
		baseAnchors[k] = r.Anchors()
	}

	for _, workers := range []int{1, 4} {
		for _, domains := range []int{1, 2, 4} {
			got := domainEncodings(workers, domains)
			for k, enc := range got {
				if !bytes.Equal(enc, baseline[k]) {
					t.Errorf("workers=%d domains=%d: %s encoding differs from legacy path",
						workers, domains, k)
				}
			}
			for k, r := range domainRuns(workers, domains) {
				a, b := r.Anchors(), baseAnchors[k]
				if fmt.Sprint(a) != fmt.Sprint(b) {
					t.Errorf("workers=%d domains=%d: %s anchors differ:\n%v\n%v",
						workers, domains, k, a, b)
				}
			}
		}
	}

	// The sweep's seed42 runs use the exact golden configs, so their hashes
	// must equal the recorded seed-solver captures — the domain refactor
	// cannot have moved the baseline it is being compared against.
	for _, key := range []string{"fig1/seed42", "fig2/seed42"} {
		g := newGoldenHasher()
		g.write(baseline[key])
		if got, want := g.sum(), goldenTraces[key]; got != want {
			t.Errorf("legacy %s = %#016x, want recorded golden %#016x", key, got, want)
		}
	}
}

// TestDomainStatsAccumulates checks the Proto.DomainStats sink: a domain run
// reports one group per batch with coordinator timing recorded.
func TestDomainStatsAccumulates(t *testing.T) {
	if testing.Short() {
		t.Skip("domain stats run is slow")
	}
	var acc sim.DomainAccum
	p := Proto{Seed: 42, Clients: []int{1, 8}, Runs: 1, Workers: 1, Domains: 2}
	p.DomainStats = &acc
	RunFig1(Fig1Config{Proto: p, BlobMB: 8})
	// Two levels × one run × two directions = 4 units → 2 groups of width 2.
	if acc.Groups != 2 || acc.Width != 2 {
		t.Fatalf("accumulated %d groups width %d, want 2 groups width 2", acc.Groups, acc.Width)
	}
	if acc.Busy <= 0 || acc.Wall <= 0 || acc.Rounds < acc.Groups {
		t.Fatalf("coordinator accounting empty: busy=%v wall=%v rounds=%d",
			acc.Busy, acc.Wall, acc.Rounds)
	}
	if u := acc.Utilization(); u <= 0 || u > 1.0001 {
		t.Fatalf("utilization %v out of range", u)
	}
}
