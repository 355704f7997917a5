package core

import (
	"bytes"
	"fmt"
	"os"
	"testing"
	"time"

	"azureobs/internal/sim"
)

// geoGoldenConfig is the fixed reduced-scale fig8geo run the equivalence
// test hashes: small enough to sweep six (workers, domains) points, big
// enough that every scenario quantity (lag quantiles, staleness, RTO/RPO,
// flaps) is nonzero where it should be.
func geoGoldenConfig(workers, domains int) Fig8GeoConfig {
	p := Proto{Seed: 42, Workers: workers, Domains: domains}
	return Fig8GeoConfig{
		Proto:            p,
		Regions:          4,
		ClientsPerRegion: 24,
		HotNames:         8,
		BlobBytes:        256 << 10,
		MeanThink:        2 * time.Second,
		Horizon:          60 * time.Second,
		Window:           20 * time.Millisecond,
	}
}

func geoEncoding(workers, domains int) ([]byte, *Fig8GeoResult) {
	r := RunFig8Geo(geoGoldenConfig(workers, domains))
	g := newGoldenHasher()
	encodeResult(g, r)
	return append([]byte(nil), g.bytes()...), r
}

// geoGoldenTrace pins the serial domains=1 capture; recapture with
//
//	GOLDEN_PRINT=1 go test ./internal/core -run TestGeoEquivalence -v
const geoGoldenTrace = 0xf839a09537813d7d

// TestGeoEquivalence is the cross-DC determinism pin: fig8geo at
// domains ∈ {1, 2, 4} ×
// workers ∈ {1, 4} produces byte-identical result encodings and identical
// anchors, and the serial run reproduces the recorded golden hash.
func TestGeoEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("geo equivalence sweeps are slow")
	}
	baseline, baseRes := geoEncoding(1, 1)
	baseAnchors := fmt.Sprint(baseRes.Anchors())

	g := newGoldenHasher()
	g.write(baseline)
	if os.Getenv("GOLDEN_PRINT") != "" {
		fmt.Printf("\tgeoGoldenTrace = %#016x\n", g.sum())
	}
	if got := g.sum(); got != uint64(geoGoldenTrace) {
		t.Errorf("fig8geo serial trace = %#016x, want recorded golden %#016x", got, uint64(geoGoldenTrace))
	}

	for _, workers := range []int{1, 4} {
		for _, domains := range []int{1, 2, 4} {
			if workers == 1 && domains == 1 {
				continue
			}
			enc, res := geoEncoding(workers, domains)
			if !bytes.Equal(enc, baseline) {
				t.Errorf("workers=%d domains=%d: fig8geo encoding differs from serial baseline",
					workers, domains)
			}
			if a := fmt.Sprint(res.Anchors()); a != baseAnchors {
				t.Errorf("workers=%d domains=%d: anchors differ:\n%v\n%v",
					workers, domains, a, baseAnchors)
			}
		}
	}

	// The scenario quantities the anchors report must actually be live in
	// this reduced world, or the equivalence sweep pins vacuous zeros.
	if baseRes.Lag.LagP50Sec <= 0 || baseRes.Lag.StaleReads == 0 {
		t.Errorf("lag scenario inert: %+v", baseRes.Lag)
	}
	if baseRes.RYW.StaleReads != 0 || baseRes.RYW.RemoteReads == 0 {
		t.Errorf("read-your-writes scenario inert: %+v", baseRes.RYW)
	}
	if baseRes.Kill.RTOSec <= 0 || baseRes.Kill.KilledFlaps != 2 {
		t.Errorf("kill scenario inert: %+v", baseRes.Kill)
	}
}

// TestDomainStatsAccumulates checks the Proto.DomainStats sink: a fig8geo
// run reports one group per scenario world, at the requested width, with
// coordinator timing and cross-region mail recorded.
func TestDomainStatsAccumulates(t *testing.T) {
	var acc sim.DomainAccum
	cfg := geoGoldenConfig(1, 2)
	cfg.ClientsPerRegion, cfg.Horizon = 8, 20*time.Second
	cfg.DomainStats = &acc
	RunFig8Geo(cfg)
	if acc.Groups != 3 || acc.Width != 2 || acc.Clamped != 0 {
		t.Fatalf("accumulated %d groups width %d (%d clamped), want 3 groups width 2",
			acc.Groups, acc.Width, acc.Clamped)
	}
	if acc.Busy <= 0 || acc.Wall <= 0 || acc.Rounds < acc.Groups || acc.Mail == 0 {
		t.Fatalf("coordinator accounting empty: busy=%v wall=%v rounds=%d mail=%d",
			acc.Busy, acc.Wall, acc.Rounds, acc.Mail)
	}
	if u := acc.Utilization(); u <= 0 || u > 1.0001 {
		t.Fatalf("utilization %v out of range", u)
	}
}
