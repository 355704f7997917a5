package core

import (
	"bytes"
	"fmt"
	"os"
	"testing"
	"time"
)

// geoGoldenConfig is the fixed reduced-scale fig8geo run the equivalence
// test hashes: small enough to run at two scheduler widths, big enough that
// every scenario quantity (lag quantiles, staleness, RTO/RPO, flaps) is
// nonzero where it should be.
func geoGoldenConfig(workers int) Fig8GeoConfig {
	p := Proto{Seed: 42, Workers: workers}
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

func geoEncoding(workers int) ([]byte, *Fig8GeoResult) {
	r := RunFig8Geo(geoGoldenConfig(workers))
	g := newGoldenHasher()
	encodeResult(g, r)
	return append([]byte(nil), g.bytes()...), r
}

// geoGoldenTrace pins the serial capture; recapture with
//
//	GOLDEN_PRINT=1 go test ./internal/core -run TestGeoEquivalence -v
const geoGoldenTrace = 0xf839a09537813d7d

// TestGeoEquivalence is the cross-DC determinism pin: fig8geo at
// workers ∈ {1, 4} produces byte-identical result encodings and identical
// anchors, and the serial run reproduces the recorded golden hash.
func TestGeoEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("geo equivalence sweeps are slow")
	}
	baseline, baseRes := geoEncoding(1)
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
		enc, res := geoEncoding(workers)
		if !bytes.Equal(enc, baseline) {
			t.Errorf("workers=%d: fig8geo encoding differs from serial baseline", workers)
		}
		if a := fmt.Sprint(res.Anchors()); a != baseAnchors {
			t.Errorf("workers=%d: anchors differ:\n%v\n%v", workers, a, baseAnchors)
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
