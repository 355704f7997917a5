package reqpath

import (
	"math"
	"testing"

	"azureobs/internal/sim"
	"azureobs/internal/simrand"
	"azureobs/internal/storage/storerr"
)

// FuzzFaultConfig drives a pipeline built from an arbitrary — including
// non-finite — fault mix and asserts the two totality properties the storage
// services rely on: Clamp always lands every probability in [0, 1], and a
// pipeline built from any raw mix never panics, failing only with typed
// storage errors.
func FuzzFaultConfig(f *testing.F) {
	f.Add(0.0, 0.0, 0.0, 0.0, uint64(1))
	f.Add(1.0, 1.0, 1.0, 1.0, uint64(2))
	f.Add(0.5, 0.25, 0.125, 0.0625, uint64(3))
	f.Add(-1.0, 2.0, math.Inf(1), math.NaN(), uint64(4))
	f.Add(1e308, -1e308, 1e-300, -0.0, uint64(5))
	f.Fuzz(func(t *testing.T, conn, busy, read, corrupt float64, seed uint64) {
		raw := FaultConfig{
			ConnFailProb:    conn,
			ServerBusyProb:  busy,
			ReadFailProb:    read,
			CorruptReadProb: corrupt,
		}
		cl := raw.Clamp()
		for _, p := range []float64{cl.ConnFailProb, cl.ServerBusyProb, cl.ReadFailProb, cl.CorruptReadProb} {
			if math.IsNaN(p) || p < 0 || p > 1 {
				t.Fatalf("Clamp(%+v) left probability %v outside [0,1]", raw, p)
			}
		}

		// The raw (unclamped) mix goes straight into New: construction clamps.
		pl := New(simrand.New(seed), Config{Service: "fuzz", Faults: raw})
		eng := sim.NewEngine()
		eng.Spawn("req", func(p *sim.Proc) {
			for i := 0; i < 4; i++ {
				err := do(p, pl, "fuzz.op", instant(func(c *CtxFlat) error {
					if err := c.ReadFault(); err != nil {
						return err
					}
					return c.CorruptRead("fuzzed corrupt read")
				}))
				if err != nil && storerr.CodeOf(err) == "" {
					t.Errorf("untyped pipeline error: %v", err)
				}
			}
		})
		eng.Run()
	})
}
