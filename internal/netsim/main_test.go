package netsim

import (
	"os"
	"testing"

	"azureobs/internal/sim"
)

// TestMain switches every engine the suite constructs into fail-fast
// invariant checking, so each simulation run in the package doubles as an
// invariant test (event-time monotonicity, resource levels, queue
// conservation, VM state transitions, and every netsim solve keeping rates
// non-negative and within link capacities).
func TestMain(m *testing.M) {
	sim.SetDefaultInvariants(true)
	os.Exit(m.Run())
}
