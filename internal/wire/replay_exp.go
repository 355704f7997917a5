package wire

import (
	_ "embed"
	"strings"

	"azureobs/internal/azure"
	"azureobs/internal/core"
)

// arrivalsLog is the exemplar recorded session the wirereplay experiment
// replays: a pass over the full REST surface captured in the WriteTo format.
//
//go:embed testdata/arrivals.log
var arrivalsLog string

// replaySeed pins the replay cloud. The experiment deliberately ignores
// Proto.Seed: the anchor is bit-identity of one recorded session, not a
// statistic over seeds, and the pinned hash below belongs to this seed.
const replaySeed = 1009

// pinnedTraceHash is the FNV-64a of the exemplar session's trace. Any
// change to the kernel's event ordering, the storage services' virtual
// timing, or the facade's routing that alters a single completion instant
// or status flips this hash — it is the wire-level equivalent of
// internal/core's trace goldens.
const pinnedTraceHash = 0x141561a31017e6f0

type replayResult struct {
	anchors []core.Anchor
}

func (r replayResult) Anchors() []core.Anchor { return r.anchors }

type replayExperiment struct{}

func (replayExperiment) Name() string { return "wirereplay" }

func (replayExperiment) Run(p core.Proto) core.Result {
	arrivals, err := ParseArrivals(strings.NewReader(arrivalsLog))
	if err != nil {
		panic("wire: embedded arrivals.log is malformed: " + err.Error())
	}
	trace := Replay(azure.Config{Seed: replaySeed}, arrivals)
	match := 0.0
	if TraceHash(trace) == pinnedTraceHash {
		match = 1
	}
	return replayResult{anchors: []core.Anchor{
		{Name: "wire replay requests served", Unit: "requests",
			Paper: float64(len(arrivals)), Measured: float64(len(trace))},
		{Name: "wire replay trace hash match", Unit: "bool",
			Paper: 1, Measured: match},
	}}
}

func init() { core.Register(replayExperiment{}) }
