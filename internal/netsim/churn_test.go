package netsim

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"azureobs/internal/sim"
)

// blobUploadProfile is blobsvc's default aggregate ingest curve (Fig. 1
// upload calibration), copied here because blobsvc imports netsim.
var blobUploadProfile = []ProfilePoint{
	{N: 1, Capacity: 30 * MBps},
	{N: 8, Capacity: 52 * MBps},
	{N: 16, Capacity: 80 * MBps},
	{N: 64, Capacity: 80 * MBps},
	{N: 128, Capacity: 115 * MBps},
	{N: 192, Capacity: 125 * MBps},
}

// Shape of the blob service under mixed load that the component churns
// run: 32 hot-blob groups of 30 downloads, each crossing its blob's egress
// trunk and a private session link, beside 1,000 uploads that cross a
// private session link and one shared ingress trunk — 33 components.
const (
	churnGroups    = 32
	churnPerGroup  = 30
	churnUploaders = 1000
)

// timedChurn is the clock-advancing form of that shape: every session is a
// closed-loop actor that starts its next transfer the instant the last one
// completes, with blobsvc's upload profile on the ingress trunk. Uploads
// move 0.5-2 MB and downloads 32-128 MB, sized so that about as many
// uploads as downloads complete. Each completion settles every flow
// over real elapsed time, re-solves a component, and moves completion
// events, so the whole reallocation path does work.
type timedChurn struct {
	eng   *sim.Engine
	fab   *Fabric
	slots []churnSlot

	// onDone, when set, sees each completion: the slot, and the rate the
	// finished flow held.
	onDone func(slot int, rate Bandwidth)
}

type churnSlot struct {
	a    sim.Actor
	c    *timedChurn
	id   int
	n    int // transfers started
	size int64
	path [2]*Link
	fl   *Flow

	onStart, onDone func()
}

func newTimedChurn() *timedChurn {
	eng := sim.NewEngine()
	fab := NewFabric(eng)
	c := &timedChurn{eng: eng, fab: fab}
	ingress := fab.NewLink("blob-ingress", 125*MBps)
	ingress.SetCapacityFn(CapacityProfile(blobUploadProfile...))
	egress := make([]*Link, churnGroups)
	for g := range egress {
		egress[g] = fab.NewLink("blob-egress", 400*MBps)
	}
	downs := churnGroups * churnPerGroup
	c.slots = make([]churnSlot, downs+churnUploaders)
	for i := range c.slots {
		s := &c.slots[i]
		s.c, s.id = c, i
		if i < downs {
			s.size = 32 * MB
			s.path = [2]*Link{egress[i%churnGroups], fab.NewLink("client-down", 13*MBps)}
		} else {
			s.size = MB / 2
			s.path = [2]*Link{fab.NewLink("client-up", 6.5*MBps), ingress}
		}
		s.onStart, s.onDone = s.start, s.done
		s.a.Bind(eng, "session")
		s.a.Go(s.onStart)
	}
	return c
}

func (s *churnSlot) start() {
	s.n++
	size := s.size * int64(1+(s.id+s.n)%4)
	s.fl = s.c.fab.TransferFlat(&s.a, size, s.onDone, s.path[:]...)
}

func (s *churnSlot) done() {
	if s.c.onDone != nil {
		s.c.onDone(s.id, s.fl.Rate())
	}
	s.start()
}

// TestTimedChurnHash pins the timed churn bit for bit: every completion's
// slot, instant and final rate, plus every 200th completion the rate and
// remaining bytes of each flow in flight, in fabric order. A solver change
// that moves any of them, however slightly, changes the hash.
func TestTimedChurnHash(t *testing.T) {
	const completions = 2000
	c := newTimedChurn()
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	n, ups := 0, 0
	c.onDone = func(slot int, rate Bandwidth) {
		n++
		if slot >= churnGroups*churnPerGroup {
			ups++
		}
		put(uint64(slot))
		put(uint64(c.eng.Now()))
		put(math.Float64bits(float64(rate)))
		if n%200 == 0 {
			for _, fl := range c.fab.flows {
				put(math.Float64bits(float64(fl.Rate())))
				put(math.Float64bits(fl.Remaining()))
			}
		}
	}
	for n < completions {
		if !c.eng.Step() {
			t.Fatal("timed churn drained")
		}
	}
	t.Logf("%d completions (%d uploads) by %v, %d flows in flight", n, ups, c.eng.Now(), c.fab.ActiveFlows())
	if got, want := h.Sum64(), uint64(0x47e57afc53a05320); got != want {
		t.Fatalf("timed churn hash %016x, want %016x", got, want)
	}
}
