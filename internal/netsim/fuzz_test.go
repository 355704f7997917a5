package netsim

import (
	"fmt"
	"testing"
	"time"

	"azureobs/internal/sim"
)

// Topology of FuzzFabricChurn: up to churnMaxGroups disjoint groups of
// churnGroupLinks links each, plus up to churnMaxBridges links that any flow
// may add to its path to couple groups into one component.
const (
	churnMaxGroups  = 4
	churnGroupLinks = 3
	churnMaxBridges = 2
	churnMaxOps     = 128
)

// FuzzFabricChurn drives a fabric through an arbitrary sequence of flow
// starts, abandons, clock advances and capacity changes. After every
// reallocation — each op, and each completion while the clock advances — it
// requires the incremental solver to match the from-scratch oracle bit for
// bit, every flow to hold exactly the bytes a reference that settles all
// flows at every reallocation computes, the component walk to agree with an
// independent union-find, and every link's membership list to hold exactly
// its active flows.
//
// The first byte picks the topology: bits 0–1 the group count, bits 2–3
// the bridge count, bit 4 a concurrency-dependent capacity curve on each
// group's first link. Then each 3-byte op (kind, a, b) is one event:
//
//	kind%4 == 0  start a flow in group a%groups of (a/4%16+1) MB over the
//	             group links chosen by mask b&7, plus bridge b>>4 if b&8
//	kind%4 == 1  abandon live flow a%live
//	kind%4 == 2  run the clock a×10 ms forward (flows complete)
//	kind%4 == 3  set link a%links to (b%50+1) MB/s, idle links included
func FuzzFabricChurn(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		groups := int(data[0]%churnMaxGroups) + 1
		bridges := int(data[0]>>2) % (churnMaxBridges + 1)
		eng := sim.NewEngine()
		fab := NewFabric(eng)
		var links []*Link
		for g := 0; g < groups; g++ {
			for i := 0; i < churnGroupLinks; i++ {
				l := fab.NewLink("group", Bandwidth(5+10*i+g)*MBps)
				if i == 0 && data[0]&0x10 != 0 {
					l.SetCapacityFn(CapacityProfile(
						ProfilePoint{N: 1, Capacity: 8 * MBps},
						ProfilePoint{N: 4, Capacity: 20 * MBps},
						ProfilePoint{N: 16, Capacity: 30 * MBps},
					))
				}
				links = append(links, l)
			}
		}
		for b := 0; b < bridges; b++ {
			links = append(links, fab.NewLink("bridge", Bandwidth(12+b)*MBps))
		}

		ref := &settleModel{flows: map[*Flow]*refFlow{}}
		var live []*Flow
		check := func(op int) {
			t.Helper()
			if msg := ref.check(fab); msg != "" {
				t.Fatalf("op %d at %v: %s", op, eng.Now(), msg)
			}
			if msg := assertMatchesScratch(fab, ref.last); msg != "" {
				t.Fatalf("op %d at %v: %s", op, eng.Now(), msg)
			}
			if got, want := fab.Components(), scratchComponents(fab); got != want {
				t.Fatalf("op %d: %d components, union-find says %d", op, got, want)
			}
			if msg := checkMembership(fab, links); msg != "" {
				t.Fatalf("op %d: %s", op, msg)
			}
		}
		ops := data[1:]
		for i := 0; i+2 < len(ops) && i < 3*churnMaxOps; i += 3 {
			kind, a, b := ops[i], ops[i+1], ops[i+2]
			switch kind % 4 {
			case 0:
				g := int(a) % groups
				var path []*Link
				for j := 0; j < churnGroupLinks; j++ {
					if b&(1<<j) != 0 {
						path = append(path, links[g*churnGroupLinks+j])
					}
				}
				if len(path) == 0 {
					path = append(path, links[g*churnGroupLinks])
				}
				if b&8 != 0 && bridges > 0 {
					path = append(path, links[groups*churnGroupLinks+int(b>>4)%bridges])
				}
				size := int64(a/4%16+1) * MB
				ref.reallocate(eng.Now())
				fl := fab.StartFlow(size, path...)
				ref.flows[fl] = &refFlow{remaining: float64(size), updated: eng.Now()}
				live = append(live, fl)
			case 1:
				if len(live) == 0 {
					continue
				}
				j := int(a) % len(live)
				ref.reallocate(eng.Now())
				fab.Abandon(live[j])
				if got, want := live[j].Remaining(), ref.flows[live[j]].remaining; got != want {
					t.Fatalf("op %d: abandoned flow reports %v bytes left, reference %v", i/3, got, want)
				}
				live = append(live[:j], live[j+1:]...)
			case 2:
				// Step completion by completion, so every reallocation the
				// clock passes through is checked.
				deadline := eng.Now() + time.Duration(a)*10*time.Millisecond
				for {
					next, ok := nextCompletion(fab)
					if !ok || next > deadline {
						break
					}
					ref.reallocate(next)
					eng.Step()
					check(i / 3)
				}
				eng.RunUntil(deadline)
				n := 0
				for _, fl := range live {
					if !fl.completed {
						live[n] = fl
						n++
					}
				}
				live = live[:n]
				continue
			case 3:
				l := links[int(a)%len(links)]
				capacity := Bandwidth(b%50+1) * MBps
				if capacity != l.Capacity() {
					ref.reallocate(eng.Now())
				}
				fab.SetLinkCapacity(l, capacity)
			}
			check(i / 3)
		}
		eng.Run()
		if fab.ActiveFlows() != 0 {
			t.Fatalf("%d flows left after the clock drained", fab.ActiveFlows())
		}
	})
}

// settleModel is the reference for when bytes are credited: before every
// reallocation, each active flow is settled at the rate the previous
// allocation gave it, over the time since it was last settled. The fabric
// must agree with it bit for bit.
type settleModel struct {
	flows map[*Flow]*refFlow
	last  time.Duration // instant of the last reallocation
}

type refFlow struct {
	remaining, rate float64
	updated         time.Duration
}

// reallocate settles every reference flow at now, just before the fabric
// reallocates there.
func (m *settleModel) reallocate(now time.Duration) {
	m.last = now
	for _, r := range m.flows {
		dt := (now - r.updated).Seconds()
		if dt > 0 && r.rate > 0 {
			r.remaining -= r.rate * dt
			if r.remaining < 0 {
				r.remaining = 0
			}
		}
		r.updated = now
	}
}

// check compares every active flow's settled bytes with the reference,
// forgets finished flows, and records the new allocation's rates.
func (m *settleModel) check(f *Fabric) string {
	next := make(map[*Flow]*refFlow, len(f.flows))
	for _, fl := range f.flows {
		r := m.flows[fl]
		if r == nil {
			return "an active flow the reference never saw start"
		}
		if fl.st().remaining != r.remaining || f.settledAt != r.updated {
			return fmt.Sprintf("flow settled to %v bytes at %v, reference %v at %v",
				fl.st().remaining, f.settledAt, r.remaining, r.updated)
		}
		r.rate = fl.st().rate
		next[fl] = r
	}
	m.flows = next
	return ""
}

// nextCompletion is the earliest predicted completion among active flows.
func nextCompletion(f *Fabric) (time.Duration, bool) {
	var next time.Duration
	ok := false
	for _, fl := range f.flows {
		if at := fl.st().at; at >= 0 && (!ok || at < next) {
			next, ok = at, true
		}
	}
	return next, ok
}

// scratchComponents counts the components of the active flow graph with a
// map-based union-find over the flows' paths, independently of the
// fabric's membership walk.
func scratchComponents(f *Fabric) int {
	parent := map[*Link]*Link{}
	find := func(l *Link) *Link {
		for parent[l] != l {
			l = parent[l]
		}
		return l
	}
	for _, fl := range f.flows {
		for _, l := range fl.path {
			if _, ok := parent[l]; !ok {
				parent[l] = l
			}
		}
		root := find(fl.path[0])
		for _, l := range fl.path[1:] {
			if r := find(l); r != root {
				parent[r] = root
			}
		}
	}
	n := 0
	for l, p := range parent {
		if l == p {
			n++
		}
	}
	return n
}

// checkMembership verifies that each link's flow list holds exactly the
// active flows whose path crosses it, once each, that every flow knows its
// position in each list, and that its hops carry the capacity of exactly
// the links it crosses alone.
func checkMembership(f *Fabric, links []*Link) string {
	want := map[*Link]int{}
	for _, fl := range f.flows {
		for _, l := range fl.path {
			want[l]++
		}
	}
	for _, l := range links {
		for p, i := range l.flows {
			if int(i) >= len(f.flows) || f.flows[i].index != int(i) {
				return "a link lists a finished flow"
			}
			h := f.hopOf(i, l)
			if h.pos != int32(p) {
				return "a flow's position in a link's list is stale"
			}
			cap1 := 0.0
			if len(l.flows) == 1 {
				cap1 = float64(l.effectiveCap(1))
			}
			if h.cap1 != cap1 {
				return "a flow's hop disagrees with its link"
			}
		}
		if len(l.flows) != want[l] {
			return "a link's flow list disagrees with the active flows"
		}
	}
	return ""
}
