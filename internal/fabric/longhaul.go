package fabric

import (
	"fmt"
	"time"

	"azureobs/internal/netsim"
)

// LongHaul is one datacenter's wide-area side: a capacity-shared trunk link
// toward each peer region plus a fixed one-way propagation delay per pair.
// Trunks live on the owning datacenter's netsim fabric, so cross-region
// transfers contend with that region's own egress traffic while the
// solver's component-local reallocation keeps each region's intra-DC churn
// incremental — a remote region's churn never touches this fabric at all.
// Propagation is not modeled inside netsim (links share capacity, not
// delay); the geo transport layers the one-way delay on top when it
// schedules the far-end delivery.
type LongHaul struct {
	self   int
	trunks []*netsim.Link
	oneWay []time.Duration
}

// NewLongHaul attaches region self's wide-area trunks to its datacenter.
// oneWay[j] is the propagation delay toward region j (oneWay[self] is the
// in-region loopback delay, used by local health probes); every pair gets a
// dedicated trunk of capacity trunkBW on dc's fabric.
func NewLongHaul(dc *Datacenter, self int, oneWay []time.Duration, trunkBW netsim.Bandwidth) *LongHaul {
	lh := &LongHaul{
		self:   self,
		trunks: make([]*netsim.Link, len(oneWay)),
		oneWay: append([]time.Duration(nil), oneWay...),
	}
	for p := range oneWay {
		if p == self {
			continue
		}
		lh.trunks[p] = dc.Net().NewLink(fmt.Sprintf("longhaul%d-%d", self, p), trunkBW)
	}
	return lh
}

// Trunk returns the capacity-shared link carrying traffic toward region dst.
func (lh *LongHaul) Trunk(dst int) *netsim.Link {
	if lh.trunks[dst] == nil {
		panic(fmt.Sprintf("fabric: region %d has no long-haul trunk to itself", dst))
	}
	return lh.trunks[dst]
}

// OneWay returns the propagation delay toward region dst.
func (lh *LongHaul) OneWay(dst int) time.Duration { return lh.oneWay[dst] }

// Peers returns the number of regions this long-haul side knows about
// (including self).
func (lh *LongHaul) Peers() int { return len(lh.oneWay) }
