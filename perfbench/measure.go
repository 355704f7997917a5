package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// meter receives op completions during a round's measured section. It
// splits the section into windows of a fixed number of completed ops, and at
// the end of each window samples the host's speed (see refSample), whose
// time it leaves out of the round's.
type meter struct {
	t0, last time.Time
	window   int
	n        int
	// perRequest marks the wire workload, whose latency sample is each
	// request's; a simulated op completes inside the engine, interleaved
	// with thousands of others, so it has no host latency of its own, and
	// its sample is the host time per op of each window.
	perRequest bool
	lat        []float64 // ms
	ref        []float64 // each reference sample over refNominal
	refWall    time.Duration

	// traced rounds only: sampled once per window
	traced         bool
	sample         func()
	goroutinesPeak int
}

func newMeter(window int, perRequest bool, tr *tracer) *meter {
	return &meter{window: window, perRequest: perRequest, traced: tr != nil}
}

func (m *meter) start() {
	m.t0 = time.Now()
	m.last = m.t0
}

// op records one completed op.
func (m *meter) op() {
	m.n++
	if m.n < m.window {
		return
	}
	m.cut()
	if m.traced {
		m.sampleLayers()
	}
}

// request records one answered request and its client-observed latency.
func (m *meter) request(d time.Duration) {
	m.lat = append(m.lat, float64(d)/float64(time.Millisecond))
	m.op()
}

// stop closes the last window, which holds the ops after the last full one
// and the time until the round's run returned, and returns the measured
// wall time without the reference samples.
func (m *meter) stop() time.Duration {
	m.cut()
	return m.last.Sub(m.t0) - m.refWall
}

func (m *meter) cut() {
	now := time.Now()
	if !m.perRequest && m.n > 0 {
		m.lat = append(m.lat, float64(now.Sub(m.last))/float64(time.Millisecond)/float64(m.n))
	}
	m.n = 0
	m.ref = append(m.ref, refSample())
	m.last = time.Now()
	m.refWall += m.last.Sub(now)
}

// The host's other tenants slow its CPUs and memory by a fifth to a half, in
// bursts and in phases that last from seconds to minutes, and a round's wall
// and CPU time follow them. The reference is fixed work that the program
// cannot touch: a chain of register operations, which slows when the CPU
// does, and a chain of dependent loads through a buffer far larger than the
// caches, outside the Go heap, which slows when memory does. The meter takes
// a sample after every window of the measured section and leaves its time
// out of the round's; a round's host slowdown is its median sample over
// refNominal, and its times are divided by it. Some phases slowed the
// workloads with the CPU and others with memory; either reference alone
// missed one kind (see WORKLOADS.md).
const (
	refIters   = 75000
	refLoads   = 500
	refEntries = 16 << 20 // 64 MiB
	// refNominal is a sample's time on the 2-vCPU Xeon guest the bounds
	// were set on: about 2.2 ns per iteration and 300 ns per load.
	refNominal = 315 * time.Microsecond
)

var (
	refBuf  []uint32
	refPos  uint32
	refSink uint64
)

// hostSlowdown is the host's slowdown at the moment: the median of three
// reference samples over refNominal.
func hostSlowdown() float64 {
	return median([]float64{refSample(), refSample(), refSample()})
}

// refSample runs the reference once and returns its time over refNominal.
// Each load jumps about 14 MiB, past any prefetcher, and the chain visits
// every entry once before it repeats.
func refSample() float64 {
	if refBuf == nil {
		b, err := syscall.Mmap(-1, 0, refEntries*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			panic(fmt.Sprintf("perfbench: mapping the reference buffer: %v", err))
		}
		refBuf = unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), refEntries)
		const stride = 0x3779b1 // odd, so coprime with refEntries
		for i := range refBuf {
			refBuf[i] = uint32((i + stride) % refEntries)
		}
	}
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < refIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	p := refPos
	for i := 0; i < refLoads; i++ {
		p = refBuf[p]
	}
	d := time.Since(t0)
	refPos, refSink = p, refSink+x
	return float64(d) / float64(refNominal)
}

// sampleLayers records the runtime's goroutine count and runs the
// workload's own sampler.
func (m *meter) sampleLayers() {
	if g := runtime.NumGoroutine(); g > m.goroutinesPeak {
		m.goroutinesPeak = g
	}
	if m.sample != nil {
		m.sample()
	}
}

// counters are the process-wide costs read around a measured section.
type counters struct {
	cpu          time.Duration // user+system CPU of the process
	allocObjects uint64
	allocBytes   uint64
	gcCPU        float64 // seconds
	totalCPU     float64 // seconds, the runtime's own estimate
	schedLat     *metrics.Float64Histogram
}

var counterNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func readCounters() counters {
	s := make([]metrics.Sample, len(counterNames))
	for i, n := range counterNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var c counters
	c.allocObjects = s[0].Value.Uint64()
	c.allocBytes = s[1].Value.Uint64()
	c.gcCPU = s[2].Value.Float64()
	c.totalCPU = s[3].Value.Float64()
	c.schedLat = s[4].Value.Float64Histogram()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return c
}

// sub returns the costs between two readings.
func (c counters) sub(b counters) counters {
	d := counters{
		cpu:          c.cpu - b.cpu,
		allocObjects: c.allocObjects - b.allocObjects,
		allocBytes:   c.allocBytes - b.allocBytes,
		gcCPU:        c.gcCPU - b.gcCPU,
		totalCPU:     c.totalCPU - b.totalCPU,
	}
	h := &metrics.Float64Histogram{Buckets: c.schedLat.Buckets, Counts: make([]uint64, len(c.schedLat.Counts))}
	for i := range h.Counts {
		h.Counts[i] = c.schedLat.Counts[i] - b.schedLat.Counts[i]
	}
	d.schedLat = h
	return d
}

// histQuantile returns the upper bound of the bucket holding quantile q, or
// 0 for an empty histogram.
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, n := range h.Counts {
		total += n
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, n := range h.Counts {
		seen += n
		if seen >= rank {
			hi := h.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = h.Buckets[i]
			}
			return hi
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}

// liveHeapBytes is the heap the last collection found reachable.
func liveHeapBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile interpolates the q-quantile of sorted xs; 0 when xs is empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	f := pos - float64(i)
	return sorted[i]*(1-f) + sorted[i+1]*f
}
