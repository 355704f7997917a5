package chaos

import (
	"testing"
	"time"

	"azureobs/internal/azure"
	"azureobs/internal/fabric"
	"azureobs/internal/netsim"
	"azureobs/internal/simrand"
	"azureobs/internal/storage/reqpath"
)

func testCloud(seed uint64) *azure.Cloud {
	cfg := azure.Config{Seed: seed}
	cfg.Fabric = fabric.Config{Hosts: 16, HostsPerRack: 4}
	return azure.NewCloud(cfg)
}

func newEngine(c *azure.Cloud, cfg Config) *Engine {
	return New(c, simrand.New(1).Fork("chaos"), cfg)
}

// A scripted crash fails the host's starting/ready residents, records the
// incident, and the paired reboot brings the host back up.
func TestScriptedCrashAndReboot(t *testing.T) {
	c := testCloud(7)
	vms := c.Controller.ReadyFleet(8, fabric.Worker, fabric.Small)
	target := vms[0].Host
	resident := 0
	for _, vm := range vms {
		if vm.Host == target {
			resident++
		}
	}
	e := newEngine(c, Config{Script: []ScriptEvent{
		{At: time.Hour, Class: ClassHostCrash, Host: target.ID, Repair: 30 * time.Minute},
	}})
	e.Start()

	c.Engine.RunUntil(80 * time.Minute)
	if !target.Down() {
		t.Fatal("host not down after scripted crash")
	}
	if vms[0].State() != fabric.VMFailed {
		t.Fatalf("resident VM state = %v, want failed", vms[0].State())
	}
	if got := e.Report().VMsKilled; got != uint64(resident) {
		t.Fatalf("VMsKilled = %d, want %d", got, resident)
	}
	if c.DC.Crashes() != 1 {
		t.Fatalf("datacenter crash count = %d", c.DC.Crashes())
	}

	c.Engine.RunUntil(2 * time.Hour)
	if target.Down() {
		t.Fatal("host still down after repair window")
	}
	if e.Report().Injected(ClassHostCrash) != 1 || e.Report().Repaired(ClassHostCrash) != 1 {
		t.Fatalf("crash books: injected=%d repaired=%d",
			e.Report().Injected(ClassHostCrash), e.Report().Repaired(ClassHostCrash))
	}
	if got, want := e.Report().MTTR(ClassHostCrash), 30*time.Minute; got != want {
		t.Fatalf("MTTR = %v, want %v", got, want)
	}
}

// A scripted degradation dilates the host for exactly the repair window.
func TestScriptedDegrade(t *testing.T) {
	c := testCloud(8)
	h := c.DC.Hosts()[3]
	e := newEngine(c, Config{Script: []ScriptEvent{
		{At: time.Hour, Class: ClassHostDegrade, Host: h.ID, Factor: 5, Repair: time.Hour},
	}})
	e.Start()

	c.Engine.RunUntil(90 * time.Minute)
	if got := h.Slowdown(); got != 5 {
		t.Fatalf("slowdown = %v, want 5", got)
	}
	c.Engine.RunUntil(3 * time.Hour)
	if got := h.Slowdown(); got != 1 {
		t.Fatalf("slowdown after repair = %v, want 1", got)
	}
}

// A partition squeezes every NIC in the rack to PartitionEps and restores the
// exact prior capacities on repair; overlapping partitions of the same rack
// collapse into one.
func TestPartitionRestoresCapacity(t *testing.T) {
	c := testCloud(9)
	rack := 1
	hosts := c.DC.RackHosts(rack)
	saved := make([]netsim.Bandwidth, len(hosts))
	for i, h := range hosts {
		saved[i] = h.NIC.Capacity()
	}
	e := newEngine(c, Config{Script: []ScriptEvent{
		{At: time.Hour, Class: ClassRackPartition, Rack: rack, Repair: time.Hour},
		{At: 90 * time.Minute, Class: ClassRackPartition, Rack: rack, Repair: time.Hour},
	}})
	e.Start()

	c.Engine.RunUntil(70 * time.Minute)
	for _, h := range hosts {
		if h.NIC.Capacity() != PartitionEps {
			t.Fatalf("NIC capacity %v during partition, want %v", h.NIC.Capacity(), PartitionEps)
		}
	}
	c.Engine.RunUntil(4 * time.Hour)
	for i, h := range hosts {
		if h.NIC.Capacity() != saved[i] {
			t.Fatalf("NIC capacity %v after repair, want %v", h.NIC.Capacity(), saved[i])
		}
	}
	if e.Report().Injected(ClassRackPartition) != 2 || e.Report().Repaired(ClassRackPartition) != 2 {
		t.Fatalf("partition books: injected=%d repaired=%d",
			e.Report().Injected(ClassRackPartition), e.Report().Repaired(ClassRackPartition))
	}
}

// A storage blackout flips the service pipeline's outage mode for the window.
func TestScriptedServiceOutage(t *testing.T) {
	c := testCloud(10)
	e := newEngine(c, Config{Script: []ScriptEvent{
		{At: time.Hour, Class: ClassStorageBlackout, Service: "queue", Repair: 20 * time.Minute},
		{At: 2 * time.Hour, Class: ClassStorageBrownout, Service: "blob", Repair: 20 * time.Minute},
	}})
	e.Start()

	c.Engine.RunUntil(70 * time.Minute)
	if got := c.Queue.Pipeline().Outage(); got != reqpath.OutageBlackout {
		t.Fatalf("queue outage mode = %v, want blackout", got)
	}
	if got := c.Blob.Pipeline().Outage(); got != reqpath.OutageNone {
		t.Fatalf("blob outage mode = %v before its window", got)
	}
	c.Engine.RunUntil(130 * time.Minute)
	if got := c.Queue.Pipeline().Outage(); got != reqpath.OutageNone {
		t.Fatalf("queue outage mode = %v after repair", got)
	}
	if got := c.Blob.Pipeline().Outage(); got != reqpath.OutageBrownout {
		t.Fatalf("blob outage mode = %v, want brownout", got)
	}
	c.Engine.RunUntil(4 * time.Hour)
	if got := c.Blob.Pipeline().Outage(); got != reqpath.OutageNone {
		t.Fatalf("blob outage mode = %v at end", got)
	}
}

// Two identical stochastic campaigns produce identical taxonomies — the
// determinism contract behind the workers∈{1,2,4} experiment sharding.
func TestStochasticDeterminism(t *testing.T) {
	runOnce := func() *Report {
		c := testCloud(11)
		cfg := DefaultConfig()
		cfg.HostCrash.MeanInterarrival = 6 * time.Hour
		cfg.RackPartition.MeanInterarrival = 12 * time.Hour
		cfg.StorageBlackout.MeanInterarrival = 12 * time.Hour
		cfg.StorageBrownout.MeanInterarrival = 8 * time.Hour
		cfg.HostDegrade.MeanInterarrival = 10 * time.Hour
		cfg.Horizon = 5 * 24 * time.Hour
		e := newEngine(c, cfg)
		e.Start()
		c.Engine.RunUntil(6 * 24 * time.Hour)
		return e.Report()
	}
	a, b := runOnce(), runOnce()
	if a.TotalInjected() == 0 {
		t.Fatal("no incidents injected in 5 days of accelerated chaos")
	}
	for _, cl := range Classes {
		if a.Injected(cl) != b.Injected(cl) || a.Repaired(cl) != b.Repaired(cl) {
			t.Fatalf("%s: run A %d/%d, run B %d/%d", cl,
				a.Injected(cl), a.Repaired(cl), b.Injected(cl), b.Repaired(cl))
		}
		if a.MTTR(cl) != b.MTTR(cl) {
			t.Fatalf("%s MTTR: %v vs %v", cl, a.MTTR(cl), b.MTTR(cl))
		}
	}
	if a.VMsKilled != b.VMsKilled {
		t.Fatalf("VMsKilled: %d vs %d", a.VMsKilled, b.VMsKilled)
	}
}

// Every stochastic process repairs what it injects once the horizon passes
// and repairs drain; the horizon stops injection.
func TestHorizonAndRepairDrain(t *testing.T) {
	c := testCloud(12)
	cfg := DefaultConfig()
	cfg.HostCrash.MeanInterarrival = 4 * time.Hour
	cfg.Horizon = 3 * 24 * time.Hour
	e := newEngine(c, cfg)
	e.Start()
	// Run far past the horizon: all repairs (bounded by the longest window)
	// must have fired.
	c.Engine.RunUntil(5 * 24 * time.Hour)
	for _, cl := range Classes {
		if e.Report().Injected(cl) != e.Report().Repaired(cl) {
			t.Fatalf("%s: %d injected but %d repaired after drain",
				cl, e.Report().Injected(cl), e.Report().Repaired(cl))
		}
	}
	if e.Report().Injected(ClassHostCrash) == 0 {
		t.Fatal("no crashes in 3 days at 4 h MTBF")
	}
}
