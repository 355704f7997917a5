package fabric

import (
	"errors"
	"math"
	"testing"
	"time"

	"azureobs/internal/metrics"
	"azureobs/internal/sim"
	"azureobs/internal/simrand"
)

func newDC(t *testing.T, degradation bool) (*sim.Engine, *Datacenter) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.Degradation = degradation
	return eng, New(eng, simrand.New(1), cfg)
}

func TestSizeCores(t *testing.T) {
	cases := map[Size]int{Small: 1, Medium: 2, Large: 4, ExtraLarge: 8}
	for s, want := range cases {
		if s.Cores() != want {
			t.Fatalf("%v cores = %d, want %d", s, s.Cores(), want)
		}
	}
}

func TestDefaultInstancesUnderQuota(t *testing.T) {
	// The paper sizes deployments so doubling stays under 20 cores.
	for _, s := range []Size{Small, Medium, Large, ExtraLarge} {
		n := s.DefaultInstances()
		if 2*n*s.Cores() > CoreQuota {
			t.Fatalf("%v: doubling %d instances exceeds quota", s, n)
		}
	}
}

func TestParamsMatchTable1(t *testing.T) {
	// Spot-check Table 1 entries.
	ws := Params(Worker, Small)
	if ws.Create.Avg != 86 || ws.Run.Avg != 533 || ws.Add.Avg != 1026 || ws.Suspend.Avg != 40 || ws.Delete.Avg != 6 {
		t.Fatalf("worker small params wrong: %+v", ws)
	}
	wx := Params(Web, ExtraLarge)
	if wx.Run.Avg != 827 || wx.Suspend.Avg != 96 {
		t.Fatalf("web XL params wrong: %+v", wx)
	}
	if Params(Worker, ExtraLarge).HasAdd() {
		t.Fatal("worker XL should have no Add phase (Table 1 N/A)")
	}
	if !Params(Web, Large).HasAdd() {
		t.Fatal("web large should have an Add phase")
	}
}

func TestCreateRunLifecycle(t *testing.T) {
	eng, dc := newDC(t, false)
	ctl := NewController(dc)
	var d *Deployment
	var createDur, runDur time.Duration
	eng.Spawn("test", func(p *sim.Proc) {
		t0 := p.Now()
		var err error
		d, err = ctl.CreateDeployment(p, DeploymentSpec{Name: "app", Role: Worker, Size: Small})
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		createDur = p.Now() - t0
		if len(d.VMs()) != 4 {
			t.Errorf("instances = %d, want 4 (small default)", len(d.VMs()))
		}
		t1 := p.Now()
		if err := ctl.RunDeployment(p, d); err != nil {
			t.Errorf("run: %v", err)
			return
		}
		runDur = p.Now() - t1
		for _, vm := range d.VMs() {
			if vm.State() != VMReady {
				t.Errorf("vm %s state %v after run", vm.Name, vm.State())
			}
		}
		if err := ctl.SuspendDeployment(p, d); err != nil {
			t.Errorf("suspend: %v", err)
		}
		if err := ctl.DeleteDeployment(p, d); err != nil {
			t.Errorf("delete: %v", err)
		}
	})
	eng.Run()
	if d.State() != DeploymentDeleted {
		t.Fatalf("final state = %v", d.State())
	}
	// Create ~86s ± a few sigma; run ≥ first-instance time.
	if createDur < 20*time.Second || createDur > 300*time.Second {
		t.Fatalf("create duration %v implausible", createDur)
	}
	if runDur < 400*time.Second {
		t.Fatalf("run duration %v implausible for 4 staggered instances", runDur)
	}
	if ctl.CoresInUse() != 0 {
		t.Fatalf("cores in use after delete = %d", ctl.CoresInUse())
	}
}

func TestRunStatistics(t *testing.T) {
	// Over many runs, the sampled first-instance readiness must recover the
	// Table 1 worker-small mean (533 s) and the 1st→4th lag ~4 min.
	eng, dc := newDC(t, false)
	ctl := NewController(dc)
	ctl.Quota = 1 << 30
	var firstStat, lagStat metrics.Summary
	eng.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < 120; i++ {
			d, err := ctl.CreateDeployment(p, DeploymentSpec{Name: "app", Role: Worker, Size: Small})
			if err != nil {
				t.Errorf("create: %v", err)
				return
			}
			start := p.Now()
			if err := ctl.RunDeployment(p, d); err != nil {
				if errors.Is(err, ErrStartupFailed) {
					_ = ctl.DeleteDeployment(p, d)
					continue
				}
				t.Errorf("run: %v", err)
				return
			}
			rt := d.ReadyTimes()
			firstStat.AddDuration(rt[0] - start)
			lagStat.AddDuration(rt[3] - rt[0])
			_ = ctl.SuspendDeployment(p, d)
			_ = ctl.DeleteDeployment(p, d)
		}
	})
	eng.Run()
	if math.Abs(firstStat.Mean()-533) > 15 {
		t.Fatalf("first-instance mean = %.1f s, want ~533", firstStat.Mean())
	}
	if lagStat.Mean() < 200 || lagStat.Mean() > 280 {
		t.Fatalf("1st→4th lag mean = %.1f s, want ~240", lagStat.Mean())
	}
}

func TestAddDoublesDeployment(t *testing.T) {
	eng, dc := newDC(t, false)
	ctl := NewController(dc)
	eng.Spawn("test", func(p *sim.Proc) {
		d, _ := ctl.CreateDeployment(p, DeploymentSpec{Name: "app", Role: Worker, Size: Medium})
		if err := ctl.RunDeployment(p, d); err != nil {
			t.Errorf("run: %v", err)
			return
		}
		before := p.Now()
		if err := ctl.AddInstances(p, d, 2); err != nil {
			t.Errorf("add: %v", err)
			return
		}
		if len(d.VMs()) != 4 {
			t.Errorf("instances after add = %d, want 4", len(d.VMs()))
		}
		for _, vm := range d.VMs() {
			if vm.State() != VMReady {
				t.Errorf("vm %s not ready after add", vm.Name)
			}
		}
		if p.Now()-before < 200*time.Second {
			t.Errorf("add took %v; Table 1 says ~740 s", p.Now()-before)
		}
	})
	eng.Run()
	if ctl.CoresInUse() != 8 {
		t.Fatalf("cores = %d, want 8", ctl.CoresInUse())
	}
}

func TestAddUnsupportedForXL(t *testing.T) {
	eng, dc := newDC(t, false)
	ctl := NewController(dc)
	eng.Spawn("test", func(p *sim.Proc) {
		d, _ := ctl.CreateDeployment(p, DeploymentSpec{Name: "app", Role: Worker, Size: ExtraLarge})
		if err := ctl.RunDeployment(p, d); err != nil {
			return // startup failure: fine for this test
		}
		if err := ctl.AddInstances(p, d, 1); !errors.Is(err, ErrAddUnsupported) {
			t.Errorf("add on XL = %v, want ErrAddUnsupported", err)
		}
	})
	eng.Run()
}

func TestQuotaEnforced(t *testing.T) {
	eng, dc := newDC(t, false)
	ctl := NewController(dc)
	eng.Spawn("test", func(p *sim.Proc) {
		// 21 small instances exceed the 20-core quota.
		_, err := ctl.CreateDeployment(p, DeploymentSpec{Name: "big", Role: Worker, Size: Small, Instances: 21})
		if !errors.Is(err, ErrQuotaExceeded) {
			t.Errorf("create 21 small = %v, want ErrQuotaExceeded", err)
		}
		// A count whose core product wraps past zero is still over quota.
		_, err = ctl.CreateDeployment(p, DeploymentSpec{Name: "wrap", Role: Worker, Size: Medium, Instances: 1 << 62})
		if !errors.Is(err, ErrQuotaExceeded) {
			t.Errorf("create 2^62 medium = %v, want ErrQuotaExceeded", err)
		}
		// 2 XL (16 cores) fits; a third does not.
		d, err := ctl.CreateDeployment(p, DeploymentSpec{Name: "xl", Role: Worker, Size: ExtraLarge, Instances: 2})
		if err != nil {
			t.Errorf("create 2 XL: %v", err)
			return
		}
		_, err = ctl.CreateDeployment(p, DeploymentSpec{Name: "xl2", Role: Worker, Size: ExtraLarge, Instances: 1})
		if !errors.Is(err, ErrQuotaExceeded) {
			t.Errorf("create beyond quota = %v, want ErrQuotaExceeded", err)
		}
		_ = d
	})
	eng.Run()
}

func TestPhaseStateMachine(t *testing.T) {
	eng, dc := newDC(t, false)
	ctl := NewController(dc)
	eng.Spawn("test", func(p *sim.Proc) {
		d, _ := ctl.CreateDeployment(p, DeploymentSpec{Name: "app", Role: Worker, Size: Large})
		if err := ctl.SuspendDeployment(p, d); !errors.Is(err, ErrBadState) {
			t.Errorf("suspend before run = %v, want ErrBadState", err)
		}
		if err := ctl.AddInstances(p, d, 1); !errors.Is(err, ErrBadState) {
			t.Errorf("add before run = %v, want ErrBadState", err)
		}
		// Delete directly from created state is allowed (cleanup path).
		if err := ctl.DeleteDeployment(p, d); err != nil {
			t.Errorf("delete from created: %v", err)
		}
		if err := ctl.DeleteDeployment(p, d); !errors.Is(err, ErrBadState) {
			t.Errorf("double delete = %v, want ErrBadState", err)
		}
	})
	eng.Run()
}

func TestCreateScalesWithPackageSize(t *testing.T) {
	eng, dc := newDC(t, false)
	ctl := NewController(dc)
	ctl.Quota = 1 << 30
	var small, big metrics.Summary
	eng.Spawn("test", func(p *sim.Proc) {
		for i := 0; i < 60; i++ {
			t0 := p.Now()
			d, _ := ctl.CreateDeployment(p, DeploymentSpec{Name: "s", Role: Worker, Size: Small, PackageMB: 1.2})
			small.AddDuration(p.Now() - t0)
			_ = ctl.DeleteDeployment(p, d)
			t0 = p.Now()
			d, _ = ctl.CreateDeployment(p, DeploymentSpec{Name: "b", Role: Worker, Size: Small, PackageMB: 5})
			big.AddDuration(p.Now() - t0)
			_ = ctl.DeleteDeployment(p, d)
		}
	})
	eng.Run()
	diff := big.Mean() - small.Mean()
	if diff < 20 || diff > 40 {
		t.Fatalf("5MB - 1.2MB create diff = %.1f s, want ~30", diff)
	}
}

func TestStartupFailureRate(t *testing.T) {
	eng, dc := newDC(t, false)
	ctl := NewController(dc)
	ctl.Quota = 1 << 30
	failures, runs := 0, 500
	eng.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < runs; i++ {
			d, _ := ctl.CreateDeployment(p, DeploymentSpec{Name: "app", Role: Worker, Size: Small})
			if err := ctl.RunDeployment(p, d); errors.Is(err, ErrStartupFailed) {
				failures++
				_ = ctl.DeleteDeployment(p, d)
				continue
			}
			_ = ctl.SuspendDeployment(p, d)
			_ = ctl.DeleteDeployment(p, d)
		}
	})
	eng.Run()
	rate := float64(failures) / float64(runs)
	if rate < 0.005 || rate > 0.06 {
		t.Fatalf("startup failure rate = %.3f, want ~0.026", rate)
	}
}

func TestReadyFleet(t *testing.T) {
	_, dc := newDC(t, false)
	ctl := NewController(dc)
	vms := ctl.ReadyFleet(192, Worker, Small)
	if len(vms) != 192 {
		t.Fatalf("fleet size = %d", len(vms))
	}
	hosts := map[int]bool{}
	for _, vm := range vms {
		if vm.State() != VMReady {
			t.Fatal("fleet VM not ready")
		}
		hosts[vm.Host.ID] = true
	}
	if len(hosts) < 100 {
		t.Fatalf("fleet spread over %d hosts; placement too concentrated", len(hosts))
	}
}

func TestDeploymentSpansFaultDomains(t *testing.T) {
	// Azure spreads a deployment's instances across fault domains; the
	// round-robin placement must put a multi-instance deployment on
	// distinct hosts in more than one rack.
	eng, dc := newDC(t, false)
	ctl := NewController(dc)
	eng.Spawn("test", func(p *sim.Proc) {
		d, err := ctl.CreateDeployment(p, DeploymentSpec{Name: "ha", Role: Worker, Size: Small, Instances: 8})
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		hosts := map[int]bool{}
		racks := map[int]bool{}
		for _, vm := range d.VMs() {
			hosts[vm.Host.ID] = true
			racks[vm.Host.Rack] = true
		}
		if len(hosts) != 8 {
			t.Errorf("instances share hosts: %d distinct", len(hosts))
		}
		if len(racks) < 2 {
			t.Errorf("deployment confined to %d rack(s)", len(racks))
		}
	})
	eng.Run()
}

func TestExecuteDilation(t *testing.T) {
	eng, dc := newDC(t, false)
	ctl := NewController(dc)
	vm := ctl.ReadyFleet(1, Worker, Small)[0]
	eng.Spawn("task", func(p *sim.Proc) {
		if d := vm.Execute(p, 10*time.Minute); d != 10*time.Minute {
			t.Errorf("healthy execute = %v, want 10m", d)
		}
		vm.Host.slowdown = 5
		if d := vm.Execute(p, 10*time.Minute); d != 50*time.Minute {
			t.Errorf("degraded execute = %v, want 50m", d)
		}
	})
	eng.Run()
}

func TestDegradationEpisodes(t *testing.T) {
	eng, dc := newDC(t, true)
	sawDegraded, sawHealed := false, false
	eng.Spawn("probe", func(p *sim.Proc) {
		for {
			p.Sleep(time.Hour)
			if dc.DegradedHosts() > 0 {
				sawDegraded = true
			} else if sawDegraded {
				sawHealed = true
			}
		}
	})
	eng.RunUntil(30 * 24 * time.Hour)
	if dc.Episodes() == 0 {
		t.Fatal("no degradation episodes in 30 days")
	}
	if !sawDegraded {
		t.Fatal("no degraded hosts ever observed")
	}
	if !sawHealed {
		t.Fatal("degradation episodes never healed")
	}
}

func TestTCPLatencyDistribution(t *testing.T) {
	_, dc := newDC(t, false)
	rng := simrand.New(9)
	s := metrics.NewSample(10000)
	for i := 0; i < 10000; i++ {
		s.AddDuration(dc.TCPLatency(rng))
	}
	// Fig. 4: ~50% ≤ 1 ms, ~75% ≤ 2 ms.
	if p := s.FracLE(0.001); math.Abs(p-0.50) > 0.03 {
		t.Fatalf("P(≤1ms) = %.3f, want ~0.50", p)
	}
	if p := s.FracLE(0.002); math.Abs(p-0.75) > 0.03 {
		t.Fatalf("P(≤2ms) = %.3f, want ~0.75", p)
	}
}

func TestPairBandwidthDistribution(t *testing.T) {
	_, dc := newDC(t, false)
	ctl := NewController(dc)
	vms := ctl.ReadyFleet(200, Worker, Small)
	rng := simrand.New(11)
	s := metrics.NewSample(1000)
	for i := 0; i+1 < len(vms); i += 2 {
		for rep := 0; rep < 10; rep++ {
			l := dc.PairBandwidthLink(vms[i], vms[i+1], rng)
			s.Add(float64(l.Capacity()) / 1e6)
		}
	}
	// Fig. 5: ~50% ≥ 90 MB/s, ~15% ≤ 30 MB/s, hard cap 125 MB/s.
	if p := 1 - s.FracLE(90); p < 0.36 || p > 0.64 {
		t.Fatalf("P(≥90MB/s) = %.3f, want ~0.50 (100-pair sample)", p)
	}
	if p := s.FracLE(30); p < 0.08 || p > 0.22 {
		t.Fatalf("P(≤30MB/s) = %.3f, want ~0.15", p)
	}
	if s.Quantile(1) > 125.0001 {
		t.Fatalf("max pair bandwidth %.1f exceeds GigE", s.Quantile(1))
	}
}

// Regression: at a mean gap of 1e6 hours (114 years) the first gap seed 7
// draws lies past 292 years, which simrand.Duration used to wrap to a
// negative duration, panicking "sim: negative sleep" in the degradation
// process.
func TestDegradationLongMeanGap(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.Degradation = true
	custom := DefaultDegradation()
	custom.MeanInterarrival = 1e6 * time.Hour
	cfg.DegradationConfig = &custom
	dc := New(eng, simrand.New(7), cfg)
	eng.RunUntil(24 * time.Hour)
	if dc.Episodes() != 0 {
		t.Fatalf("%d degradation episodes in a day at a mean gap of 1e6 hours", dc.Episodes())
	}
}
