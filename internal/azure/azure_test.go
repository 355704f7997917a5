package azure

import (
	"errors"
	"testing"
	"time"

	"azureobs/internal/fabric"
	"azureobs/internal/sim"
	"azureobs/internal/storage/storerr"
	"azureobs/internal/storage/tablesvc"
)

func newCloud() *Cloud {
	cfg := Config{Seed: 1}
	cfg.Fabric = fabric.DefaultConfig()
	cfg.Fabric.Degradation = false
	return NewCloud(cfg)
}

func TestEndToEndStorageFlow(t *testing.T) {
	c := newCloud()
	vms := c.Controller.ReadyFleet(2, fabric.Worker, fabric.Small)
	cl := c.NewClient(vms[0], 0)
	c.Engine.Spawn("app", func(p *sim.Proc) {
		cl.CreateContainer("data")
		if err := cl.PutBlob(p, "data", "input", 50_000_000, false); err != nil {
			t.Errorf("put: %v", err)
		}
		cl.CreateTable("requests")
		e := tablesvc.PaddedEntity("req", "001", 1024)
		if err := cl.InsertEntity(p, "requests", e); err != nil {
			t.Errorf("insert: %v", err)
		}
		q := cl.CreateQueue("tasks")
		if _, err := cl.AddMessage(p, q, "job-1", 512); err != nil {
			t.Errorf("add msg: %v", err)
		}
		rcv, err := cl.Receive(p, q, time.Minute)
		if err != nil || rcv.Msg.Body != "job-1" {
			t.Errorf("receive: %v", err)
			return
		}
		if _, err := cl.GetBlob(p, "data", "input"); err != nil {
			t.Errorf("get blob: %v", err)
		}
		got, err := cl.GetEntity(p, "requests", "req", "001")
		if err != nil || got.Size() != 1024 {
			t.Errorf("get entity: %v", err)
		}
		if err := cl.DeleteMessage(p, q, rcv.Receipt); err != nil {
			t.Errorf("delete msg: %v", err)
		}
	})
	c.Engine.Run()
}

func TestManagementLifecycleTiming(t *testing.T) {
	c := newCloud()
	m := c.Management()
	c.Engine.Spawn("mgmt", func(p *sim.Proc) {
		d, createDur, err := m.Deploy(p, fabric.DeploymentSpec{Name: "app", Role: fabric.Worker, Size: fabric.Small})
		if err != nil {
			t.Errorf("deploy: %v", err)
			return
		}
		if createDur <= 0 {
			t.Error("create duration not measured")
		}
		runDur, first, last, err := m.Run(p, d)
		if err != nil {
			return // startup failure possible
		}
		if first <= 0 || last < first || runDur < last {
			t.Errorf("run timings inconsistent: run=%v first=%v last=%v", runDur, first, last)
		}
		// Small deployments have 4 instances: 1st→4th lag should be minutes.
		if lag := last - first; lag < 2*time.Minute || lag > 7*time.Minute {
			t.Errorf("1st→last lag = %v, want ~4min", lag)
		}
		if addDur, err := m.Add(p, d, 4); err != nil {
			t.Errorf("add: %v", err)
		} else if addDur < 5*time.Minute {
			t.Errorf("add duration = %v, Table 1 says ~17min ± 6", addDur)
		}
		if susDur, err := m.Suspend(p, d); err != nil || susDur <= 0 {
			t.Errorf("suspend: %v %v", susDur, err)
		}
		if delDur, err := m.Delete(p, d); err != nil || delDur <= 0 {
			t.Errorf("delete: %v %v", delDur, err)
		}
	})
	c.Engine.Run()
}

func TestRetryPolicyRecovers(t *testing.T) {
	c := newCloud()
	c.Engine.Spawn("op", func(p *sim.Proc) {
		calls := 0
		start := p.Now()
		err := DefaultRetryPolicy().Do(p, func() error {
			calls++
			if calls < 3 {
				return storerr.New(storerr.CodeServerBusy, "test", "")
			}
			return nil
		})
		if err != nil {
			t.Errorf("retry did not recover: %v", err)
		}
		if calls != 3 {
			t.Errorf("calls = %d, want 3", calls)
		}
		// Backoffs: 3s + 6s = 9s.
		if got := p.Now() - start; got != 9*time.Second {
			t.Errorf("backoff time = %v, want 9s", got)
		}
	})
	c.Engine.Run()
}

func TestRetryPolicyStopsOnTerminal(t *testing.T) {
	c := newCloud()
	c.Engine.Spawn("op", func(p *sim.Proc) {
		calls := 0
		err := DefaultRetryPolicy().Do(p, func() error {
			calls++
			return storerr.New(storerr.CodeBlobExists, "blob.Put", "")
		})
		if !storerr.IsCode(err, storerr.CodeBlobExists) {
			t.Errorf("err = %v", err)
		}
		if calls != 1 {
			t.Errorf("terminal error retried %d times", calls)
		}
	})
	c.Engine.Run()
}

func TestRetryPolicyExhausts(t *testing.T) {
	c := newCloud()
	c.Engine.Spawn("op", func(p *sim.Proc) {
		calls := 0
		boom := storerr.New(storerr.CodeTimeout, "op", "")
		err := RetryPolicy{MaxAttempts: 3, Backoff: time.Second, Multiplier: 1}.Do(p, func() error {
			calls++
			return boom
		})
		if !errors.Is(err, boom) || calls != 3 {
			t.Errorf("err=%v calls=%d", err, calls)
		}
	})
	c.Engine.Run()
}

func TestRetryMaxBackoffCap(t *testing.T) {
	c := newCloud()
	c.Engine.Spawn("op", func(p *sim.Proc) {
		start := p.Now()
		_ = RetryPolicy{MaxAttempts: 4, Backoff: 4 * time.Second, Multiplier: 10, MaxBackoff: 5 * time.Second}.Do(p, func() error {
			return storerr.New(storerr.CodeTimeout, "op", "")
		})
		// Backoffs: 4s, then capped 5s, 5s → 14s.
		if got := p.Now() - start; got != 14*time.Second {
			t.Errorf("total backoff = %v, want 14s", got)
		}
	})
	c.Engine.Run()
}

// TestRetryRecoversInjectedFaults drives the full stack: a blob service
// with 30% transient fault injection, accessed through the default retry
// policy, must deliver far more reliably than bare calls — the Section 5.2
// "robust retry mechanisms" requirement, end to end.
func TestRetryRecoversInjectedFaults(t *testing.T) {
	cfg := Config{Seed: 8}
	cfg.Fabric = fabric.DefaultConfig()
	cfg.Fabric.Degradation = false
	cfg.Blob.ServerBusyProb = 0.2
	cfg.Blob.ConnFailProb = 0.1
	c := NewCloud(cfg)
	c.Blob.Seed("d", "b", 1_000_000)
	vm := c.Controller.ReadyFleet(1, fabric.Worker, fabric.Small)[0]
	cl := c.NewClient(vm, 0)
	const attempts = 200
	bareOK, retryOK := 0, 0
	c.Engine.Spawn("app", func(p *sim.Proc) {
		for i := 0; i < attempts; i++ {
			if _, err := cl.GetBlob(p, "d", "b"); err == nil {
				bareOK++
			}
			err := DefaultRetryPolicy().Do(p, func() error {
				_, err := cl.GetBlob(p, "d", "b")
				return err
			})
			if err == nil {
				retryOK++
			}
		}
	})
	c.Engine.Run()
	if bareOK > attempts*8/10 {
		t.Fatalf("bare success %d/%d; fault injection ineffective", bareOK, attempts)
	}
	if retryOK < attempts*97/100 {
		t.Fatalf("retried success %d/%d; policy not recovering", retryOK, attempts)
	}
}

func TestTCPRoundtripAndSend(t *testing.T) {
	c := newCloud()
	vms := c.Controller.ReadyFleet(2, fabric.Worker, fabric.Small)
	cl := c.NewClient(vms[0], 0)
	c.Engine.Spawn("net", func(p *sim.Proc) {
		rtt := cl.TCPRoundtrip(p, vms[1])
		if rtt <= 0 || rtt > 50*time.Millisecond {
			t.Errorf("rtt = %v", rtt)
		}
		elapsed := cl.TCPSend(p, vms[1], 2_000_000_000)
		rate := 2000.0 / elapsed.Seconds() // MB/s
		if rate < 4 || rate > 125.1 {
			t.Errorf("pair bandwidth = %.1f MB/s, outside Fig. 5 range", rate)
		}
	})
	c.Engine.Run()
}

// TestTCPSendToOwnVM sends to the client's own VM: the path names the NIC
// once, so the transfer runs instead of tripping the fabric's duplicate-link
// check, and its rate stays within the GigE cap.
func TestTCPSendToOwnVM(t *testing.T) {
	c := newCloud()
	vm := c.Controller.ReadyFleet(1, fabric.Worker, fabric.Small)[0]
	cl := c.NewClient(vm, 0)
	c.Engine.Spawn("loop", func(p *sim.Proc) {
		elapsed := cl.TCPSend(p, vm, 1_000_000_000)
		rate := 1000.0 / elapsed.Seconds() // MB/s
		if rate < 4 || rate > 125.1 {
			t.Errorf("own-VM bandwidth = %.1f MB/s, outside Fig. 5 range", rate)
		}
	})
	c.Engine.Run()
}

func TestClientRecorder(t *testing.T) {
	c := newCloud()
	vm := c.Controller.ReadyFleet(1, fabric.Worker, fabric.Small)[0]
	cl := c.NewClient(vm, 0)
	c.Blob.Seed("d", "b", 13_000_000)
	type rec struct {
		op  string
		d   time.Duration
		err error
	}
	var recs []rec
	cl.SetRecorder(func(op string, d time.Duration, err error) {
		recs = append(recs, rec{op, d, err})
	})
	c.Engine.Spawn("app", func(p *sim.Proc) {
		if _, err := cl.GetBlob(p, "d", "b"); err != nil {
			t.Error(err)
		}
		cl.CreateTable("t")
		if err := cl.InsertEntity(p, "t", tablesvc.PaddedEntity("p", "r", 512)); err != nil {
			t.Error(err)
		}
		if _, err := cl.GetBlob(p, "d", "missing"); err == nil {
			t.Error("expected not-found")
		}
	})
	c.Engine.Run()
	if len(recs) != 3 {
		t.Fatalf("recorded %d ops, want 3", len(recs))
	}
	if recs[0].op != "blob.Get" || recs[0].d < 900*time.Millisecond {
		t.Fatalf("blob.Get record = %+v (13 MB at 13 MB/s ≈ 1 s)", recs[0])
	}
	if recs[1].op != "table.Insert" || recs[1].err != nil {
		t.Fatalf("table.Insert record = %+v", recs[1])
	}
	if recs[2].err == nil {
		t.Fatal("failed op recorded without error")
	}
	cl.SetRecorder(nil) // removable
	c.Engine.Spawn("app2", func(p *sim.Proc) { _, _ = cl.GetBlob(p, "d", "b") })
	c.Engine.Run()
	if len(recs) != 3 {
		t.Fatal("recorder fired after removal")
	}
}

func TestClientsAreIndependent(t *testing.T) {
	// Two clients on the same cloud must have distinct sessions (bandwidth
	// caps are per client).
	c := newCloud()
	vms := c.Controller.ReadyFleet(2, fabric.Worker, fabric.Small)
	c.Blob.CreateContainer("d")
	cl1 := c.NewClient(vms[0], 1)
	cl2 := c.NewClient(vms[1], 2)
	var t1, t2 time.Duration
	c.Engine.Spawn("a", func(p *sim.Proc) {
		_ = cl1.PutBlob(p, "d", "x1", 65_000_000, false)
		t1 = p.Now()
	})
	c.Engine.Spawn("b", func(p *sim.Proc) {
		_ = cl2.PutBlob(p, "d", "x2", 65_000_000, false)
		t2 = p.Now()
	})
	c.Engine.Run()
	// Two 6.5 MB/s-capped uploads of 65 MB ≈ 10 s each, concurrently —
	// if they shared one session link it would be ~20 s.
	if t1 > 13*time.Second || t2 > 13*time.Second {
		t.Fatalf("uploads serialized: %v %v", t1, t2)
	}
}

// TestQueueClientAPIEmptyIsNotFound pins the redesigned queue client
// surface: Peek/Receive report an empty queue as CodeNotFound on the single
// storerr axis, while the deprecated ok-channel methods keep their original
// shape for calibrated callers.
func TestQueueClientAPIEmptyIsNotFound(t *testing.T) {
	c := newCloud()
	vm := c.Controller.ReadyFleet(1, fabric.Worker, fabric.Small)[0]
	cl := c.NewClient(vm, 0)
	c.Engine.Spawn("app", func(p *sim.Proc) {
		q := cl.CreateQueue("empty")
		if _, err := cl.Peek(p, q); !storerr.IsCode(err, storerr.CodeNotFound) {
			t.Errorf("Peek on empty = %v, want NotFound", err)
		}
		if _, err := cl.Receive(p, q, time.Minute); !storerr.IsCode(err, storerr.CodeNotFound) {
			t.Errorf("Receive on empty = %v, want NotFound", err)
		}
		if _, ok, err := cl.PeekMessage(p, q); ok || err != nil {
			t.Errorf("PeekMessage on empty = ok=%v err=%v, want ok=false err=nil", ok, err)
		}
		if _, err := cl.AddMessage(p, q, "m", 64); err != nil {
			t.Fatalf("add: %v", err)
		}
		m, err := cl.Peek(p, q)
		if err != nil || m.Body != "m" {
			t.Errorf("Peek = %v, %v", m, err)
		}
		rcv, err := cl.Receive(p, q, time.Minute)
		if err != nil || rcv.Msg.Body != "m" {
			t.Errorf("Receive = %v, %v", rcv, err)
		}
		if err := cl.DeleteMessage(p, q, rcv.Receipt); err != nil {
			t.Errorf("delete by received receipt: %v", err)
		}
	})
	c.Engine.Run()
}
