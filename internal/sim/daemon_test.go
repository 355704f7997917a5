package sim

import (
	"testing"
	"time"
)

func TestDaemonDoesNotKeepRunAlive(t *testing.T) {
	e := NewEngine()
	ticks := 0
	e.SpawnDaemon("ticker", func(p *Proc) {
		for {
			p.Sleep(time.Second)
			ticks++
		}
	})
	e.Spawn("work", func(p *Proc) { p.Sleep(10 * time.Second) })
	e.Run() // must terminate despite the immortal daemon
	if e.Now() != 10*time.Second {
		t.Fatalf("Run stopped at %v, want 10s", e.Now())
	}
	if ticks < 9 || ticks > 10 {
		t.Fatalf("daemon ticked %d times before the foreground drained, want ~10", ticks)
	}
	if !e.Drained() {
		t.Fatal("engine with only daemon work should report drained")
	}
}

func TestDaemonEventsFireDuringForegroundWork(t *testing.T) {
	e := NewEngine()
	fired := false
	e.AfterDaemon(time.Second, func() { fired = true })
	e.Schedule(5*time.Second, func() {})
	e.Run()
	if !fired {
		t.Fatal("daemon event before the last foreground event did not fire")
	}
}

func TestDaemonEventsBeyondForegroundDoNotFire(t *testing.T) {
	e := NewEngine()
	fired := false
	e.AfterDaemon(10*time.Second, func() { fired = true })
	e.Schedule(time.Second, func() {})
	e.Run()
	if fired {
		t.Fatal("daemon event after the last foreground event fired under Run")
	}
	if e.Now() != time.Second {
		t.Fatalf("clock advanced to %v chasing a daemon event", e.Now())
	}
}

func TestRunUntilFiresDaemons(t *testing.T) {
	e := NewEngine()
	ticks := 0
	e.SpawnDaemon("ticker", func(p *Proc) {
		for {
			p.Sleep(time.Hour)
			ticks++
		}
	})
	e.RunUntil(24 * time.Hour)
	if ticks != 24 {
		t.Fatalf("daemon ticked %d times in 24h under RunUntil, want 24", ticks)
	}
}

func TestDaemonCanWakeForegroundProcess(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int]()
	e.SpawnDaemon("producer", func(p *Proc) {
		for i := 0; ; i++ {
			p.Sleep(time.Second)
			q.Put(i)
		}
	})
	var got []int
	e.Spawn("consumer", func(p *Proc) {
		for len(got) < 3 {
			got = append(got, q.Get(p))
		}
	})
	e.Run()
	if len(got) != 3 || got[2] != 2 {
		t.Fatalf("got = %v", got)
	}
	if e.Now() != 3*time.Second {
		t.Fatalf("finished at %v, want 3s", e.Now())
	}
}

// TestKillDaemon: a daemon actor cancelled mid-run stops ticking, while
// the foreground work runs on.
func TestKillDaemon(t *testing.T) {
	e := NewEngine()
	var d Actor
	d.BindDaemon(e, "ticker")
	ticks := 0
	var tick func()
	tick = func() {
		d.Sleep(time.Second, func() {
			ticks++
			tick()
		})
	}
	d.Go(tick)
	e.Schedule(5*time.Second+time.Millisecond, func() { d.Cancel(nil) })
	e.Schedule(20*time.Second, func() {})
	e.Run()
	if ticks != 5 {
		t.Fatalf("cancelled daemon ticked %d times, want 5", ticks)
	}
	if d.Live() || e.Now() != 20*time.Second {
		t.Fatalf("live=%v now=%v, want the daemon finished and Run ending at 20s", d.Live(), e.Now())
	}
}

func TestLiveProcsIgnoresDaemons(t *testing.T) {
	e := NewEngine()
	e.SpawnDaemon("d", func(p *Proc) {
		for {
			p.Sleep(time.Minute)
		}
	})
	if e.LiveProcs() != 0 {
		t.Fatalf("LiveProcs counts daemons: %d", e.LiveProcs())
	}
	e.Spawn("w", func(p *Proc) { p.Sleep(time.Second) })
	if e.LiveProcs() != 1 {
		t.Fatalf("LiveProcs = %d, want 1", e.LiveProcs())
	}
	e.Run()
	if e.LiveProcs() != 0 {
		t.Fatalf("LiveProcs after run = %d", e.LiveProcs())
	}
}

func TestCancelForegroundAllowsTermination(t *testing.T) {
	e := NewEngine()
	ev := e.Schedule(time.Hour, func() {})
	e.SpawnDaemon("d", func(p *Proc) {
		for {
			p.Sleep(time.Minute)
		}
	})
	e.Cancel(ev)
	e.Run() // nothing foreground left: returns immediately
	if e.Now() != 0 {
		t.Fatalf("clock moved to %v with no foreground work", e.Now())
	}
}
