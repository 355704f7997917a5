package core

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
	"time"
)

func TestRegistryNamesComplete(t *testing.T) {
	want := []string{
		"fig1", "fig2", "fig3", "table1", "tcp", "propfilter", "queuedepth",
		"replication", "sqlcompare", "startup", "fig2sizes", "fig3sizes",
		"fig8geo",
	}
	got := Names()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for _, n := range want {
		e, ok := Lookup(n)
		if !ok {
			t.Fatalf("Lookup(%q) missing", n)
		}
		if e.Name() != n {
			t.Fatalf("Lookup(%q).Name() = %q", n, e.Name())
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("Lookup of unknown name succeeded")
	}
	if len(Experiments()) != len(want) {
		t.Fatalf("Experiments() = %d entries", len(Experiments()))
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	Register(experiment{"fig1", func(p Proto) Result { return nil }})
}

func TestProtoApply(t *testing.T) {
	base := Proto{Seed: 42, Clients: []int{1, 2}, Runs: 3}
	got := Proto{Workers: 4, Scale: QuickScale}.Apply(base)
	if got.Seed != 42 || got.Runs != 3 || got.Workers != 4 || got.Scale != QuickScale {
		t.Fatalf("apply kept wrong fields: %+v", got)
	}
	got = Proto{Seed: 7, Clients: []int{9}, Runs: 1}.Apply(base)
	if got.Seed != 7 || got.Clients[0] != 9 || got.Runs != 1 {
		t.Fatalf("apply dropped overrides: %+v", got)
	}
}

// reducedProto returns a shrunk protocol for name, small enough that the
// scheduler equivalence test can run every experiment at three widths.
func reducedProto(name string) Proto {
	p := Proto{Seed: 11, Scale: QuickScale, Clients: []int{1, 8}}
	switch name {
	case "fig1":
		p.Runs = 2
		p.Size = 8 << 20 // 8 MB blobs
	case "fig2":
		p.Size = 1024
	case "table1":
		p.Clients = nil
		p.Runs = 8
	case "tcp", "queuedepth":
		p.Clients = nil
	case "propfilter":
		p.Clients = []int{1, 4}
	case "startup":
		p.Clients = nil
		p.Runs = 3
	case "replication":
		p.Clients = nil
		p.Size = 8 << 20
	case "fig2sizes":
		// One ladder level per entity size: the 220k-entity backfill makes
		// each cell expensive, and four sizes already exercise the
		// flattened (size, level) grid.
		p.Clients = []int{4}
	}
	return p
}

// TestSchedulerEquivalence is the registry-wide determinism property: every
// registered experiment, run at reduced scale, must produce byte-identical
// encoded results and identical anchors at 2 and 4 workers vs serial.
func TestSchedulerEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment three times")
	}
	for _, e := range Experiments() {
		e := e
		t.Run(e.Name(), func(t *testing.T) {
			p := reducedProto(e.Name())
			p.Workers = 1
			serial := e.Run(p)
			g := newGoldenHasher()
			encodeResult(g, serial)
			want := g.bytes()
			wantAnchors := serial.Anchors()
			for _, workers := range []int{2, 4} {
				p.Workers = workers
				got := e.Run(p)
				gg := newGoldenHasher()
				encodeResult(gg, got)
				if !bytes.Equal(gg.bytes(), want) {
					t.Fatalf("%s at %d workers: encoded result differs from serial (%d vs %d bytes)",
						e.Name(), workers, len(gg.bytes()), len(want))
				}
				if !reflect.DeepEqual(got.Anchors(), wantAnchors) {
					t.Fatalf("%s at %d workers: anchors differ\nserial:   %v\nparallel: %v",
						e.Name(), workers, wantAnchors, got.Anchors())
				}
			}
		})
	}
}

// TestRegistryGoroutineBaseline runs every registered experiment at reduced
// scale and checks that the goroutine count returns to its value before the
// run: no process, parked worker or scheduler goroutine may outlive an
// experiment, whether it ran on processes or on actors.
func TestRegistryGoroutineBaseline(t *testing.T) {
	for _, e := range Experiments() {
		t.Run(e.Name(), func(t *testing.T) {
			base := runtime.NumGoroutine()
			e.Run(reducedProto(e.Name()))
			deadline := time.Now().Add(2 * time.Second)
			for {
				n := runtime.NumGoroutine()
				if n <= base {
					return
				}
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<16)
					buf = buf[:runtime.Stack(buf, true)]
					t.Fatalf("%d goroutines after %s, baseline %d:\n%s", n, e.Name(), base, buf)
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}
