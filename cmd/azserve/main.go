// Command azserve exposes a simulated Windows Azure cloud over the 2009-era
// REST surface — blob, table, queue, and Service Management endpoints —
// so real HTTP clients (curl, SDK experiments, load generators) can talk to
// the reproduction.
//
// Two clock modes bridge wall time onto the deterministic kernel:
//
//	-mode freerun   virtual time jumps to drain each request's work and
//	                stands still between requests (default; deterministic
//	                given the arrival order)
//	-mode paced     virtual time tracks the wall clock, so the paper's
//	                latencies are observable in real time
//
// With -record, every engine-bound arrival is captured and written on
// shutdown in the wire.ParseArrivals format; `azbench -run wirereplay`
// replays the bundled exemplar of such a log bit-identically.
//
//	azserve -addr 127.0.0.1:10000 -mode freerun -record arrivals.log
//	curl -X PUT http://127.0.0.1:10000/inputs
//	curl -X PUT -H 'x-ms-size: 1048576' http://127.0.0.1:10000/inputs/data
package main

import (
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"azureobs/internal/azure"
	"azureobs/internal/sim"
	"azureobs/internal/wire"
)

func main() {
	var (
		addr   = flag.String("addr", "127.0.0.1:10000", "listen address (host:port; port 0 picks a free port)")
		mode   = flag.String("mode", "freerun", "clock mode: freerun or paced")
		record = flag.String("record", "", "write the arrival log to this file on shutdown")
		seed   = flag.Uint64("seed", 42, "simulation seed")
		tick   = flag.Duration("tick", 10*time.Millisecond, "paced-mode clock tick")
	)
	flag.Parse()

	var rtMode sim.RTMode
	switch *mode {
	case "freerun":
		rtMode = sim.FreeRun
	case "paced":
		rtMode = sim.Paced
	default:
		log.Fatalf("azserve: unknown -mode %q (want freerun or paced)", *mode)
	}

	cloud := azure.NewCloud(azure.Config{Seed: *seed})
	rt := sim.NewRealTime(cloud.Engine, rtMode)
	rt.SetTick(*tick)
	facade := wire.New(cloud, rt)

	var rec *wire.Recorder
	if *record != "" {
		rec = wire.NewRecorder()
		facade.SetRecorder(rec)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("azserve: %v", err)
	}
	log.Printf("azserve: %s mode, seed %d, listening on http://%s", rtMode, *seed, ln.Addr())

	srv := &http.Server{Handler: facade}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Fatalf("azserve: %v", err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		log.Print("azserve: shutting down")
		srv.Close()
		rt.Close()
	}()

	// Serve returns once the signal handler closes the RealTime; no request
	// reaches the engine after that, so the arrival log is complete.
	rt.Serve()

	if rec != nil {
		f, err := os.Create(*record)
		if err != nil {
			log.Fatalf("azserve: %v", err)
		}
		if _, err := rec.WriteTo(f); err != nil {
			log.Fatalf("azserve: writing %s: %v", *record, err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("azserve: closing %s: %v", *record, err)
		}
		log.Printf("azserve: wrote %d arrivals to %s", len(rec.Arrivals()), *record)
	}
}
