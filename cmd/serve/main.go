// Command serve runs the simulation service: a long-lived multi-tenant
// server that accepts simulation jobs (shell advection, global seismic
// wave propagation, mantle convection) over HTTP/JSON, runs each in its
// own in-process rank world behind a bounded admission queue, checkpoints
// them into per-job directories, auto-restarts crashed jobs on a migrated
// rank count, and streams progress (SSE), VTK frames, traces, and
// manifests back to the tenants.
//
//	go run ./cmd/serve -addr :8080 -max-active 4 &
//	curl -s localhost:8080/jobs -d '{"type":"advect","ranks":3,"steps":6}'
//	curl -N localhost:8080/jobs/j000001/events
//	curl -s localhost:8080/metrics | grep jobs_
//
// SIGINT/SIGTERM drains: admission stops (new submits get 503), every
// queued and running job finishes, then the listener closes.
package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"flag"

	"repro/internal/mpi"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

var (
	addr      = flag.String("addr", ":8080", "listen address (\":0\" picks a free port)")
	dataDir   = flag.String("data", "", "job data root (default: a fresh temp dir)")
	maxActive = flag.Int("max-active", 4, "jobs running concurrently, each in its own rank world")
	maxQueue  = flag.Int("max-queue", 256, "admission queue capacity beyond the active set")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}

func run() error {
	if err := mpi.CheckTransportEnv(); err != nil {
		return err
	}
	tel := telemetry.NewServer()
	sched, err := serve.NewScheduler(serve.Config{
		MaxActive: *maxActive,
		MaxQueue:  *maxQueue,
		DataDir:   *dataDir,
	}, tel)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: serve.NewHandler(sched, tel)}
	go srv.Serve(ln)
	fmt.Printf("serve: listening on %s (jobs in %s)\n", ln.Addr(), sched.DataDir())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("serve: draining (in-flight jobs finish, new submits rejected)")
	sched.Drain()
	if err := srv.Close(); err != nil {
		return err
	}
	fmt.Println("serve: drained, bye")
	return nil
}
