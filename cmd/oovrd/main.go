// Command oovrd serves the simulator as a job service: POST a RunSpec
// (JSON), get a canonical Result back. A bounded worker pool executes the
// simulations; finished Results are cached content-addressed on the
// canonical spec encoding, so resubmitting an identical spec returns the
// stored bytes (X-Oovrd-Cache: hit) without running anything.
//
// Standalone, the daemon also mounts the fleet coordinator under /fleet/:
// submitted spec matrices become a lease-based work queue that remote
// workers drain. A worker is the same binary in pull mode:
//
//	oovrd [-addr :8037] [-workers N] [-cache 4096] [-lease 15s] [-drain 15s]
//	oovrd -worker -coordinator http://host:8037 [-name w1] [-cache 4096]
//	      [-chaos crash=P,stall=P,corrupt=P,seed=N]
//
// Both roles drain gracefully on SIGINT/SIGTERM: the server stops
// accepting, lets in-flight requests finish within the -drain deadline,
// and the coordinator stops granting leases; a worker finishes and
// reports its in-flight lease, then exits. -chaos injects deterministic
// faults (abandoned leases, stalls past the straggler threshold, corrupt
// results) so a fleet's failure handling can be rehearsed on purpose.
//
// Quick start:
//
//	oovrd &
//	oovrd -worker -coordinator http://localhost:8037 &
//	oovrsim -bench HL2-1280 -scheme oovr -dump-spec > spec.json
//	curl -s -d @spec.json localhost:8037/run | jq .metrics.TotalCycles
//	oovrsim -all -fleet http://localhost:8037      # sweep via the fleet
//
// See internal/server for the endpoint list, internal/fleet for the
// lease protocol, and README.md for a walkthrough.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"oovr/internal/fleet"
	"oovr/internal/obs"
	"oovr/internal/server"
	"oovr/internal/service"
	"oovr/internal/spec"
	"oovr/internal/topo"
)

func main() {
	addr := flag.String("addr", ":8037", "listen address")
	workers := flag.Int("workers", runtime.NumCPU(), "concurrent simulations (the worker pool bound; server only)")
	cache := flag.Int("cache", 4096, "max cached results (positive)")
	lease := flag.Duration("lease", 15*time.Second, "fleet lease TTL before an unrenewed spec re-queues")
	drain := flag.Duration("drain", 15*time.Second, "shutdown deadline for in-flight requests")
	workerMode := flag.Bool("worker", false, "run as a fleet worker pulling leased specs instead of serving")
	coordinator := flag.String("coordinator", "", "coordinator base URL (required with -worker)")
	name := flag.String("name", "", "worker name (default host-pid)")
	chaosFlag := flag.String("chaos", "", "worker fault injection: crash=P,stall=P,corrupt=P,seed=N")
	quiet := flag.Bool("quiet", false, "suppress the per-request access log")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this extra address (off when empty)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *debugAddr != "" {
		go serveDebug(*debugAddr)
	}

	if *cache <= 0 {
		fmt.Fprintf(os.Stderr, "-cache %d: must be positive\n", *cache)
		os.Exit(2)
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *workerMode {
		// A worker serves one lease at a time, so its executor needs one
		// slot.
		if set["workers"] {
			fmt.Fprintln(os.Stderr, "-workers applies to the server; a worker runs one lease at a time")
			os.Exit(2)
		}
		// The obs listener is opt-in for workers: only an explicit -addr
		// serves /metrics and /healthz, so a fleet of workers on one host
		// never fights over the default port.
		obsAddr := ""
		if set["addr"] {
			obsAddr = *addr
		}
		if err := runWorker(ctx, *coordinator, *name, *chaosFlag, *cache, obsAddr); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *chaosFlag != "" {
		fmt.Fprintln(os.Stderr, "-chaos applies to workers; start this daemon with -worker")
		os.Exit(2)
	}
	if err := serve(ctx, *addr, *workers, *cache, *lease, *drain, *quiet); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// serveDebug exposes net/http/pprof on its own listener: profiling stays
// off the service port and off by default.
func serveDebug(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	fmt.Printf("oovrd pprof on %s\n", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		fmt.Fprintf(os.Stderr, "pprof listener: %v\n", err)
	}
}

// serve runs the job server with the fleet coordinator mounted beside it,
// until the context dies; then it drains — the coordinator stops granting
// leases and in-flight requests get the drain deadline to finish.
func serve(ctx context.Context, addr string, workers, cache int, lease, drain time.Duration, quiet bool) error {
	reg := obs.NewRegistry()
	srv := server.New(server.Options{Workers: workers, CacheEntries: cache, Metrics: reg, Role: "coordinator"})
	coord := fleet.NewCoordinator(fleet.CoordinatorOptions{LeaseTTL: lease})
	coord.RegisterMetrics(reg)
	mux := http.NewServeMux()
	mux.Handle("/fleet/", coord)
	mux.Handle("/", srv)

	requests := reg.NewCounterVec("oovr_http_requests_total",
		"HTTP requests served, by path and status class.", "path", "status")
	logf := log.New(os.Stdout, "", log.LstdFlags).Printf
	if quiet {
		logf = nil
	}
	handler := obs.AccessLog(mux, logf, requests)

	hs := &http.Server{
		Addr:    addr,
		Handler: handler,
		// A peer that dribbles its headers must not hold a connection
		// hostage; request bodies are separately bounded by the handlers.
		ReadHeaderTimeout: 10 * time.Second,
	}
	fmt.Printf("oovrd listening on %s (%d workers, cache %d, lease %s)\n", addr, workers, cache, lease)
	fmt.Printf("  schedulers: %s\n", strings.Join(spec.PlannerNames(), ", "))
	fmt.Printf("  workloads:  %s\n", strings.Join(spec.WorkloadNames(), ", "))
	fmt.Printf("  layouts:    %s\n", strings.Join(spec.LayoutNames(), ", "))
	fmt.Printf("  topologies: %s\n", strings.Join(topo.Names(), ", "))
	fmt.Printf("  routers:    %s\n", strings.Join(service.RouterNames(), ", "))

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Println("oovrd draining")
	coord.Drain()
	shutCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}

// runWorker pulls leased specs from the coordinator and executes them
// through the same single-flight content-addressed machinery the HTTP
// endpoints use — an identical spec leased twice (or arriving later over
// /run) shares one execution and one cached body.
func runWorker(ctx context.Context, coordinator, name, chaosFlag string, cache int, obsAddr string) error {
	if coordinator == "" {
		return fmt.Errorf("-worker needs -coordinator URL")
	}
	chaos, err := fleet.ParseChaos(chaosFlag)
	if err != nil {
		return err
	}
	if name == "" {
		host, _ := os.Hostname()
		name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	reg := obs.NewRegistry()
	exec := server.New(server.Options{Workers: 1, CacheEntries: cache, Metrics: reg, Role: "worker"})
	run := func(j spec.Job) ([]byte, error) {
		body, _, _, err := exec.Job(context.Background(), j)
		if err != nil && !server.IsExecError(err) {
			// The spec itself is bad (unknown component, invalid
			// hardware): quarantine it fleet-wide instead of burning its
			// retry budget on other workers.
			return nil, fleet.Permanent(err)
		}
		return body, err
	}
	w := &fleet.Worker{
		Coordinator: strings.TrimRight(coordinator, "/"),
		Name:        name,
		Chaos:       chaos,
		Logf:        log.New(os.Stderr, name+" ", log.LstdFlags).Printf,
		Exec:        func(rs spec.RunSpec) ([]byte, error) { return run(rs) },
		ExecService: func(sp spec.ServiceSpec) ([]byte, error) { return run(sp) },
	}
	w.RegisterMetrics(reg)
	if obsAddr != "" {
		// An explicitly chosen -addr serves the worker's observability
		// surface: /metrics and /healthz only, not the job endpoints.
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.Handler())
		mux.Handle("/healthz", exec)
		go func() {
			if err := http.ListenAndServe(obsAddr, mux); err != nil {
				fmt.Fprintf(os.Stderr, "worker obs listener: %v\n", err)
			}
		}()
		fmt.Printf("oovrd worker metrics on %s\n", obsAddr)
	}
	fmt.Printf("oovrd worker %s pulling from %s (chaos %q)\n", name, coordinator, chaosFlag)
	return w.Run(ctx)
}
