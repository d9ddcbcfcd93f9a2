// Command uafserve runs the use-after-free analysis as a long-lived
// HTTP/JSON daemon: clients POST MiniChapel source and get back the
// same canonical report JSON that `uafcheck -format=json` prints.
//
// Usage:
//
//	uafserve [flags]
//
// Flags for every mode:
//
//	-addr A            listen address (default :8420; use 127.0.0.1:0
//	                   for an ephemeral port — the bound address is
//	                   printed on startup)
//	-max-body N        max request body bytes (default 8 MiB); a
//	                   coordinator rejects larger bodies at the edge
//	-drain-timeout D   max time to drain on SIGINT/SIGTERM (default 30s)
//
// Analysis flags (single and worker modes; a coordinator runs no
// analysis and ignores them):
//
//	-inflight N      max concurrently running analyses (0 = GOMAXPROCS)
//	-queue N         max requests waiting for a slot before 429 (default 64)
//	-deadline D      default per-request analysis deadline (default 30s)
//	-max-deadline D  cap on client-requested deadlines (default 2m)
//	-par N           PPS exploration workers per analysis (default 1)
//	-jobs N          file workers per batch request (0 = GOMAXPROCS)
//	-cache-dir D     persist the content-addressed report cache under D
//	-cache-size N    in-memory report cache entries (0 = default)
//	-pprof           mount net/http/pprof under /debug/pprof/
//	-faults SPEC     arm deterministic fault injection for chaos drills
//	                 (point=mode:prob rules; see internal/fault)
//	-fault-seed N    seed for the -faults probability streams (default 1)
//
// Cluster flags (see docs/CLUSTER.md):
//
//	-mode M            "single" (default), "worker", or "coordinator"
//	-workers LIST      coordinator: comma-separated worker base URLs,
//	                   optionally as id=url pairs (IDs default to
//	                   worker-0, worker-1, ... by position; the routing
//	                   ring hashes IDs, so keep them stable across
//	                   restarts)
//	-probe-interval D  coordinator: worker health probe cadence
//	                   (default 2s); a worker failing its probe leaves
//	                   the ring until it recovers
//
// With -cache-dir, startup runs a crash-recovery scan over the disk
// tier: entries whose checksum no longer matches are quarantined and
// stale temp files from interrupted writes are swept, so a kill -9
// mid-write can never surface a corrupt report later.
//
// Endpoints:
//
//	POST /v1/analyze        {"name","src","options":{...}} -> canonical
//	                        result JSON; 429 + Retry-After on overload
//	POST /v1/analyze-batch  {"files":[{"name","src"},...],"options":{...}}
//	                        -> NDJSON, one result line per file as each
//	                        finishes
//	POST /v1/delta          NDJSON stream of {"name","src","options":{...}}
//	                        lines -> NDJSON result lines; files re-sent
//	                        after an edit are re-analyzed incrementally
//	                        (only edited procedures recompute)
//	POST /v1/repair         {"name","src","options":{...}} -> NDJSON:
//	                        one verified unified-diff patch per line
//	                        plus a terminal summary; analyses that
//	                        degrade answer a typed 503 refusal
//	                        (code "repair_degraded") with Retry-After
//	                        instead of an unverifiable patch
//	GET  /healthz           readiness (503 while draining)
//	GET  /livez             liveness
//	GET  /metrics           Prometheus text format (per-route latency
//	                        histograms included)
//	GET  /statusz           operational summary with p50/p90/p99 per route
//	GET  /debug/requests    flight recorder: recent request digests;
//	                        ?trace=<id> returns one with its span tree
//	GET  /debug/pprof/      net/http/pprof (only with -pprof)
//
// Analysis endpoints accept and echo a W3C `traceparent` header; each
// request's span tree (server -> analysis phases -> PPS waves) is
// retrievable from /debug/requests by trace ID. Every mode serves the
// same admin pages from the same code; a coordinator's /debug/requests
// holds its own request spans, which are the parents of the spans its
// workers record under the same trace ID.
//
// /v1/analyze and /v1/analyze-batch content-negotiate: requests with
// `Accept: application/sarif+json` (or `?format=sarif`) receive the
// SARIF 2.1.0 projection, with verified repair patches embedded as
// SARIF fixes — ready for code-scanning upload; see docs/REPAIR.md.
//
// The pre-versioning routes /analyze and /analyze-batch still answer —
// with Deprecation/Link/Sunset headers and a server.deprecated_requests
// count — but new clients should use /v1/. See docs/SERVER.md for the
// compatibility and removal policy.
//
// SIGINT/SIGTERM shut down gracefully: the admission gate closes,
// in-flight analyses finish and are delivered, and the disk cache tier
// is flushed before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"uafcheck"
	"uafcheck/internal/cluster"
	"uafcheck/internal/fault"
	"uafcheck/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", ":8420", "listen address (host:port; port 0 picks an ephemeral port)")
		inflight    = flag.Int("inflight", 0, "max concurrently running analyses (0 = GOMAXPROCS)")
		queue       = flag.Int("queue", 64, "max requests waiting for an analysis slot before 429 (negative = no queue)")
		deadline    = flag.Duration("deadline", 30*time.Second, "default per-request analysis deadline; on expiry the analysis degrades to conservative warnings")
		maxDeadline = flag.Duration("max-deadline", 2*time.Minute, "cap on client-requested deadlines")
		par         = flag.Int("par", 0, "parallel PPS exploration workers per analysis (0 = 1)")
		jobs        = flag.Int("jobs", 0, "parallel file workers per batch request (0 = GOMAXPROCS)")
		cacheDir    = flag.String("cache-dir", "", "directory for the persistent content-addressed report cache (empty = memory only)")
		cacheSize   = flag.Int("cache-size", 0, "in-memory report cache entries (0 = default)")
		maxBody     = flag.Int64("max-body", 0, "max request body bytes (0 = 8 MiB)")
		drainFor    = flag.Duration("drain-timeout", 30*time.Second, "max time to wait for in-flight analyses on shutdown")
		enablePprof = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (single/worker only)")
		faults      = flag.String("faults", "", "fault-injection spec for chaos drills, e.g. 'cache.fs.write=err:0.1;analysis.panic=panic:0.01' (see internal/fault)")
		faultSeed   = flag.Int64("fault-seed", 1, "deterministic seed for -faults probability streams")
		mode        = flag.String("mode", "single", "process role: single, worker, or coordinator")
		workers     = flag.String("workers", "", "coordinator: comma-separated worker base URLs (optionally id=url pairs)")
		probeEvery  = flag.Duration("probe-interval", 2*time.Second, "coordinator: worker health probe interval")
	)
	flag.Parse()

	switch *mode {
	case "single", "worker", "coordinator":
	default:
		fmt.Fprintf(os.Stderr, "uafserve: -mode must be single, worker or coordinator (got %q)\n", *mode)
		os.Exit(2)
	}

	if *faults != "" {
		in, err := fault.Parse(*faultSeed, *faults)
		if err != nil {
			fmt.Fprintf(os.Stderr, "uafserve: -faults: %v\n", err)
			os.Exit(2)
		}
		fault.Set(in)
		fmt.Fprintf(os.Stderr, "uafserve: fault injection armed (seed %d): %s\n", *faultSeed, *faults)
	}

	// Both roles are an http.Handler plus a drain step, served through
	// one listen/announce/signal/drain lifecycle.
	var role interface {
		Handler() http.Handler
		Shutdown(context.Context) error
	}
	var srv *server.Server
	if *mode == "coordinator" {
		specs, err := parseWorkers(*workers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "uafserve: -workers: %v\n", err)
			os.Exit(2)
		}
		if len(specs) == 0 {
			fmt.Fprintln(os.Stderr, "uafserve: -mode coordinator requires -workers")
			os.Exit(2)
		}
		// No analysis engine, no local cache: just the routing edge over
		// the worker fleet.
		role = cluster.New(cluster.Config{
			Workers:       specs,
			ProbeInterval: *probeEvery,
			MaxBodyBytes:  *maxBody,
		})
		fmt.Fprintf(os.Stderr, "uafserve: coordinator over %d worker(s)\n", len(specs))
	} else {
		srv = server.New(server.Config{
			MaxInflight:     *inflight,
			QueueDepth:      *queue,
			DefaultDeadline: *deadline,
			MaxDeadline:     *maxDeadline,
			Parallelism:     *par,
			BatchWorkers:    *jobs,
			MaxBodyBytes:    *maxBody,
			Cache:           newReportCache(*cacheDir, *cacheSize),
			EnablePprof:     *enablePprof,
			Mode:            *mode,
		})
		role = srv
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "uafserve: %v\n", err)
		os.Exit(1)
	}
	// The bound address line is machine-readable on purpose: with
	// -addr 127.0.0.1:0 it is how callers (and the loadtest harness)
	// learn the ephemeral port.
	fmt.Printf("uafserve: listening on %s\n", ln.Addr())

	httpSrv := &http.Server{
		Handler:           role.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case sig := <-stop:
		fmt.Fprintf(os.Stderr, "uafserve: %v: draining (up to %v)\n", sig, *drainFor)
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "uafserve: %v\n", err)
		os.Exit(1)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	// Order matters: the role drains first (a worker's gate closes,
	// queued waiters get 503, admitted requests run to completion and
	// write their responses, the cache is flushed; a coordinator stops
	// probing), then the HTTP layer closes idle connections.
	if err := role.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "uafserve: drain incomplete: %v\n", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "uafserve: %v\n", err)
	}
	if srv == nil {
		return
	}
	m := srv.MetricsSnapshot()
	fmt.Fprintf(os.Stderr, "uafserve: served %d requests (%d analyses, %d delta files, %d dedup hits, %d rejects, %d deprecated-route hits)\n",
		m.Counter("server.requests"), m.Counter("server.analyses"),
		m.Counter("server.delta_files"), m.Counter("server.dedup_hits"),
		m.Counter("server.rejects"), m.Counter("server.deprecated_requests"))
}

// newReportCache builds the report cache of the single and worker
// modes. The daemon always runs one: repeated sources across requests
// are the common case for a shared service. Disk writes go through the
// async tier so cache persistence never sits on a request's latency
// path; the server's Shutdown flushes it.
func newReportCache(dir string, size int) *uafcheck.Cache {
	cfg := uafcheck.CacheConfig{MaxEntries: size, Dir: dir}
	if dir != "" {
		cfg.AsyncDiskWrites = 256
	}
	c := uafcheck.NewCache(cfg)
	if dir != "" {
		// A previous process may have died mid-write: sweep stale temp
		// files and quarantine entries whose checksum no longer matches
		// before serving anything from disk.
		rs := c.Recover()
		fmt.Fprintf(os.Stderr, "uafserve: cache recovery: %d scanned, %d ok, %d quarantined, %d temp file(s) swept\n",
			rs.Scanned, rs.OK, rs.Quarantined, rs.TempFiles)
	}
	return c
}

// splitList parses a comma-separated flag value, dropping empties.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// parseWorkers turns the -workers flag into worker specs. Entries are
// base URLs, optionally prefixed "id=": bare URLs get positional IDs
// (worker-0, worker-1, ...). The ring hashes IDs, so a fleet restarted
// on fresh ports but the same IDs routes identically.
func parseWorkers(list string) ([]cluster.WorkerSpec, error) {
	var specs []cluster.WorkerSpec
	seen := make(map[string]bool)
	for i, entry := range splitList(list) {
		id, url := fmt.Sprintf("worker-%d", i), entry
		if at := strings.Index(entry, "="); at > 0 && !strings.Contains(entry[:at], "/") {
			id, url = entry[:at], entry[at+1:]
		}
		if seen[id] {
			return nil, fmt.Errorf("duplicate worker id %q", id)
		}
		seen[id] = true
		if !strings.HasPrefix(url, "http://") && !strings.HasPrefix(url, "https://") {
			url = "http://" + url
		}
		specs = append(specs, cluster.WorkerSpec{ID: id, URL: strings.TrimRight(url, "/")})
	}
	return specs, nil
}
