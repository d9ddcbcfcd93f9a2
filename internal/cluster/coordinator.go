package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"uafcheck/internal/cache"
	"uafcheck/internal/obs"
	"uafcheck/internal/server"
)

// Cluster counter names on the coordinator's /metrics.
const (
	// CtrProxied counts requests forwarded to a worker (any outcome).
	CtrProxied = "cluster.proxied"
	// CtrReroutes counts failover hops: a candidate worker was
	// unreachable and the request moved to its ring successor.
	CtrReroutes = "cluster.reroutes"
	// CtrWorkerLost counts transport failures against workers.
	CtrWorkerLost = "cluster.worker_lost"
	// CtrBatchLines counts NDJSON result lines merged at the edge.
	CtrBatchLines = "cluster.batch_lines"
	// CtrMembershipChanges counts ring rebuilds from health probes.
	CtrMembershipChanges = "cluster.membership_changes"
)

// The coordinator's two worker-facing timeouts. A sub-request carries a
// whole batch stream, so it gets room; a probe answers /healthz or the
// worker counts as down.
const (
	requestTimeout = 5 * time.Minute
	probeTimeout   = 3 * time.Second
)

// errNoWorkers answers a request whose ring has no live worker.
var errNoWorkers = errors.New("no workers alive")

// WorkerSpec names one worker replica: a stable logical ID (the ring
// hashes IDs, so routing survives every port changing across a fleet
// restart) and the base URL it currently answers on.
type WorkerSpec struct {
	ID  string
	URL string
}

// Config wires a Coordinator.
type Config struct {
	// Workers is the configured fleet. Liveness within it is managed by
	// health probes; membership of the routing ring follows liveness.
	Workers []WorkerSpec
	// ProbeInterval paces the health prober (0 = 2s; negative disables
	// background probing — tests drive Probe explicitly).
	ProbeInterval time.Duration
	// MaxBodyBytes bounds a request body (0 = 8 MiB), mirroring the
	// worker-side limit so oversized requests die at the edge.
	MaxBodyBytes int64
	// Logger receives operational log records (nil = slog.Default()).
	Logger *slog.Logger
}

// workerHealth is one worker's probed liveness state.
type workerHealth struct {
	alive       bool
	consecFails int64
	lastErr     string
}

// Coordinator terminates cluster HTTP: it owns the routing ring, the
// worker health prober, and the fan-out/merge logic for streaming
// endpoints. Create with New, expose via Handler, stop with Shutdown.
type Coordinator struct {
	cfg   Config
	urls  map[string]string // worker ID -> base URL
	order []string          // configured worker IDs, in config order
	hc    *http.Client      // request path: one attempt per worker
	probe *http.Client      // health probes
	rec   *obs.Recorder
	front *server.Front
	log   *slog.Logger

	ring atomic.Pointer[Ring] // over currently-alive worker IDs

	mu     sync.Mutex
	health map[string]*workerHealth

	stop chan struct{}
	done chan struct{}
}

// New builds a Coordinator, runs one synchronous probe round so the
// initial ring reflects real liveness, and starts the background
// prober (unless ProbeInterval < 0).
func New(cfg Config) *Coordinator {
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	c := &Coordinator{
		cfg:    cfg,
		urls:   make(map[string]string, len(cfg.Workers)),
		order:  make([]string, 0, len(cfg.Workers)),
		hc:     &http.Client{Timeout: requestTimeout},
		probe:  &http.Client{Timeout: probeTimeout},
		rec:    obs.New(),
		log:    cfg.Logger,
		health: make(map[string]*workerHealth, len(cfg.Workers)),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	c.front = server.NewFront(server.Role{
		Mode:         "coordinator",
		Rec:          c.rec,
		MaxBodyBytes: cfg.MaxBodyBytes,
		Components:   c.workerRows,
		Metrics:      c.rec.Snapshot,
		// A turned-away client should come back once the next probe
		// round has had a chance to re-admit a worker.
		RetryAfter: func() int { return int(cfg.ProbeInterval/time.Second) + 1 },
		Statusz:    c.statuszExtras,
	})
	for _, w := range cfg.Workers {
		c.urls[w.ID] = w.URL
		c.order = append(c.order, w.ID)
		c.health[w.ID] = &workerHealth{alive: true}
	}
	c.ring.Store(NewRing(c.order, 0))
	c.Probe()
	if cfg.ProbeInterval > 0 {
		go c.probeLoop()
	} else {
		close(c.done)
	}
	return c
}

// Shutdown stops the prober. In-flight proxied requests finish under
// their own contexts; the caller drains its http.Server separately.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	select {
	case <-c.stop:
	default:
		close(c.stop)
	}
	select {
	case <-c.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (c *Coordinator) probeLoop() {
	defer close(c.done)
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.Probe()
		}
	}
}

// Probe runs one health round over every configured worker and
// rebuilds the ring when liveness changed. A worker is alive when its
// /healthz answers 200 (a draining or wedged worker answers 503 and
// leaves the ring until it recovers). Safe for concurrent use.
func (c *Coordinator) Probe() {
	type verdict struct {
		id    string
		alive bool
		err   string
	}
	verdicts := make([]verdict, len(c.order))
	var wg sync.WaitGroup
	for i, id := range c.order {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			v := verdict{id: id}
			resp, err := c.probe.Get(c.urls[id] + "/healthz")
			switch {
			case err != nil:
				v.err = err.Error()
			case resp.StatusCode != http.StatusOK:
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
				v.err = "healthz: " + resp.Status
			default:
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
				v.alive = true
			}
			verdicts[i] = v
		}(i, id)
	}
	wg.Wait()

	c.mu.Lock()
	changed := false
	alive := make([]string, 0, len(c.order))
	for _, v := range verdicts {
		h := c.health[v.id]
		if h.alive != v.alive {
			changed = true
		}
		h.alive = v.alive
		h.lastErr = v.err
		if v.alive {
			h.consecFails = 0
			alive = append(alive, v.id)
		} else {
			h.consecFails++
		}
	}
	c.mu.Unlock()

	if changed {
		c.ring.Store(NewRing(alive, 0))
		c.rec.Add(CtrMembershipChanges, 1)
		c.log.Info("cluster: ring membership changed", "alive", alive, "configured", len(c.order))
	}
}

// aliveRing returns the current routing ring.
func (c *Coordinator) aliveRing() *Ring { return c.ring.Load() }

// Handler returns the coordinator's route table: the full /v1/ wire
// contract proxied over the ring, behind the same HTTP front — tracing,
// errors, admin pages — a worker mounts.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", c.front.Traced("/v1/analyze", c.proxySingle("analyze", "/v1/analyze")))
	mux.HandleFunc("POST /v1/repair", c.front.Traced("/v1/repair", c.proxySingle("repair", "/v1/repair")))
	mux.HandleFunc("POST /v1/analyze-batch", c.front.Traced("/v1/analyze-batch", c.handleBatch))
	mux.HandleFunc("POST /v1/delta", c.front.Traced("/v1/delta", c.handleDelta))
	c.front.Mount(mux)
	return mux
}

// post sends one request to a worker's path, carrying the edge
// request's query string (content negotiation rides on ?format=) and
// the headers that must reach the worker: content negotiation, body
// typing, and a traceparent naming the edge's request span as the
// worker's parent under the caller's trace ID.
func (c *Coordinator) post(ctx context.Context, r *http.Request, worker, path string, body []byte) (*http.Response, error) {
	url := c.urls[worker] + path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	for _, k := range []string{"Accept", "Content-Type"} {
		if v := r.Header.Get(k); v != "" {
			req.Header.Set(k, v)
		}
	}
	if sid, ok := obs.CurrentSpanID(r.Context()); ok {
		req.Header.Set("Traceparent", obs.FormatTraceparent(obs.TraceFrom(r.Context()).ID(), sid))
	}
	return c.hc.Do(req)
}

// failover is the edge's one failover policy: send goes to the ring
// owner of key and, if the owner cannot be reached, once to the next
// live worker on the ring. Any HTTP answer, 429 and 503 included, is
// final; liveness is the prober's job, so nothing retries or backs
// off. Each transport failure counts as cluster.worker_lost and each
// hop as cluster.reroutes. A worker this request already lost
// mid-stream is passed as lost and counts as the failed owner. The
// worker returned answered, or on failure was the last one tried.
func (c *Coordinator) failover(key cache.Key, lost string, send func(worker string) (*http.Response, error)) (string, *http.Response, error) {
	var cands []string
	for _, id := range c.aliveRing().LookupN(key, 2) {
		if id != lost {
			cands = append(cands, id)
		}
	}
	if lost != "" && len(cands) > 1 {
		cands = cands[:1]
	}
	last, err := "", errNoWorkers
	for i, id := range cands {
		if i > 0 || lost != "" {
			c.rec.Add(CtrReroutes, 1)
		}
		resp, serr := send(id)
		if serr == nil {
			return id, resp, nil
		}
		last, err = id, serr
		c.rec.Add(CtrWorkerLost, 1)
	}
	return last, nil, err
}

// copyResponse relays a worker response to the edge verbatim: status,
// contract headers, and the (possibly streaming) body, flushed per
// chunk so NDJSON consumers see lines as workers produce them.
func copyResponse(w http.ResponseWriter, resp *http.Response, workerID string) {
	defer resp.Body.Close()
	for _, k := range []string{"Content-Type", "Retry-After", "X-Uafserve-Dedup", "X-Uafserve-Cache", "Sunset"} {
		if v := resp.Header.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	w.Header().Set("X-Uafserve-Worker", workerID)
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			w.Write(buf[:n]) //nolint:errcheck — a dead client just discards the stream
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// proxySingle forwards one body-addressed request (analyze, repair) to
// the content-key owner, with one failover hop to the ring successor
// when the owner is unreachable. Any HTTP answer from a worker — 200,
// 429 with Retry-After, 503 — is definitive and relayed unchanged.
func (c *Coordinator) proxySingle(kind, path string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req server.AnalyzeRequest
		if !c.front.DecodeBody(w, r, &req) {
			return
		}
		body, _ := json.Marshal(req) // plain strings and numbers: cannot fail
		key := server.RouteKey(kind, req.Name, req.Src, req.Options)
		c.forwardByKey(w, r, key, path, body)
	}
}

// forwardByKey routes body to the key owner's /v1 path under the
// failover policy.
func (c *Coordinator) forwardByKey(w http.ResponseWriter, r *http.Request, key cache.Key, path string, body []byte) {
	id, resp, err := c.failover(key, "", func(id string) (*http.Response, error) {
		return c.post(r.Context(), r, id, path, body)
	})
	switch {
	case errors.Is(err, errNoWorkers):
		c.front.WriteError(w, http.StatusServiceUnavailable, err.Error())
	case err != nil:
		c.front.WriteError(w, http.StatusBadGateway,
			fmt.Sprintf("all candidate workers unreachable: %v", err))
	default:
		c.rec.Add(CtrProxied, 1)
		copyResponse(w, resp, id)
	}
}

// ----------------------------------------------------------- admin

// workerRows builds the coordinator's component rows for /healthz and
// /statusz: "worker:<id>" with liveness ("ok" / "dead") and probe
// failure streaks — the coordinator-side mirror of each worker's own
// health surface — and "ring", which is "unready" while no worker is
// alive. The front's fold turns a dead worker into "degraded" (still
// serving, capacity and cache locality impaired) and an empty ring into
// 503 unready.
func (c *Coordinator) workerRows() map[string]server.ComponentStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	rows := make(map[string]server.ComponentStatus, len(c.order)+1)
	alive := 0
	for _, id := range c.order {
		h := c.health[id]
		st := server.ComponentStatus{State: "ok", Detail: map[string]int64{
			"consecutive_probe_failures": h.consecFails,
		}}
		if !h.alive {
			st.State = "dead"
		} else {
			alive++
		}
		rows["worker:"+id] = st
	}
	ring := server.ComponentStatus{State: "ok", Detail: map[string]int64{
		"members":    int64(alive),
		"configured": int64(len(c.order)),
	}}
	if alive == 0 {
		ring.State = "unready"
	}
	rows["ring"] = ring
	return rows
}

// statuszExtras adds the coordinator's own counters to /statusz.
func (c *Coordinator) statuszExtras() map[string]any {
	m := c.rec.Snapshot()
	counters := make(map[string]int64)
	for _, name := range m.CounterNames() {
		counters[name] = m.Counter(name)
	}
	return map[string]any{"counters": counters}
}
